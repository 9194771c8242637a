/**
 * @file
 * Deterministic elementary functions for the hot sampling transforms.
 *
 * libm's pow/log are correctly rounded-ish but implementation-defined:
 * different libc versions (or a future vector-math library) may round
 * the last ulp differently, which would silently shift every golden
 * number in the test suite. The Weibull inverse-CDF transform is the
 * one elementary-function call on the trial hot path, so the library
 * pins its own fixed-operation-sequence implementations here: detLog /
 * detExp / detPow execute the exact same IEEE double operations in the
 * same order on every platform. They are scalar only: a bank transforms
 * one order statistic, or at most 2k' fault candidates, so no vector
 * batch pays for its code.
 *
 * Accuracy is a few ulp (argument reduction + polynomial, no fused
 * multiply-adds), which the statistical suites bound end-to-end; these
 * are sampling transforms, not analytic kernels — the closed-form
 * Weibull analytics (cdf/quantile/mttf) stay on libm.
 *
 * Domain: strictly positive, finite, normal inputs (plus the exact
 * zero handled by detPow). The sampling pipeline guarantees this:
 * uniforms are in [2^-53, 1], so -detLog(u) is in [0, 53 ln 2].
 */

#ifndef LEMONS_UTIL_FASTMATH_H_
#define LEMONS_UTIL_FASTMATH_H_

namespace lemons::fastmath {

/**
 * Natural logarithm of @p x.
 * @pre x is positive, finite and normal (>= DBL_MIN).
 */
double detLog(double x);

/**
 * e raised to @p x, for |x| <= 700 (result stays normal).
 */
double detExp(double x);

/**
 * @p base raised to @p exponent via detExp(exponent * detLog(base)).
 * base == 0 returns 0 (1 when exponent == 0), matching std::pow on
 * the sampling domain.
 * @pre base is zero or a positive normal double; exponent is finite
 *      and |exponent * detLog(base)| <= 700.
 */
double detPow(double base, double exponent);

} // namespace lemons::fastmath

#endif // LEMONS_UTIL_FASTMATH_H_
