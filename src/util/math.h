/**
 * @file
 * Numerically stable math used by the reliability analytics.
 *
 * The design solver evaluates binomial tail probabilities with very
 * small per-device survival probabilities (down to ~1e-12) and very
 * wide structures (n up to millions), so everything here works in
 * log space.
 */

#ifndef LEMONS_UTIL_MATH_H_
#define LEMONS_UTIL_MATH_H_

#include <cstdint>
#include <vector>

namespace lemons {

/** log(n choose k); returns -inf for k outside [0, n]. */
double logBinomCoeff(uint64_t n, uint64_t k);

/** log(exp(a) + exp(b)) without overflow; handles -inf inputs. */
double logSumExp(double a, double b);

/** log(exp(a) - exp(b)) for a >= b; returns -inf when a == b. */
double logDiffExp(double a, double b);

/**
 * log(1 - exp(x)) for x <= 0, accurate both when x is tiny (where
 * 1 - e^x ~ -x) and when x is very negative (where e^x underflows).
 */
double log1mExp(double x);

/**
 * Binomial upper tail P(X >= k) for X ~ Binomial(n, p), computed by
 * log-space summation so that probabilities down to ~1e-300 survive.
 *
 * This is the workhorse behind the k-out-of-n structure reliability
 * (paper Eq. 6 and Eq. 8).
 *
 * @param n Number of trials. @param k Tail threshold.
 * @param p Per-trial success probability in [0, 1].
 * @return P(X >= k) in [0, 1].
 */
double binomialTailAtLeast(uint64_t n, uint64_t k, double p);

/** log of binomialTailAtLeast, for probabilities below double range. */
double logBinomialTailAtLeast(uint64_t n, uint64_t k, double p);

/**
 * log of the regularized incomplete beta function I_x(a, b), computed
 * with Lentz's continued fraction on the rapidly convergent side. This
 * is the O(1)-per-call backbone of the binomial tails: for
 * X ~ Binomial(n, p), P(X >= k) = I_p(k, n - k + 1).
 *
 * @pre a > 0, b > 0, 0 <= x <= 1.
 */
double logBetaIncRegularized(double a, double b, double x);

/**
 * log P(X == k) for X ~ Poisson(@p lambda). Above k = 20 Stirling's
 * series replaces ln k!, so the O(k ln k) terms of the textbook
 * k ln lambda - lambda - lgamma(k + 1) cancel before rounding. It calls
 * no std::lgamma (which writes the global signgam), so concurrent
 * samplers may use it.
 *
 * @pre lambda >= 0 and finite.
 */
double logPoissonPmf(uint64_t k, double lambda);

/**
 * Poisson lower tail P(X <= n) for X ~ Poisson(@p lambda), evaluated
 * as the regularized upper incomplete gamma Q(n + 1, lambda): the
 * power series for the lower function P below the mode, Lentz's
 * continued fraction for Q above it. Each call costs
 * O(sqrt(lambda)) iterations near the mode and fewer in the tails.
 *
 * @pre lambda >= 0 and finite.
 */
double poissonCdf(uint64_t n, double lambda);

/**
 * Reference O(n - k) log-space summation of the binomial upper tail.
 * Exposed so tests can cross-validate the incomplete-beta fast path;
 * production code should call logBinomialTailAtLeast.
 */
double logBinomialTailAtLeastBySum(uint64_t n, uint64_t k, double p);

/** Binomial lower tail P(X <= k). */
double binomialTailAtMost(uint64_t n, uint64_t k, double p);

/** log P(X == k) for X ~ Binomial(n, p). */
double logBinomialPmf(uint64_t n, uint64_t k, double p);

/** log(exp(x1)+...+exp(xn)) over a vector; empty input yields -inf. */
double logSumExp(const std::vector<double> &xs);

/** Integer ceiling division for positive integers. */
constexpr uint64_t
ceilDiv(uint64_t numerator, uint64_t denominator)
{
    return (numerator + denominator - 1) / denominator;
}

} // namespace lemons

#endif // LEMONS_UTIL_MATH_H_
