#include "util/fastmath.h"

#include <bit>
#include <cstdint>

namespace lemons::fastmath {

namespace {

// ln 2 split into a 32-bit-exact head and a tail (fdlibm split), so
// n * kLn2Hi is exact for |n| < 2^20 during argument reduction.
constexpr double kLn2Hi = 0x1.62e42feep-1;
constexpr double kLn2Lo = 0x1.a39ef35793c76p-33;
constexpr double kLog2E = 0x1.71547652b82fep+0;
constexpr double kSqrtHalf = 0x1.6a09e667f3bcdp-1;
// 1.5 * 2^52: adding then subtracting rounds to the nearest integer
// and leaves that integer in the low mantissa bits (two's complement).
constexpr double kShifter = 6755399441055744.0;
// 2^52 + 1022: subtracting from (2^52 | exponent-field) yields the
// unbiased exponent of a [0.5, 1) mantissa split, exactly.
constexpr double kExpBias = 4503599627370496.0 + 1022.0;

// exp(r) Taylor coefficients 1/k! for k = 0 .. 13, lowest first.
// |r| <= ln2/2 after reduction, so truncation is below 1 ulp. The
// fixed Estrin grouping of expPoly below keeps the dependency chain
// ~3x shorter than Horner's.
constexpr double kExpC[] = {
    1.0,           1.0,           1.0 / 2.0,       1.0 / 6.0,
    1.0 / 24.0,    1.0 / 120.0,   1.0 / 720.0,     1.0 / 5040.0,
    1.0 / 40320.0, 1.0 / 362880.0, 1.0 / 3628800.0, 1.0 / 39916800.0,
    1.0 / 479001600.0, 1.0 / 6227020800.0,
};

// atanh series for log(m) = s * (2 + z * P(z)), s = (m-1)/(m+1),
// z = s^2 <= 0.0295 on [sqrt(1/2), sqrt(2)); coefficients 2/(2k+3)
// for z^k, lowest order first, evaluated with the fixed Estrin
// grouping of logPoly below.
constexpr double kLogC[] = {
    2.0 / 3.0,  2.0 / 5.0,  2.0 / 7.0,  2.0 / 9.0,  2.0 / 11.0,
    2.0 / 13.0, 2.0 / 15.0, 2.0 / 17.0, 2.0 / 19.0, 2.0 / 21.0,
    2.0 / 23.0, 2.0 / 25.0,
};

/**
 * Degree-13 Estrin evaluation of sum kExpC[i] * r^i. The grouping
 * (and hence the rounding sequence) is part of the deterministic
 * contract.
 */
inline double
expPoly(double r)
{
    const double r2 = r * r;
    const double r4 = r2 * r2;
    const double r8 = r4 * r4;
    const double a = kExpC[1] * r + kExpC[0];
    const double b = kExpC[3] * r + kExpC[2];
    const double c = kExpC[5] * r + kExpC[4];
    const double d = kExpC[7] * r + kExpC[6];
    const double e = kExpC[9] * r + kExpC[8];
    const double f = kExpC[11] * r + kExpC[10];
    const double g = kExpC[13] * r + kExpC[12];
    const double q0 = a + r2 * b;
    const double q1 = c + r2 * d;
    const double q2 = (e + r2 * f) + r4 * g;
    return (q0 + r4 * q1) + r8 * q2;
}

/** Degree-11 Estrin evaluation of sum kLogC[i] * z^i (see expPoly). */
inline double
logPoly(double z)
{
    const double z2 = z * z;
    const double z4 = z2 * z2;
    const double z8 = z4 * z4;
    const double a = kLogC[1] * z + kLogC[0];
    const double b = kLogC[3] * z + kLogC[2];
    const double c = kLogC[5] * z + kLogC[4];
    const double d = kLogC[7] * z + kLogC[6];
    const double e = kLogC[9] * z + kLogC[8];
    const double f = kLogC[11] * z + kLogC[10];
    const double q0 = a + z2 * b;
    const double q1 = c + z2 * d;
    const double q2 = e + z2 * f;
    return (q0 + z4 * q1) + z8 * q2;
}

} // namespace

double
detLog(double x)
{
    const uint64_t bits = std::bit_cast<uint64_t>(x);
    // x = m * 2^e with m in [0.5, 1), then renormalize m into
    // [sqrt(1/2), sqrt(2)) so the atanh series argument stays small.
    double e = static_cast<double>(
        static_cast<int64_t>((bits >> 52) & 0x7FF) - 1022);
    double m = std::bit_cast<double>((bits & 0xFFFFFFFFFFFFFULL) |
                                     0x3FE0000000000000ULL);
    if (m < kSqrtHalf) {
        m = m + m;
        e = e - 1.0;
    }
    const double s = (m - 1.0) / (m + 1.0);
    const double z = s * s;
    const double logm = s * (2.0 + z * logPoly(z));
    return e * kLn2Hi + (e * kLn2Lo + logm);
}

double
detExp(double x)
{
    // Round n = x / ln2 to nearest via the shifter trick, reduce to
    // r = x - n ln2 with |r| <= ln2 / 2, then Taylor and rescale.
    const double t = x * kLog2E + kShifter;
    const double n = t - kShifter;
    const auto ni = static_cast<int32_t>(
        static_cast<uint32_t>(std::bit_cast<uint64_t>(t)));
    double r = x - n * kLn2Hi;
    r = r - n * kLn2Lo;
    const double p = expPoly(r);
    const uint64_t scaleBits = static_cast<uint64_t>(1023 + ni) << 52;
    return p * std::bit_cast<double>(scaleBits);
}

double
detPow(double base, double exponent)
{
    if (base == 0.0)
        return exponent == 0.0 ? 1.0 : 0.0;
    return detExp(exponent * detLog(base));
}

} // namespace lemons::fastmath
