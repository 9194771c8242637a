#include "util/math.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numbers>

#include "util/require.h"

namespace lemons {

namespace {

constexpr double negInf = -std::numeric_limits<double>::infinity();

} // namespace

double
logBinomCoeff(uint64_t n, uint64_t k)
{
    if (k > n)
        return negInf;
    const double nd = static_cast<double>(n);
    const double kd = static_cast<double>(k);
    return std::lgamma(nd + 1.0) - std::lgamma(kd + 1.0) -
           std::lgamma(nd - kd + 1.0);
}

double
logSumExp(double a, double b)
{
    if (a == negInf)
        return b;
    if (b == negInf)
        return a;
    const double hi = std::max(a, b);
    const double lo = std::min(a, b);
    return hi + std::log1p(std::exp(lo - hi));
}

double
logDiffExp(double a, double b)
{
    requireArg(a >= b, "logDiffExp: requires a >= b");
    if (b == negInf)
        return a;
    if (a == b)
        return negInf;
    return a + log1mExp(b - a);
}

double
log1mExp(double x)
{
    requireArg(x <= 0.0, "log1mExp: requires x <= 0");
    if (x == 0.0)
        return negInf;
    // Split at -ln 2 per Maechler (2012) for best accuracy.
    if (x > -0.6931471805599453)
        return std::log(-std::expm1(x));
    return std::log1p(-std::exp(x));
}

double
logBinomialPmf(uint64_t n, uint64_t k, double p)
{
    requireArg(p >= 0.0 && p <= 1.0, "logBinomialPmf: p outside [0, 1]");
    if (k > n)
        return negInf;
    if (p == 0.0)
        return k == 0 ? 0.0 : negInf;
    if (p == 1.0)
        return k == n ? 0.0 : negInf;
    const double kd = static_cast<double>(k);
    const double nd = static_cast<double>(n);
    return logBinomCoeff(n, k) + kd * std::log(p) +
           (nd - kd) * std::log1p(-p);
}

namespace {

/**
 * Continued fraction for the incomplete beta function (Lentz's
 * algorithm, cf. Numerical Recipes "betacf"). Converges quickly when
 * x < (a + 1) / (a + b + 2).
 */
double
betaContinuedFraction(double a, double b, double x)
{
    constexpr int maxIterations = 500;
    constexpr double epsilon = 3e-16;
    constexpr double tiny = 1e-300;

    const double qab = a + b;
    const double qap = a + 1.0;
    const double qam = a - 1.0;
    double c = 1.0;
    double d = 1.0 - qab * x / qap;
    if (std::abs(d) < tiny)
        d = tiny;
    d = 1.0 / d;
    double h = d;
    for (int m = 1; m <= maxIterations; ++m) {
        const double md = static_cast<double>(m);
        const double m2 = 2.0 * md;
        double aa = md * (b - md) * x / ((qam + m2) * (a + m2));
        d = 1.0 + aa * d;
        if (std::abs(d) < tiny)
            d = tiny;
        c = 1.0 + aa / c;
        if (std::abs(c) < tiny)
            c = tiny;
        d = 1.0 / d;
        h *= d * c;
        aa = -(a + md) * (qab + md) * x / ((a + m2) * (qap + m2));
        d = 1.0 + aa * d;
        if (std::abs(d) < tiny)
            d = tiny;
        c = 1.0 + aa / c;
        if (std::abs(c) < tiny)
            c = tiny;
        d = 1.0 / d;
        const double delta = d * c;
        h *= delta;
        if (std::abs(delta - 1.0) < epsilon)
            break;
    }
    return h;
}

double
logBeta(double a, double b)
{
    return std::lgamma(a) + std::lgamma(b) - std::lgamma(a + b);
}

} // namespace

double
logBetaIncRegularized(double a, double b, double x)
{
    requireArg(a > 0.0 && b > 0.0,
               "logBetaIncRegularized: a and b must be positive");
    requireArg(x >= 0.0 && x <= 1.0,
               "logBetaIncRegularized: x outside [0, 1]");
    if (x == 0.0)
        return negInf;
    if (x == 1.0)
        return 0.0;

    // log of the prefactor x^a (1-x)^b / (a B(a, b)).
    const double logFront = a * std::log(x) + b * std::log1p(-x) -
                            std::log(a) - logBeta(a, b);
    if (x < (a + 1.0) / (a + b + 2.0)) {
        const double cf = betaContinuedFraction(a, b, x);
        return logFront + std::log(cf);
    }
    // Use the symmetry I_x(a,b) = 1 - I_{1-x}(b,a) on the convergent
    // side; the complement's prefactor mirrors a <-> b, x <-> 1-x.
    const double logFrontC = b * std::log1p(-x) + a * std::log(x) -
                             std::log(b) - logBeta(a, b);
    const double cfC = betaContinuedFraction(b, a, 1.0 - x);
    const double logComplement = logFrontC + std::log(cfC);
    if (logComplement >= 0.0)
        return negInf; // complement rounded to 1: tail is ~0
    return log1mExp(logComplement);
}

namespace {

/** ln k! - (k ln k - k) for k >= 20 by Stirling's series (truncation
 *  error < 2e-15). */
double
stirlingRemainder(double k)
{
    const double r = 1.0 / (k * k);
    return 0.5 * std::log(2.0 * std::numbers::pi * k) +
           (1.0 / 12.0 - r * (1.0 / 360.0 - r * (1.0 / 1260.0 - r / 1680.0))) /
               k;
}

} // namespace

double
logPoissonPmf(uint64_t k, double lambda)
{
    requireArg(lambda >= 0.0 && std::isfinite(lambda),
               "logPoissonPmf: lambda must be finite and >= 0");
    if (lambda == 0.0)
        return k == 0 ? 0.0 : negInf;
    const double kd = static_cast<double>(k);
    if (k < 20) {
        double factorial = 1.0;
        for (uint64_t i = 2; i <= k; ++i)
            factorial *= static_cast<double>(i);
        return kd * std::log(lambda) - lambda - std::log(factorial);
    }
    // k ln(lambda / k) + k - lambda - remainder: the O(k) halves of
    // k ln lambda - lambda - ln k! cancel before they are rounded.
    return kd * std::log1p((lambda - kd) / kd) - (lambda - kd) -
           stirlingRemainder(kd);
}

double
poissonCdf(uint64_t n, double lambda)
{
    requireArg(lambda >= 0.0 && std::isfinite(lambda),
               "poissonCdf: lambda must be finite and >= 0");
    if (lambda == 0.0)
        return 1.0;
    // Q(a, x) with a = n + 1, x = lambda; the shared prefactor
    // x^a e^-x / Gamma(a) is lambda * P(X == n).
    constexpr double epsilon = std::numeric_limits<double>::epsilon();
    constexpr double tiny = 1e-300;
    const double a = static_cast<double>(n) + 1.0;
    const double x = lambda;
    const double front = x * std::exp(logPoissonPmf(n, x));
    if (x < a + 1.0) {
        // Series P(a, x) = front * sum_i x^i / (a (a+1) ... (a+i)).
        double term = 1.0 / a;
        double sum = term;
        for (double ap = a + 1.0; term > sum * epsilon; ap += 1.0) {
            term *= x / ap;
            sum += term;
        }
        return std::max(0.0, 1.0 - front * sum);
    }
    // Continued fraction for Q(a, x), modified Lentz (cf. Numerical
    // Recipes "gcf"); converges in O(sqrt(a)) steps when x ~ a.
    double b = x + 1.0 - a;
    double c = 1.0 / tiny;
    double d = 1.0 / b;
    double h = d;
    for (double i = 1.0;; i += 1.0) {
        const double an = -i * (i - a);
        b += 2.0;
        d = an * d + b;
        if (std::abs(d) < tiny)
            d = tiny;
        c = b + an / c;
        if (std::abs(c) < tiny)
            c = tiny;
        d = 1.0 / d;
        const double delta = d * c;
        h *= delta;
        if (std::abs(delta - 1.0) < epsilon)
            break;
    }
    return std::min(1.0, front * h);
}

double
logBinomialTailAtLeastBySum(uint64_t n, uint64_t k, double p)
{
    requireArg(p >= 0.0 && p <= 1.0,
               "logBinomialTailAtLeastBySum: p outside [0, 1]");
    if (k == 0)
        return 0.0;
    if (k > n)
        return negInf;
    if (p == 0.0)
        return negInf;
    if (p == 1.0)
        return 0.0;

    // Sum PMF terms from i = k upward using the ratio recurrence
    //   pmf(i+1)/pmf(i) = (n-i)/(i+1) * p/(1-p)
    // in log space. Terms past k eventually decay geometrically, so we
    // can stop once they no longer contribute; when the mean np is far
    // above k the tail is ~1 and the summation still terminates at n.
    const double logRatioBase = std::log(p) - std::log1p(-p);
    double logTerm = logBinomialPmf(n, k, p);
    double logSum = logTerm;
    for (uint64_t i = k; i < n; ++i) {
        const double id = static_cast<double>(i);
        const double nd = static_cast<double>(n);
        logTerm += std::log(nd - id) - std::log(id + 1.0) + logRatioBase;
        const double newSum = logSumExp(logSum, logTerm);
        // Converged: remaining terms cannot move the sum.
        if (newSum == logSum && logTerm < logSum - 745.0)
            break;
        logSum = newSum;
    }
    return std::min(logSum, 0.0);
}

double
logBinomialTailAtLeast(uint64_t n, uint64_t k, double p)
{
    requireArg(p >= 0.0 && p <= 1.0,
               "logBinomialTailAtLeast: p outside [0, 1]");
    if (k == 0)
        return 0.0;
    if (k > n)
        return negInf;
    if (p == 0.0)
        return negInf;
    if (p == 1.0)
        return 0.0;
    // P(X >= k) = I_p(k, n - k + 1); the continued fraction keeps each
    // call O(1) even for structures millions of devices wide.
    return logBetaIncRegularized(static_cast<double>(k),
                                 static_cast<double>(n - k + 1), p);
}

double
binomialTailAtLeast(uint64_t n, uint64_t k, double p)
{
    // When the tail is close to 1, compute the complement instead so
    // that values like 1 - 1e-18 do not round to exactly 1 needlessly:
    // callers that need high-reliability checks use the complement via
    // binomialTailAtMost(n, k-1, p) themselves when required.
    return std::exp(logBinomialTailAtLeast(n, k, p));
}

double
binomialTailAtMost(uint64_t n, uint64_t k, double p)
{
    if (k >= n)
        return 1.0;
    // P(X <= k) = P(n - X >= n - k) with success/failure swapped.
    return binomialTailAtLeast(n, n - k, 1.0 - p);
}

double
logSumExp(const std::vector<double> &xs)
{
    double hi = negInf;
    for (double x : xs)
        hi = std::max(hi, x);
    if (hi == negInf)
        return negInf;
    double sum = 0.0;
    for (double x : xs)
        sum += std::exp(x - hi);
    return hi + std::log(sum);
}

} // namespace lemons
