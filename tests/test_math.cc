/**
 * @file
 * Unit and property tests for the log-space math kernel.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <tuple>

#include "util/math.h"

namespace lemons {
namespace {

constexpr double inf = std::numeric_limits<double>::infinity();

TEST(LogBinomCoeff, SmallExactValues)
{
    EXPECT_NEAR(logBinomCoeff(5, 2), std::log(10.0), 1e-12);
    EXPECT_NEAR(logBinomCoeff(10, 0), 0.0, 1e-12);
    EXPECT_NEAR(logBinomCoeff(10, 10), 0.0, 1e-12);
    EXPECT_NEAR(logBinomCoeff(52, 5), std::log(2598960.0), 1e-9);
}

TEST(LogBinomCoeff, OutOfRangeIsMinusInfinity)
{
    EXPECT_EQ(logBinomCoeff(5, 6), -inf);
}

TEST(LogBinomCoeff, Symmetry)
{
    for (uint64_t n = 1; n <= 40; ++n)
        for (uint64_t k = 0; k <= n; ++k)
            EXPECT_NEAR(logBinomCoeff(n, k), logBinomCoeff(n, n - k), 1e-9);
}

TEST(LogSumExp, BasicIdentity)
{
    EXPECT_NEAR(logSumExp(std::log(2.0), std::log(3.0)), std::log(5.0),
                1e-12);
}

TEST(LogSumExp, HandlesMinusInfinity)
{
    EXPECT_EQ(logSumExp(-inf, -inf), -inf);
    EXPECT_NEAR(logSumExp(-inf, 1.5), 1.5, 1e-12);
    EXPECT_NEAR(logSumExp(1.5, -inf), 1.5, 1e-12);
}

TEST(LogSumExp, VectorForm)
{
    EXPECT_EQ(logSumExp(std::vector<double>{}), -inf);
    EXPECT_NEAR(logSumExp(std::vector<double>{std::log(1.0), std::log(2.0),
                                              std::log(3.0)}),
                std::log(6.0), 1e-12);
}

TEST(LogSumExp, NoOverflowForLargeInputs)
{
    const double big = 700.0;
    EXPECT_NEAR(logSumExp(big, big), big + std::log(2.0), 1e-12);
}

TEST(LogDiffExp, BasicIdentity)
{
    EXPECT_NEAR(logDiffExp(std::log(5.0), std::log(2.0)), std::log(3.0),
                1e-12);
}

TEST(LogDiffExp, EqualArgumentsGiveMinusInfinity)
{
    EXPECT_EQ(logDiffExp(1.0, 1.0), -inf);
}

TEST(LogDiffExp, RejectsReversedArguments)
{
    EXPECT_THROW(logDiffExp(0.0, 1.0), std::invalid_argument);
}

TEST(Log1mExp, MatchesDirectComputation)
{
    // Reference via expm1 (exact for tiny |x|, where log1p(-exp(x))
    // itself loses precision): 1 - e^x = -expm1(x).
    for (double x : {-1e-12, -1e-6, -0.1, -0.5, -1.0, -5.0, -50.0, -700.0})
        EXPECT_NEAR(log1mExp(x), std::log(-std::expm1(x)),
                    1e-12 * std::abs(std::log(-std::expm1(x))) + 1e-13)
            << "x = " << x;
}

TEST(Log1mExp, ZeroGivesMinusInfinity)
{
    EXPECT_EQ(log1mExp(0.0), -inf);
}

TEST(Log1mExp, RejectsPositiveInput)
{
    EXPECT_THROW(log1mExp(0.1), std::invalid_argument);
}

TEST(BinomialPmf, MatchesDirectComputation)
{
    // Bin(4, 0.5): pmf = {1,4,6,4,1}/16.
    EXPECT_NEAR(std::exp(logBinomialPmf(4, 0, 0.5)), 1.0 / 16, 1e-12);
    EXPECT_NEAR(std::exp(logBinomialPmf(4, 2, 0.5)), 6.0 / 16, 1e-12);
    EXPECT_NEAR(std::exp(logBinomialPmf(4, 4, 0.5)), 1.0 / 16, 1e-12);
}

TEST(BinomialPmf, DegenerateP)
{
    EXPECT_EQ(std::exp(logBinomialPmf(5, 0, 0.0)), 1.0);
    EXPECT_EQ(logBinomialPmf(5, 1, 0.0), -inf);
    EXPECT_EQ(std::exp(logBinomialPmf(5, 5, 1.0)), 1.0);
    EXPECT_EQ(logBinomialPmf(5, 4, 1.0), -inf);
}

TEST(BinomialTail, EdgeCases)
{
    EXPECT_EQ(binomialTailAtLeast(10, 0, 0.3), 1.0);
    EXPECT_EQ(binomialTailAtLeast(10, 11, 0.3), 0.0);
    EXPECT_EQ(binomialTailAtLeast(10, 1, 0.0), 0.0);
    EXPECT_EQ(binomialTailAtLeast(10, 10, 1.0), 1.0);
}

TEST(BinomialTail, MatchesBruteForceSmall)
{
    // P(X >= k) by direct summation for Bin(12, 0.37).
    const uint64_t n = 12;
    const double p = 0.37;
    for (uint64_t k = 0; k <= n; ++k) {
        double direct = 0.0;
        for (uint64_t i = k; i <= n; ++i)
            direct += std::exp(logBinomialPmf(n, i, p));
        EXPECT_NEAR(binomialTailAtLeast(n, k, p), direct, 1e-12)
            << "k = " << k;
    }
}

TEST(BinomialTail, ComplementIdentity)
{
    const uint64_t n = 30;
    const double p = 0.21;
    for (uint64_t k = 1; k <= n; ++k) {
        const double atLeast = binomialTailAtLeast(n, k, p);
        const double atMost = binomialTailAtMost(n, k - 1, p);
        EXPECT_NEAR(atLeast + atMost, 1.0, 1e-10) << "k = " << k;
    }
}

/** Cross-validate the incomplete-beta fast path against summation. */
class BinomialTailCrossCheck
    : public ::testing::TestWithParam<std::tuple<uint64_t, double>>
{
};

TEST_P(BinomialTailCrossCheck, FastPathMatchesSummation)
{
    const auto [n, p] = GetParam();
    for (uint64_t k = 1; k <= n; k += std::max<uint64_t>(1, n / 17)) {
        const double viaBeta = logBinomialTailAtLeast(n, k, p);
        const double viaSum = logBinomialTailAtLeastBySum(n, k, p);
        if (viaSum < -600.0) {
            EXPECT_LT(viaBeta, -500.0) << "n=" << n << " k=" << k;
        } else {
            EXPECT_NEAR(viaBeta, viaSum, 1e-7 + 1e-7 * std::abs(viaSum))
                << "n=" << n << " k=" << k;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    GridSweep, BinomialTailCrossCheck,
    ::testing::Combine(::testing::Values<uint64_t>(2, 5, 17, 64, 141, 500,
                                                   2000),
                       ::testing::Values(1e-6, 1e-3, 0.05, 0.1, 0.176, 0.5,
                                         0.9, 0.999)));

TEST(BetaInc, KnownValues)
{
    // I_x(1, 1) = x (uniform CDF).
    for (double x : {0.1, 0.25, 0.5, 0.9})
        EXPECT_NEAR(std::exp(logBetaIncRegularized(1, 1, x)), x, 1e-12);
    // I_x(1, b) = 1 - (1-x)^b.
    EXPECT_NEAR(std::exp(logBetaIncRegularized(1, 3, 0.2)),
                1.0 - std::pow(0.8, 3), 1e-12);
}

TEST(BetaInc, Extremes)
{
    EXPECT_EQ(logBetaIncRegularized(2, 3, 0.0), -inf);
    EXPECT_EQ(logBetaIncRegularized(2, 3, 1.0), 0.0);
}

TEST(BetaInc, RejectsBadArguments)
{
    EXPECT_THROW(logBetaIncRegularized(0, 1, 0.5), std::invalid_argument);
    EXPECT_THROW(logBetaIncRegularized(1, 0, 0.5), std::invalid_argument);
    EXPECT_THROW(logBetaIncRegularized(1, 1, -0.1), std::invalid_argument);
    EXPECT_THROW(logBetaIncRegularized(1, 1, 1.1), std::invalid_argument);
}

/** Reference P(X <= n), X ~ Poisson(lambda), by summing the textbook
 *  log-pmf k ln lambda - lambda - lgamma(k + 1) term by term. */
double
poissonCdfBySum(uint64_t n, double lambda)
{
    double sum = 0.0;
    for (uint64_t k = 0; k <= n; ++k) {
        const double kd = static_cast<double>(k);
        sum += std::exp(kd * std::log(lambda) - lambda -
                        std::lgamma(kd + 1.0));
    }
    return sum;
}

TEST(PoissonCdf, MatchesLogPmfSummation)
{
    // Both sides of the mode (series and continued-fraction branches)
    // at the sampler's small means and the paper's horizon demands.
    // The summed oracle carries lgamma's rounding of an O(lambda ln
    // lambda) exponent, about 1e-10 relative at lambda = 219,000.
    for (const double lambda : {5.0, 50.0, 91250.0, 219000.0}) {
        const double sd = std::sqrt(lambda);
        for (const double z : {-3.0, -1.0, 0.0, 1.0, 3.0}) {
            const auto n =
                static_cast<uint64_t>(std::max(0.0, lambda + z * sd));
            const double want = poissonCdfBySum(n, lambda);
            EXPECT_NEAR(poissonCdf(n, lambda), want, 1e-9 * want)
                << "lambda = " << lambda << ", n = " << n;
        }
    }
}

TEST(PoissonCdf, KnownValuesAndEdges)
{
    // Q(91251, 91250) to 16 digits (40-digit reference arithmetic).
    EXPECT_NEAR(poissonCdf(91250, 91250.0), 0.5008804440483703, 1e-14);
    EXPECT_NEAR(poissonCdf(0, 2.0), std::exp(-2.0), 1e-16);
    EXPECT_EQ(poissonCdf(0, 0.0), 1.0);
    EXPECT_EQ(poissonCdf(10, 1e6), 0.0);
    EXPECT_EQ(poissonCdf(2'000'000, 1e6), 1.0);
    EXPECT_THROW(poissonCdf(1, -1.0), std::invalid_argument);
    EXPECT_THROW(poissonCdf(1, std::nan("")), std::invalid_argument);
    EXPECT_THROW(poissonCdf(1, inf), std::invalid_argument);
}

TEST(PoissonPmf, MatchesDirectComputation)
{
    // Across the k = 20 switch to Stirling's series.
    for (const uint64_t k : {0u, 1u, 7u, 19u, 20u, 21u, 50u, 1000u}) {
        const double kd = static_cast<double>(k);
        const double lambda = kd + 3.5;
        EXPECT_NEAR(logPoissonPmf(k, lambda),
                    kd * std::log(lambda) - lambda - std::lgamma(kd + 1.0),
                    1e-12)
            << "k = " << k;
    }
    EXPECT_EQ(logPoissonPmf(0, 0.0), 0.0);
    EXPECT_EQ(logPoissonPmf(3, 0.0), -inf);
}

TEST(BinomialTail, HugeNStaysFinite)
{
    // 150 million devices, tiny p: P(X >= 1) = 1 - (1-p)^n.
    const uint64_t n = 150'000'000;
    const double p = 2.93e-8;
    const double expected = -std::expm1(static_cast<double>(n) *
                                        std::log1p(-p));
    EXPECT_NEAR(binomialTailAtLeast(n, 1, p), expected, 1e-7);
}

TEST(BinomialTail, DeepTailLogValue)
{
    // P(X >= 30) for Bin(60, 0.01) is astronomically small but its log
    // must be finite and ordered.
    const double log30 = logBinomialTailAtLeast(60, 30, 0.01);
    const double log40 = logBinomialTailAtLeast(60, 40, 0.01);
    EXPECT_TRUE(std::isfinite(log30));
    EXPECT_TRUE(std::isfinite(log40));
    EXPECT_GT(log30, log40);
    EXPECT_LT(log30, std::log(1e-30));
}

/** Property sweep: binomial tails are monotone where reliability
 *  arguments demand it. */
class BinomialTailMonotonicity
    : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(BinomialTailMonotonicity, DecreasesInKIncreasesInP)
{
    const uint64_t n = GetParam();
    for (double p : {0.05, 0.2, 0.5, 0.8}) {
        double prev = 1.0;
        for (uint64_t k = 0; k <= n; ++k) {
            const double tail = binomialTailAtLeast(n, k, p);
            EXPECT_LE(tail, prev + 1e-12)
                << "n=" << n << " k=" << k << " p=" << p;
            prev = tail;
        }
    }
    for (uint64_t k = 1; k <= n; k += std::max<uint64_t>(1, n / 7)) {
        double prev = 0.0;
        for (double p = 0.05; p < 1.0; p += 0.05) {
            const double tail = binomialTailAtLeast(n, k, p);
            EXPECT_GE(tail, prev - 1e-12)
                << "n=" << n << " k=" << k << " p=" << p;
            prev = tail;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Widths, BinomialTailMonotonicity,
                         ::testing::Values<uint64_t>(1, 2, 7, 40, 141,
                                                     1000));

TEST(CeilDiv, Basics)
{
    EXPECT_EQ(ceilDiv(10, 5), 2u);
    EXPECT_EQ(ceilDiv(11, 5), 3u);
    EXPECT_EQ(ceilDiv(1, 1), 1u);
    EXPECT_EQ(ceilDiv(91250, 15), 6084u);
}

} // namespace
} // namespace lemons
