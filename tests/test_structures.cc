/**
 * @file
 * Tests for the architectural structure models against the paper's
 * Equations 5, 6, 8 and the Figure 3 techniques, including analytic vs
 * Monte Carlo cross-validation.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "arch/bank_law.h"
#include "arch/structures.h"
#include "arch/structures_sim.h"
#include "fault/fault_plan.h"
#include "fault/faulty_device.h"
#include "obs/metrics.h"
#include "sim/monte_carlo.h"
#include "two_sample.h"
#include "util/math.h"
#include "wearout/mixture.h"

namespace lemons::arch {
namespace {

using wearout::DeviceFactory;
using wearout::ProcessVariation;
using wearout::Weibull;

TEST(SeriesChain, MatchesEquationFive)
{
    const Weibull device(10.0, 8.0);
    const SeriesChain chain(device, 5);
    for (double x : {2.0, 5.0, 8.0, 10.0})
        EXPECT_NEAR(chain.reliabilityAt(x),
                    std::pow(device.reliability(x), 5.0), 1e-12);
}

TEST(SeriesChain, EquivalentDeviceHasScaledAlpha)
{
    const Weibull device(10.0, 8.0);
    const SeriesChain chain(device, 32);
    const Weibull equivalent = chain.equivalentDevice();
    EXPECT_NEAR(equivalent.alpha(), 10.0 / std::pow(32.0, 1.0 / 8.0),
                1e-12);
    for (double x : {3.0, 6.0, 9.0})
        EXPECT_NEAR(chain.reliabilityAt(x), equivalent.reliability(x),
                    1e-12);
}

TEST(SeriesChain, LengthExplosionMatchesPaperArgument)
{
    // Section 4.1.2: scaling alpha down by y needs n = y^beta devices.
    // At beta = 12, halving alpha costs 4096 devices in series.
    EXPECT_NEAR(SeriesChain::lengthForScaleFactor(2.0, 12.0), 4096.0,
                1e-9);
    // The paper's example: y at beta = 12 grows as y^12.
    EXPECT_NEAR(SeriesChain::lengthForScaleFactor(3.0, 12.0),
                std::pow(3.0, 12.0), 1e-6);
}

TEST(SeriesChain, SimulationMatchesAnalytics)
{
    const DeviceFactory factory({10.0, 8.0}, ProcessVariation::none());
    const SeriesChain chain(factory.nominalModel(), 4);
    const sim::MonteCarlo engine(11, 40000);
    // P(chain survives >= 8 whole accesses) == R(8).
    const auto ci = engine.estimateProbability([&](Rng &rng) {
        return sampleSeriesSurvivedAccesses(factory, 4, rng) >= 8;
    });
    const double analytic = chain.reliabilityAt(8.0);
    EXPECT_GT(analytic, ci.low - 0.01);
    EXPECT_LT(analytic, ci.high + 0.01);
}

TEST(ParallelStructure, RejectsBadParameters)
{
    const Weibull device(5.0, 2.0);
    EXPECT_THROW(ParallelStructure(device, 0), std::invalid_argument);
    EXPECT_THROW(ParallelStructure(device, 4, 0), std::invalid_argument);
    EXPECT_THROW(ParallelStructure(device, 4, 5), std::invalid_argument);
}

TEST(ParallelStructure, SingleDeviceMatchesWeibull)
{
    const Weibull device(9.3, 12.0);
    const ParallelStructure structure(device, 1);
    for (double x : {5.0, 9.0, 11.0})
        EXPECT_NEAR(structure.reliabilityAt(x), device.reliability(x),
                    1e-12);
}

TEST(ParallelStructure, MatchesEquationSix)
{
    const Weibull device(9.3, 12.0);
    for (size_t n : {2u, 20u, 40u, 60u}) {
        const ParallelStructure structure(device, n);
        for (double x : {8.0, 10.0, 11.0, 12.0}) {
            const double r = device.reliability(x);
            const double expected =
                1.0 - std::pow(1.0 - r, static_cast<double>(n));
            EXPECT_NEAR(structure.reliabilityAt(x), expected, 1e-10)
                << "n=" << n << " x=" << x;
        }
    }
}

TEST(ParallelStructure, MatchesEquationEight)
{
    const Weibull device(20.0, 12.0);
    const size_t n = 60;
    for (size_t k : {10u, 20u, 30u}) {
        const ParallelStructure structure(device, n, k);
        for (double x : {16.0, 20.0, 22.0}) {
            const double r = device.reliability(x);
            // Direct Eq. 8 summation.
            double expected = 0.0;
            for (size_t i = k; i <= n; ++i)
                expected += std::exp(logBinomialPmf(n, i, r));
            EXPECT_NEAR(structure.reliabilityAt(x), expected, 1e-9)
                << "k=" << k << " x=" << x;
        }
    }
}

TEST(ParallelStructure, Figure3bParallelDevicesPushThreshold)
{
    // Fig 3b: alpha = 9.3, beta = 12; 40 parallel devices give ~98 %
    // reliability at the 10th access but only ~2.2 % at the 11th.
    const Weibull device(9.3, 12.0);
    const ParallelStructure structure(device, 40);
    EXPECT_NEAR(structure.reliabilityAt(10.0), 0.98, 0.015);
    EXPECT_NEAR(structure.reliabilityAt(11.0), 0.022, 0.01);
}

TEST(ParallelStructure, Figure3cEncodingAcceleratesDegradation)
{
    // Fig 3c: 60 devices at alpha = 20, beta = 12; the k = 30 curve
    // drops from >= 90 % to ~2 % within one access around the 20th
    // (under exact Eq. 8 the cliff sits at access 19 -> 20; the paper
    // narrates it as 20 -> 21 — a one-access reading difference noted
    // in EXPERIMENTS.md). k = 1 degrades later and slower.
    const Weibull device(20.0, 12.0);
    const ParallelStructure k30(device, 60, 30);
    EXPECT_NEAR(k30.reliabilityAt(19.0), 0.92, 0.04);
    EXPECT_NEAR(k30.reliabilityAt(20.0), 0.02, 0.02);

    const ParallelStructure k1(device, 60, 1);
    EXPECT_GT(k1.reliabilityAt(21.0), 0.9); // still alive at 21
}

TEST(ParallelStructure, DegradationWindowShrinksWithK)
{
    // Fig 3c's headline: the k = 30 window is about half the k = 1
    // window (paper: ~1 access vs ~2).
    const Weibull device(20.0, 12.0);
    const uint64_t window1 = ParallelStructure(device, 60, 1)
                                 .degradationWindow(0.9, 0.1);
    const uint64_t window30 = ParallelStructure(device, 60, 30)
                                  .degradationWindow(0.9, 0.1);
    EXPECT_LT(window30, window1);
    EXPECT_EQ(window30, 1u);
}

TEST(ParallelStructure, NearTotalKStretchesWindowAgain)
{
    // "when k is close to the total number of parallel devices...the
    // degradation window is stretched out again" — reliability starts
    // degrading much earlier at k = 60.
    const Weibull device(20.0, 12.0);
    const ParallelStructure k30(device, 60, 30);
    const ParallelStructure k60(device, 60, 60);
    EXPECT_LT(k60.reliabilityAt(17.0), k30.reliabilityAt(17.0));
}

TEST(ParallelStructure, LogFailureComplementsLogReliability)
{
    const Weibull device(14.0, 8.0);
    const ParallelStructure structure(device, 141, 15);
    for (double x : {13.0, 15.0, 16.0}) {
        const double r = std::exp(structure.logReliabilityAt(x));
        const double f = std::exp(structure.logFailureAt(x));
        EXPECT_NEAR(r + f, 1.0, 1e-9) << "x = " << x;
    }
}

TEST(ParallelStructure, SimulationMatchesAnalyticsKOne)
{
    const DeviceFactory factory({9.3, 12.0}, ProcessVariation::none());
    const ParallelStructure structure(factory.nominalModel(), 40);
    const sim::MonteCarlo engine(21, 40000);
    for (uint64_t t : {10u, 11u}) {
        const auto ci = engine.estimateProbability([&](Rng &rng) {
            return sampleParallelSurvivedAccesses(factory, 40, 1, rng) >= t;
        });
        const double analytic =
            structure.reliabilityAt(static_cast<double>(t));
        EXPECT_GT(analytic, ci.low - 0.01) << "t = " << t;
        EXPECT_LT(analytic, ci.high + 0.01) << "t = " << t;
    }
}

TEST(ParallelStructure, SimulationMatchesAnalyticsKOfN)
{
    const DeviceFactory factory({20.0, 12.0}, ProcessVariation::none());
    const ParallelStructure structure(factory.nominalModel(), 60, 30);
    const sim::MonteCarlo engine(23, 40000);
    for (uint64_t t : {20u, 21u}) {
        const auto ci = engine.estimateProbability([&](Rng &rng) {
            return sampleParallelSurvivedAccesses(factory, 60, 30, rng) >=
                   t;
        });
        const double analytic =
            structure.reliabilityAt(static_cast<double>(t));
        EXPECT_GT(analytic, ci.low - 0.01) << "t = " << t;
        EXPECT_LT(analytic, ci.high + 0.01) << "t = " << t;
    }
}

TEST(StructuresSim, SerialCopiesSumPerCopyLifetimes)
{
    const DeviceFactory factory({10.0, 8.0}, ProcessVariation::none());
    const sim::MonteCarlo engine(31, 5000);
    const auto stats = engine
                           .run([&](Rng &rng) {
                               return static_cast<double>(
                                   sampleSerialCopiesTotalAccesses(
                                       factory, 10, 1, 8, rng));
                           })
                           .stats;
    const auto perCopy = engine
                             .run([&](Rng &rng) {
                                 return static_cast<double>(
                                     sampleParallelSurvivedAccesses(
                                         factory, 10, 1, rng));
                             })
                             .stats;
    EXPECT_NEAR(stats.mean(), 8.0 * perCopy.mean(),
                0.05 * stats.mean());
}

TEST(StructuresSim, RejectsBadArguments)
{
    const DeviceFactory factory({10.0, 8.0}, ProcessVariation::none());
    Rng rng(1);
    EXPECT_THROW(sampleParallelSurvivedAccesses(factory, 0, 1, rng),
                 std::invalid_argument);
    EXPECT_THROW(sampleParallelSurvivedAccesses(factory, 4, 5, rng),
                 std::invalid_argument);
    EXPECT_THROW(sampleSeriesSurvivedAccesses(factory, 0, rng),
                 std::invalid_argument);
    EXPECT_THROW(sampleSerialCopiesTotalAccesses(factory, 2, 1, 0, rng),
                 std::invalid_argument);
}

TEST(StructuresSim, GenericSamplerMatchesFactoryKernel)
{
    // Same draws, same order statistic: the generic path (running max
    // for k = 1, a reused buffer otherwise) against the engine kernel.
    const DeviceFactory factory({10.0, 8.0}, ProcessVariation::none());
    const LifetimeSampler sampler = [&factory](Rng &rng) {
        return factory.sampleLifetime(rng);
    };
    for (size_t k : {size_t{1}, size_t{9}, size_t{40}}) {
        for (uint64_t trial = 0; trial < 50; ++trial) {
            Rng genericRng = Rng::trialStream(5, trial);
            Rng kernelRng = Rng::trialStream(5, trial);
            EXPECT_EQ(sampleParallelSurvivedAccesses(sampler, 40, k,
                                                     genericRng),
                      sampleParallelSurvivedAccesses(factory, 40, k,
                                                     kernelRng))
                << "k " << k << " trial " << trial;
            EXPECT_EQ(genericRng.next(), kernelRng.next());
        }
    }
}

TEST(StructuresSim, NanLifetimeIsRejected)
{
    // NaN has no order, so no order statistic exists: the generic path
    // must throw rather than select among unordered values.
    for (size_t k : {size_t{1}, size_t{3}, size_t{6}}) {
        int calls = 0;
        const LifetimeSampler sampler = [&calls](Rng &rng) {
            return ++calls == 3 ? std::numeric_limits<double>::quiet_NaN()
                                : 10.0 * rng.nextDoubleOpenLow();
        };
        Rng rng(4);
        EXPECT_THROW(sampleParallelSurvivedAccesses(sampler, 6, k, rng),
                     std::invalid_argument)
            << "k " << k;
    }
}

TEST(StructuresSim, NanLifetimeFailsItsMonteCarloTrial)
{
    const LifetimeSampler sampler = [](Rng &rng) {
        const double u = rng.nextDoubleOpenLow();
        return u < 0.01 ? std::numeric_limits<double>::quiet_NaN()
                        : 10.0 * u;
    };
    const sim::MonteCarlo engine(9, 200);
    const auto report = engine.run(
        [&](Rng &rng) {
            return static_cast<double>(
                sampleParallelSurvivedAccesses(sampler, 5, 2, rng));
        },
        {.threads = 2, .chunkSize = 16});
    // 1 - 0.99^5 of the trials meet a NaN device: a few, not all.
    EXPECT_FALSE(report.failedTrials.empty());
    EXPECT_LT(report.failedTrials.size(), 50u);
    EXPECT_EQ(report.firstError,
              "sampleParallelSurvivedAccesses: sampler returned NaN");
    EXPECT_EQ(report.cleanTrials() + report.failedTrials.size(), 200u);
    EXPECT_TRUE(report.nonFiniteTrials.empty());
}

/**
 * Property sweep: analytic k-of-n reliability is monotone in each
 * argument the way the architecture relies on.
 */
class KofNMonotonicity
    : public ::testing::TestWithParam<std::tuple<double, double>>
{
};

TEST_P(KofNMonotonicity, ReliabilityTrends)
{
    const auto [alpha, beta] = GetParam();
    const Weibull device(alpha, beta);

    // More devices (same k): more reliable at every access.
    for (double x : {alpha * 0.5, alpha, alpha * 1.2}) {
        const double narrow = ParallelStructure(device, 20, 5)
                                  .reliabilityAt(x);
        const double wide = ParallelStructure(device, 40, 5)
                                .reliabilityAt(x);
        EXPECT_GE(wide + 1e-12, narrow) << "x = " << x;
    }
    // Higher threshold (same n): less reliable at every access.
    for (double x : {alpha * 0.5, alpha, alpha * 1.2}) {
        const double lowK = ParallelStructure(device, 40, 5)
                                .reliabilityAt(x);
        const double highK = ParallelStructure(device, 40, 20)
                                 .reliabilityAt(x);
        EXPECT_LE(highK, lowK + 1e-12) << "x = " << x;
    }
    // Reliability never increases with access count.
    const ParallelStructure structure(device, 30, 6);
    double prev = 1.0;
    for (double x = 1.0; x < 3.0 * alpha; x += 1.0) {
        const double r = structure.reliabilityAt(x);
        EXPECT_LE(r, prev + 1e-12);
        prev = r;
    }
}

INSTANTIATE_TEST_SUITE_P(
    DeviceGrid, KofNMonotonicity,
    ::testing::Combine(::testing::Values(10.0, 14.0, 20.0),
                       ::testing::Values(4.0, 8.0, 12.0, 16.0)));

/**
 * Two-sample homogeneity of @p x and @p y (values compared exactly,
 * +inf for an unbounded bank): Pearson chi-square over their values,
 * adjacent values pooled until both expected counts reach 5.
 */
struct ChiSquare
{
    double stat = 0.0;
    size_t degreesOfFreedom = 0;
};

ChiSquare
twoSampleChiSquare(const std::vector<double> &x, const std::vector<double> &y)
{
    std::map<double, std::pair<double, double>> counts;
    for (double v : x)
        counts[v].first += 1.0;
    for (double v : y)
        counts[v].second += 1.0;
    const double nx = static_cast<double>(x.size());
    const double ny = static_cast<double>(y.size());
    const double total = nx + ny;
    std::vector<std::pair<double, double>> bins;
    std::pair<double, double> open{0.0, 0.0};
    for (const auto &[value, count] : counts) {
        open.first += count.first;
        open.second += count.second;
        const double both = open.first + open.second;
        if (std::min(both * nx, both * ny) / total >= 5.0) {
            bins.push_back(open);
            open = {0.0, 0.0};
        }
    }
    if (open.first + open.second > 0.0) {
        if (bins.empty()) {
            bins.push_back(open);
        } else {
            bins.back().first += open.first;
            bins.back().second += open.second;
        }
    }
    ChiSquare result;
    for (const auto &[a, b] : bins) {
        const double both = a + b;
        const double ea = both * nx / total;
        const double eb = both * ny / total;
        result.stat += (a - ea) * (a - ea) / ea + (b - eb) * (b - eb) / eb;
    }
    result.degreesOfFreedom = bins.size() - 1;
    return result;
}

/** 99.9 % point of chi-square with @p df > 0 (Wilson-Hilferty). */
double
chiSquareCritical(size_t df)
{
    const double d = static_cast<double>(df);
    const double spread = 2.0 / (9.0 * d);
    return d * std::pow(1.0 - spread + 3.0902 * std::sqrt(spread), 3.0);
}

/** A sampled bank outcome, +inf when the bank never dies. */
double
asSample(uint64_t accesses)
{
    return accesses == BankLaw::kUnbounded
               ? std::numeric_limits<double>::infinity()
               : static_cast<double>(accesses);
}

/**
 * The law's draws against the per-device loop's: chi-square and
 * two-sample KS, both at the 99.9 % level.
 */
void
expectSameLaw(const BankLaw &law, const std::function<double(Rng &)> &loop,
              uint64_t seed, const std::string &where)
{
    constexpr size_t kLoopBanks = 1000;
    constexpr size_t kLawBanks = 4000;
    constexpr double kKs999 = 1.9495; // c(0.001)
    std::vector<double> oracle;
    for (size_t i = 0; i < kLoopBanks; ++i) {
        Rng rng = Rng::trialStream(seed, i);
        oracle.push_back(loop(rng));
    }
    std::vector<double> drawn;
    for (size_t i = 0; i < kLawBanks; ++i) {
        Rng rng = Rng::trialStream(seed + 1, i);
        drawn.push_back(asSample(law.accessesFor(rng.nextDoubleOpenLow())));
    }
    const ChiSquare chi = twoSampleChiSquare(drawn, oracle);
    // One pooled bin (a bank that always serves the same count) has
    // no degree of freedom and a statistic of 0.
    if (chi.degreesOfFreedom > 0) {
        EXPECT_LT(chi.stat, chiSquareCritical(chi.degreesOfFreedom))
            << where << ": chi-square with " << chi.degreesOfFreedom
            << " df";
    }
    const double nx = static_cast<double>(kLawBanks);
    const double ny = static_cast<double>(kLoopBanks);
    EXPECT_LT(testutil::ksStatistic(drawn, oracle),
              kKs999 * std::sqrt((nx + ny) / (nx * ny)))
        << where << ": two-sample KS";
}

/**
 * The oracle grids use a wide device, Weibull(100, 4), so that banks
 * spread over tens of access counts; at the paper's beta = 12 most of
 * these shapes serve one count almost surely.
 */
TEST(BankLaw, FaultPlansMatchThePerDeviceLoop)
{
    const DeviceFactory base({100.0, 4.0}, ProcessVariation::none());
    const std::pair<size_t, size_t> shapes[] = {
        {1000, 100}, {175, 18}, {40, 1}, {1000, 900}};
    uint64_t seed = 1;
    for (const auto &[n, k] : shapes) {
        for (double infant : {0.0, 0.02, 0.4, 1.0}) {
            for (double eps : {0.0, 1e-3, 1e-2}) {
                fault::FaultPlan plan;
                plan.stuckClosedRate = eps;
                plan.infantFraction = infant;
                const fault::FaultyDeviceFactory factory(base, plan);
                const std::optional<BankLaw> law = bankLawOf(factory, n, k);
                ASSERT_TRUE(law.has_value());
                const std::string where =
                    std::to_string(k) + "-of-" + std::to_string(n) +
                    " infant " + std::to_string(infant) + " eps " +
                    std::to_string(eps);
                expectSameLaw(
                    *law,
                    [&, n = n, k = k](Rng &rng) {
                        const FaultySurvival survival =
                            sampleFaultyParallelSurvivedAccesses(factory, n,
                                                                 k, rng);
                        return survival.unbounded
                                   ? std::numeric_limits<double>::infinity()
                                   : static_cast<double>(survival.accesses);
                    },
                    seed, where);
                seed += 2;
            }
        }
    }
}

TEST(BankLaw, BathtubMixturesMatchThePerDeviceLoop)
{
    uint64_t seed = 101;
    for (const auto &[n, k] :
         {std::pair<size_t, size_t>{175, 18}, {40, 1}}) {
        for (double infant : {0.05, 0.4}) {
            const wearout::BathtubModel mix =
                wearout::BathtubModel::withInfantMortality(
                    Weibull(100.0, 4.0), infant);
            const std::optional<BankLaw> law = BankLaw::tabulate(
                [&mix](double j) {
                    return DeviceSurvival{mix.reliability(j), mix.cdf(j)};
                },
                n, k);
            ASSERT_TRUE(law.has_value());
            const LifetimeSampler sampler = [&mix](Rng &rng) {
                return mix.sample(rng);
            };
            expectSameLaw(
                *law,
                [&, n = n, k = k](Rng &rng) {
                    return static_cast<double>(
                        sampleParallelSurvivedAccesses(sampler, n, k, rng));
                },
                seed, "bathtub " + std::to_string(infant));
            seed += 2;
        }
    }
}

/** S(j) = P(Bin(n, R(j)) >= k) of a nominal Weibull bank, in closed form
 *  for k = 1 and k = n. */
TEST(BankLaw, ExtremeThresholdsMatchClosedForms)
{
    const Weibull device(10.0, 12.0);
    const DeviceFactory factory({10.0, 12.0}, ProcessVariation::none());
    constexpr size_t n = 40;
    const std::optional<BankLaw> any = bankLawOf(factory, n, 1);
    const std::optional<BankLaw> all = bankLawOf(factory, n, n);
    ASSERT_TRUE(any && all);
    ASSERT_GT(any->entries(), 1u);
    ASSERT_GT(all->entries(), 1u);
    for (uint64_t j = any->firstEntry();
         j < any->firstEntry() + any->entries(); ++j) {
        const double x = static_cast<double>(j);
        // P(at least one survives) = 1 - F^n.
        const double want =
            -std::expm1(static_cast<double>(n) * std::log(device.cdf(x)));
        EXPECT_NEAR(any->survival(j), want, 1e-13 + 1e-12 * want)
            << "k = 1, j = " << j;
    }
    for (uint64_t j = all->firstEntry();
         j < all->firstEntry() + all->entries(); ++j) {
        const double x = static_cast<double>(j);
        // P(all survive) = R^n.
        const double want =
            std::exp(static_cast<double>(n) * device.logReliability(x));
        EXPECT_NEAR(all->survival(j), want, 1e-13 + 1e-12 * want)
            << "k = n, j = " << j;
    }
    // Below the table the bank certainly survives, past it it is dead.
    EXPECT_EQ(any->survival(any->firstEntry() - 1), 1.0);
    EXPECT_EQ(any->survival(any->firstEntry() + any->entries()), 0.0);
    EXPECT_EQ(any->unboundedMass(), 0.0);
}

TEST(BankLaw, OneValueSupports)
{
    // beta = 2000 puts every lifetime in a hair-thin window. At
    // alpha = 10.5 all devices live past 10 and none reaches 11, so the
    // table is empty and every bank serves exactly 10 accesses.
    const DeviceFactory thin({10.5, 2000.0}, ProcessVariation::none());
    const std::optional<BankLaw> fixed = bankLawOf(thin, 175, 18);
    ASSERT_TRUE(fixed.has_value());
    EXPECT_EQ(fixed->entries(), 0u);
    EXPECT_EQ(fixed->firstEntry(), 11u);
    Rng rng(3);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(fixed->accessesFor(rng.nextDoubleOpenLow()), 10u);

    // At alpha = 11 a device reaches 11 with probability 1/e: one table
    // entry, and a single device's bank is 11 that often.
    const DeviceFactory edge({11.0, 2000.0}, ProcessVariation::none());
    const std::optional<BankLaw> single = bankLawOf(edge, 1, 1);
    ASSERT_TRUE(single.has_value());
    EXPECT_EQ(single->entries(), 1u);
    EXPECT_EQ(single->firstEntry(), 11u);
    EXPECT_NEAR(single->survival(11), std::exp(-1.0), 1e-12);
    EXPECT_EQ(single->accessesFor(std::exp(-1.0) - 1e-9), 11u);
    EXPECT_EQ(single->accessesFor(std::exp(-1.0) + 1e-9), 10u);
}

TEST(BankLaw, UnboundedMassIsTheStuckTail)
{
    const DeviceFactory base({10.0, 12.0}, ProcessVariation::none());
    // 1-of-40 at eps = 1e-2: a third of the banks hold a stuck device.
    const fault::FaultyDeviceFactory some(base,
                                          fault::FaultPlan::stuckClosed(1e-2));
    const std::optional<BankLaw> law = bankLawOf(some, 40, 1);
    ASSERT_TRUE(law.has_value());
    const double stuckTail = -std::expm1(40.0 * std::log1p(-1e-2));
    EXPECT_NEAR(law->unboundedMass(), stuckTail, 1e-13 * stuckTail);
    EXPECT_EQ(law->accessesFor(law->unboundedMass()), BankLaw::kUnbounded);
    EXPECT_NE(law->accessesFor(std::nextafter(law->unboundedMass(), 1.0)),
              BankLaw::kUnbounded);

    // The plain 1-of-34311 bank at eps = 1e-2 holds a stuck device with
    // probability 1 - e^-345, which rounds to 1: every copy is stuck.
    const std::optional<BankLaw> certain = bankLawOf(some, 34311, 1);
    ASSERT_TRUE(certain.has_value());
    EXPECT_EQ(certain->unboundedMass(), 1.0);
    EXPECT_EQ(certain->entries(), 0u);
    Rng rng(5);
    const FaultyArchitectureOutcome outcome =
        sampleSerialCopiesOutcome(*certain, 9, rng);
    EXPECT_TRUE(outcome.unbounded);
    EXPECT_EQ(outcome.stuckDominatedCopies, 1u);
    EXPECT_EQ(outcome.totalAccesses, 0u);
}

TEST(BankLaw, WideSupportFallsBackToThePerDeviceLoop)
{
    // alpha = 1e9, beta = 1: the 100-of-1000 support spans about 1e8
    // accesses, far past the entry cap. Both searches stop early.
    const DeviceFactory wide({1e9, 1.0}, ProcessVariation::none());
    EXPECT_FALSE(bankLawOf(wide, 1000, 100).has_value());
    const fault::FaultyDeviceFactory faulty(
        wide, fault::FaultPlan::stuckClosed(1e-3));
    EXPECT_FALSE(bankLawOf(faulty, 1000, 100).has_value());
    // The serial-copies sampler then takes the per-device loop.
    Rng rng(9);
    const FaultyArchitectureOutcome outcome =
        sampleFaultySerialCopiesOutcome(faulty, 1000, 100, 2, rng);
    EXPECT_FALSE(outcome.unbounded);
    EXPECT_GT(outcome.totalAccesses, 100'000'000u);
    // Drift and lot variation have no tabulated law either.
    fault::FaultPlan drift;
    drift.alphaDriftSigma = 0.05;
    EXPECT_FALSE(bankLawOf(fault::FaultyDeviceFactory(
                               DeviceFactory({10.0, 12.0},
                                             ProcessVariation::none()),
                               drift),
                           40, 4)
                     .has_value());
    EXPECT_FALSE(
        bankLawOf(DeviceFactory({10.0, 12.0}, {0.05, 0.0}), 40, 4)
            .has_value());
}

TEST(BankLaw, OneUniformPerBankAndHonestCounters)
{
    const DeviceFactory factory({10.0, 12.0}, ProcessVariation::none());
    const std::optional<BankLaw> law = bankLawOf(factory, 105, 11);
    ASSERT_TRUE(law.has_value());
    obs::Registry &registry = obs::Registry::global();
    const uint64_t banksBefore =
        registry.counter("arch.sim.structure_samples").get();
    const uint64_t devicesBefore =
        registry.counter("arch.sim.device_samples").get();
    Rng rng = Rng::trialStream(17, 0);
    Rng reference = Rng::trialStream(17, 0);
    const FaultyArchitectureOutcome outcome =
        sampleSerialCopiesOutcome(*law, 10, rng);
    uint64_t total = 0;
    for (int c = 0; c < 10; ++c)
        total += law->accessesFor(reference.nextDoubleOpenLow());
    EXPECT_EQ(outcome.totalAccesses, total);
    EXPECT_EQ(rng.next(), reference.next());
    EXPECT_EQ(registry.counter("arch.sim.structure_samples").get() -
                  banksBefore,
              10u);
    EXPECT_EQ(registry.counter("arch.sim.device_samples").get() -
                  devicesBefore,
              0u);
}

TEST(BankLaw, RejectsBadArguments)
{
    const SurvivalFunction device = [](double j) {
        return DeviceSurvival{std::exp(-j), -std::expm1(-j)};
    };
    EXPECT_THROW(BankLaw::tabulate(device, 0, 1), std::invalid_argument);
    EXPECT_THROW(BankLaw::tabulate(device, 4, 0), std::invalid_argument);
    EXPECT_THROW(BankLaw::tabulate(device, 4, 5), std::invalid_argument);
    EXPECT_THROW(BankLaw::tabulate(device, 4, 2, 1.5),
                 std::invalid_argument);
    const std::optional<BankLaw> law = BankLaw::tabulate(device, 4, 2);
    ASSERT_TRUE(law.has_value());
    Rng rng(1);
    EXPECT_THROW(sampleSerialCopiesOutcome(*law, 0, rng),
                 std::invalid_argument);
}

} // namespace
} // namespace lemons::arch
