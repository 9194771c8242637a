/**
 * @file
 * Concurrency stress tests for the parallel Monte Carlo paths. These
 * are the tests the TSan CI job leans on: they hammer the pooled
 * engine run() path (sample-keeping, streaming, and fault-capturing
 * configurations) with more workers than cores so any data race in
 * the reduction or error-capture plumbing has a real chance to
 * interleave.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <vector>

#include "sim/monte_carlo.h"
#include "util/stats.h"

namespace lemons {
namespace {

constexpr uint64_t kSeed = 0xC0FFEEULL;
constexpr unsigned kThreads = 8; // deliberately oversubscribed

double
noisyMetric(Rng &rng)
{
    // A little arithmetic per trial so workers overlap in the metric,
    // not just in the reduction.
    const double u = rng.nextDouble();
    return std::sqrt(u) + 0.25 * rng.nextDouble();
}

TEST(ParallelStress, SamplesMatchSerialBitForBit)
{
    const sim::MonteCarlo mc(kSeed, 20'000);
    const std::vector<double> serial =
        mc.run(noisyMetric, {.faults = sim::FaultPolicy::Rethrow})
            .samples;
    for (int repeat = 0; repeat < 3; ++repeat) {
        const std::vector<double> parallel =
            mc.run(noisyMetric, {.threads = kThreads,
                                 .faults = sim::FaultPolicy::Rethrow})
                .samples;
        ASSERT_EQ(parallel.size(), serial.size());
        for (size_t i = 0; i < serial.size(); ++i)
            ASSERT_EQ(parallel[i], serial[i]) << "trial " << i;
    }
}

TEST(ParallelStress, StatsMatchSerialAggregates)
{
    const sim::MonteCarlo mc(kSeed, 50'000);
    const RunningStats serial =
        mc.run(noisyMetric, {.faults = sim::FaultPolicy::Rethrow}).stats;
    const RunningStats parallel =
        mc.run(noisyMetric, {.threads = kThreads,
                             .keepSamples = false,
                             .faults = sim::FaultPolicy::Rethrow})
            .stats;
    EXPECT_EQ(parallel.count(), serial.count());
    EXPECT_EQ(parallel.nonFiniteCount(), serial.nonFiniteCount());
    EXPECT_EQ(parallel.min(), serial.min());
    EXPECT_EQ(parallel.max(), serial.max());
    EXPECT_NEAR(parallel.mean(), serial.mean(), 1e-12);
    EXPECT_NEAR(parallel.variance(), serial.variance(), 1e-12);
}

TEST(ParallelStress, StatsAreDeterministicPerThreadCount)
{
    const sim::MonteCarlo mc(kSeed, 10'000);
    const sim::McRunOptions streaming{
        .threads = kThreads,
        .keepSamples = false,
        .faults = sim::FaultPolicy::Rethrow};
    const RunningStats first = mc.run(noisyMetric, streaming).stats;
    for (int repeat = 0; repeat < 5; ++repeat) {
        const RunningStats again = mc.run(noisyMetric, streaming).stats;
        EXPECT_EQ(again.count(), first.count());
        EXPECT_EQ(again.mean(), first.mean());
        EXPECT_EQ(again.variance(), first.variance());
    }
}

TEST(ParallelStress, StatsQuarantineNonFinite)
{
    const sim::MonteCarlo mc(kSeed, 8'192);
    const auto metric = [](Rng &rng) {
        const double u = rng.nextDouble();
        return u < 0.01 ? std::nan("") : u;
    };
    const RunningStats serial =
        mc.run(metric, {.faults = sim::FaultPolicy::Rethrow}).stats;
    const RunningStats parallel =
        mc.run(metric, {.threads = kThreads,
                        .keepSamples = false,
                        .faults = sim::FaultPolicy::Rethrow})
            .stats;
    EXPECT_GT(serial.nonFiniteCount(), 0u);
    EXPECT_EQ(parallel.nonFiniteCount(), serial.nonFiniteCount());
    EXPECT_EQ(parallel.count(), serial.count());
}

TEST(ParallelStress, LowestThrowingTrialWinsDeterministically)
{
    const sim::MonteCarlo mc(kSeed, 4'096);
    const auto metric = [](Rng &rng) {
        const double u = rng.nextDouble();
        if (u > 0.999)
            throw std::runtime_error("poisoned trial");
        return u;
    };
    std::string firstMessage;
    try {
        static_cast<void>(
            mc.run(metric, {.threads = kThreads,
                            .faults = sim::FaultPolicy::Rethrow}));
        FAIL() << "expected the poisoned trial to rethrow";
    } catch (const std::runtime_error &e) {
        firstMessage = e.what();
    }
    EXPECT_EQ(firstMessage, "poisoned trial");
    // The capture path must agree on which trial failed first.
    const sim::TrialReport report =
        mc.run([&](Rng &rng) { return metric(rng); },
               {.threads = kThreads});
    ASSERT_FALSE(report.failedTrials.empty());
    const sim::TrialReport serialReport = mc.run(
        [&](Rng &rng) { return metric(rng); }, {.threads = 1});
    EXPECT_EQ(report.failedTrials, serialReport.failedTrials);
    EXPECT_EQ(report.firstError, serialReport.firstError);
}

TEST(ParallelStress, ReportStressRun)
{
    const sim::MonteCarlo mc(kSeed, 16'384);
    const auto metric = [](Rng &rng, uint64_t trial) {
        const double u = rng.nextDouble();
        if (trial % 1009 == 0)
            throw std::runtime_error("periodic failure");
        if (trial % 997 == 0)
            return std::numeric_limits<double>::infinity();
        return u;
    };
    for (int repeat = 0; repeat < 3; ++repeat) {
        const sim::TrialReport report =
            mc.run(metric, {.threads = kThreads});
        EXPECT_EQ(report.trials, mc.trials());
        EXPECT_FALSE(report.complete());
        EXPECT_EQ(report.firstError, "periodic failure");
        EXPECT_EQ(report.failedTrials.size(), (mc.trials() + 1008) / 1009);
        EXPECT_EQ(report.cleanTrials(),
                  report.trials - report.failedTrials.size() -
                      report.nonFiniteTrials.size());
        EXPECT_EQ(report.stats.count(), report.cleanTrials());
    }
}

TEST(ParallelStress, MergeAgreesWithSingleAccumulator)
{
    RunningStats whole;
    RunningStats left;
    RunningStats right;
    RunningStats emptyMerged;
    for (int i = 0; i < 10'000; ++i) {
        const double x = std::sin(0.1 * i) * (i % 7 == 0 ? 100.0 : 1.0);
        whole.add(x);
        (i < 3'000 ? left : right).add(x);
    }
    left.merge(right);
    EXPECT_EQ(left.count(), whole.count());
    EXPECT_EQ(left.min(), whole.min());
    EXPECT_EQ(left.max(), whole.max());
    EXPECT_NEAR(left.mean(), whole.mean(), 1e-12);
    EXPECT_NEAR(left.variance(), whole.variance(), 1e-9);

    // Merging into / from an empty accumulator is the identity, and the
    // quarantine tally survives both directions.
    RunningStats quarantine;
    quarantine.add(std::nan(""));
    emptyMerged.merge(quarantine);
    EXPECT_EQ(emptyMerged.count(), 0u);
    EXPECT_EQ(emptyMerged.nonFiniteCount(), 1u);
    emptyMerged.merge(whole);
    EXPECT_EQ(emptyMerged.count(), whole.count());
    EXPECT_EQ(emptyMerged.nonFiniteCount(), 1u);
    RunningStats other;
    other.merge(RunningStats{});
    EXPECT_EQ(other.count(), 0u);
}

} // namespace
} // namespace lemons
