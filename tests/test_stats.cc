/**
 * @file
 * Unit tests for descriptive statistics.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include "util/rng.h"
#include "util/stats.h"

namespace lemons {
namespace {

TEST(RunningStats, EmptyDefaults)
{
    RunningStats s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_EQ(s.mean(), 0.0);
    EXPECT_EQ(s.variance(), 0.0);
}

TEST(RunningStats, SingleValue)
{
    RunningStats s;
    s.add(4.2);
    EXPECT_EQ(s.count(), 1u);
    EXPECT_DOUBLE_EQ(s.mean(), 4.2);
    EXPECT_EQ(s.variance(), 0.0);
    EXPECT_DOUBLE_EQ(s.min(), 4.2);
    EXPECT_DOUBLE_EQ(s.max(), 4.2);
}

TEST(RunningStats, MatchesDirectComputation)
{
    const std::vector<double> xs = {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
    RunningStats s;
    for (double x : xs)
        s.add(x);
    EXPECT_EQ(s.count(), xs.size());
    EXPECT_NEAR(s.mean(), 5.0, 1e-12);
    // Sample variance with Bessel correction: 32/7.
    EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
    EXPECT_NEAR(s.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStats, NumericallyStableForShiftedData)
{
    RunningStats s;
    const double offset = 1e9;
    for (int i = 0; i < 1000; ++i)
        s.add(offset + (i % 2 == 0 ? 1.0 : -1.0));
    EXPECT_NEAR(s.mean(), offset, 1e-3);
    EXPECT_NEAR(s.variance(), 1.001, 0.01);
}

TEST(RunningStats, QuarantinesNonFiniteObservations)
{
    RunningStats s;
    s.add(1.0);
    s.add(std::numeric_limits<double>::quiet_NaN());
    s.add(3.0);
    s.add(std::numeric_limits<double>::infinity());
    s.add(-std::numeric_limits<double>::infinity());

    // The aggregates see only the finite samples...
    EXPECT_EQ(s.count(), 2u);
    EXPECT_DOUBLE_EQ(s.mean(), 2.0);
    EXPECT_DOUBLE_EQ(s.min(), 1.0);
    EXPECT_DOUBLE_EQ(s.max(), 3.0);
    EXPECT_TRUE(std::isfinite(s.variance()));
    // ...but the exclusions are not silent.
    EXPECT_EQ(s.nonFiniteCount(), 3u);
}

TEST(RunningStats, AllNonFiniteLeavesAccumulatorEmpty)
{
    RunningStats s;
    s.add(std::numeric_limits<double>::quiet_NaN());
    s.add(std::numeric_limits<double>::infinity());
    EXPECT_EQ(s.count(), 0u);
    EXPECT_EQ(s.nonFiniteCount(), 2u);
    EXPECT_EQ(s.mean(), 0.0);
    EXPECT_EQ(s.variance(), 0.0);
}

TEST(RunningStatsMerge, EquivalentToSingleAccumulator)
{
    RunningStats whole;
    RunningStats a;
    RunningStats b;
    for (int i = 0; i < 5000; ++i) {
        const double x = 1e6 + std::cos(0.37 * i) * (1.0 + 0.01 * (i % 13));
        whole.add(x);
        (i % 3 == 0 ? a : b).add(x);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), whole.count());
    EXPECT_DOUBLE_EQ(a.min(), whole.min());
    EXPECT_DOUBLE_EQ(a.max(), whole.max());
    EXPECT_NEAR(a.mean(), whole.mean(), 1e-6);
    EXPECT_NEAR(a.variance(), whole.variance(), 1e-6 * whole.variance());
}

TEST(RunningStatsMerge, EmptyIsIdentityOnBothSides)
{
    RunningStats filled;
    filled.add(1.0);
    filled.add(3.0);

    RunningStats intoEmpty;
    intoEmpty.merge(filled);
    EXPECT_EQ(intoEmpty.count(), 2u);
    EXPECT_DOUBLE_EQ(intoEmpty.mean(), 2.0);
    EXPECT_DOUBLE_EQ(intoEmpty.min(), 1.0);
    EXPECT_DOUBLE_EQ(intoEmpty.max(), 3.0);

    filled.merge(RunningStats{});
    EXPECT_EQ(filled.count(), 2u);
    EXPECT_DOUBLE_EQ(filled.mean(), 2.0);

    RunningStats bothEmpty;
    bothEmpty.merge(RunningStats{});
    EXPECT_EQ(bothEmpty.count(), 0u);
    EXPECT_EQ(bothEmpty.mean(), 0.0);
}

TEST(RunningStatsMerge, QuarantineTallySurvivesEveryBranch)
{
    const double nan = std::numeric_limits<double>::quiet_NaN();

    // Empty target with prior quarantine absorbing a filled source.
    RunningStats target;
    target.add(nan);
    RunningStats source;
    source.add(2.0);
    source.add(nan);
    target.merge(source);
    EXPECT_EQ(target.count(), 1u);
    EXPECT_EQ(target.nonFiniteCount(), 2u);

    // Empty source still donates its quarantine count.
    RunningStats onlyNan;
    onlyNan.add(nan);
    target.merge(onlyNan);
    EXPECT_EQ(target.count(), 1u);
    EXPECT_EQ(target.nonFiniteCount(), 3u);
}

TEST(Quantile, MedianOfOddSet)
{
    EXPECT_DOUBLE_EQ(quantile({3.0, 1.0, 2.0}, 0.5), 2.0);
}

TEST(Quantile, Extremes)
{
    const std::vector<double> xs = {5.0, 1.0, 9.0, 3.0};
    EXPECT_DOUBLE_EQ(quantile(xs, 0.0), 1.0);
    EXPECT_DOUBLE_EQ(quantile(xs, 1.0), 9.0);
}

TEST(Quantile, LinearInterpolation)
{
    // Sorted: 0, 10. q=0.25 -> 2.5.
    EXPECT_DOUBLE_EQ(quantile({10.0, 0.0}, 0.25), 2.5);
}

TEST(Quantile, RejectsEmptyAndBadQ)
{
    EXPECT_THROW(quantile({}, 0.5), std::invalid_argument);
    EXPECT_THROW(quantile({1.0}, -0.1), std::invalid_argument);
    EXPECT_THROW(quantile({1.0}, 1.1), std::invalid_argument);
}

TEST(WilsonInterval, ContainsEstimate)
{
    const auto ci = wilsonInterval(30, 100);
    EXPECT_NEAR(ci.estimate, 0.3, 1e-12);
    EXPECT_LT(ci.low, 0.3);
    EXPECT_GT(ci.high, 0.3);
    EXPECT_GE(ci.low, 0.0);
    EXPECT_LE(ci.high, 1.0);
}

TEST(WilsonInterval, ZeroSuccessesHasPositiveUpperBound)
{
    const auto ci = wilsonInterval(0, 100);
    EXPECT_EQ(ci.estimate, 0.0);
    EXPECT_EQ(ci.low, 0.0);
    EXPECT_GT(ci.high, 0.0);
    EXPECT_LT(ci.high, 0.1);
}

TEST(WilsonInterval, AllSuccesses)
{
    // At p-hat = 1 the Wilson upper bound is exactly 1 and the lower
    // bound is strictly below it.
    const auto ci = wilsonInterval(100, 100);
    EXPECT_EQ(ci.estimate, 1.0);
    EXPECT_LT(ci.low, 1.0);
    EXPECT_GT(ci.low, 0.9);
    EXPECT_DOUBLE_EQ(ci.high, 1.0);
}

TEST(WilsonInterval, WidthShrinksWithTrials)
{
    const auto narrow = wilsonInterval(500, 1000);
    const auto wide = wilsonInterval(5, 10);
    EXPECT_LT(narrow.high - narrow.low, wide.high - wide.low);
}

TEST(WilsonInterval, RejectsBadInputs)
{
    EXPECT_THROW(wilsonInterval(1, 0), std::invalid_argument);
    EXPECT_THROW(wilsonInterval(11, 10), std::invalid_argument);
}

TEST(RunningStats, EmptyExtremaAreIdentityElements)
{
    // Documented contract — and a hard requirement now that shards
    // are serialized: reading min()/max() of an empty accumulator
    // must be +inf/-inf, never uninitialized memory.
    const RunningStats empty;
    EXPECT_EQ(empty.min(), std::numeric_limits<double>::infinity());
    EXPECT_EQ(empty.max(), -std::numeric_limits<double>::infinity());

    RunningStats quarantineOnly;
    quarantineOnly.add(std::numeric_limits<double>::quiet_NaN());
    EXPECT_EQ(quarantineOnly.min(),
              std::numeric_limits<double>::infinity());
    EXPECT_EQ(quarantineOnly.max(),
              -std::numeric_limits<double>::infinity());
}

TEST(RunningStats, MergeEmptyShardWithQuarantinedNaNs)
{
    // Regression: merging a shard that saw only quarantined non-finite
    // samples must carry the quarantine count across without
    // perturbing the receiver's mean/variance/extrema.
    RunningStats filled;
    for (double x : {2.0, 4.0, 9.0})
        filled.add(x);
    const double meanBefore = filled.mean();
    const double varianceBefore = filled.variance();

    RunningStats quarantineOnly;
    quarantineOnly.add(std::numeric_limits<double>::quiet_NaN());
    quarantineOnly.add(std::numeric_limits<double>::infinity());

    filled.merge(quarantineOnly);
    EXPECT_EQ(filled.count(), 3u);
    EXPECT_EQ(filled.nonFiniteCount(), 2u);
    EXPECT_EQ(filled.mean(), meanBefore);
    EXPECT_EQ(filled.variance(), varianceBefore);
    EXPECT_DOUBLE_EQ(filled.min(), 2.0);
    EXPECT_DOUBLE_EQ(filled.max(), 9.0);

    // And the mirror direction: quarantine-only receiver absorbing a
    // filled shard adopts its aggregates exactly.
    RunningStats receiver;
    receiver.add(std::numeric_limits<double>::quiet_NaN());
    RunningStats donor;
    for (double x : {2.0, 4.0, 9.0})
        donor.add(x);
    receiver.merge(donor);
    EXPECT_EQ(receiver.count(), 3u);
    EXPECT_EQ(receiver.nonFiniteCount(), 1u);
    EXPECT_EQ(receiver.mean(), donor.mean());
    EXPECT_EQ(receiver.variance(), donor.variance());
    EXPECT_DOUBLE_EQ(receiver.min(), 2.0);
    EXPECT_DOUBLE_EQ(receiver.max(), 9.0);
}

TEST(RunningStats, StateRoundTripIsBitExact)
{
    RunningStats s;
    Rng rng(42);
    for (int i = 0; i < 1000; ++i)
        s.add(rng.nextGaussian() * 1e6);
    s.add(std::numeric_limits<double>::quiet_NaN());

    const RunningStats::State state = s.state();
    const RunningStats restored = RunningStats::fromState(state);
    EXPECT_EQ(restored.count(), s.count());
    EXPECT_EQ(restored.nonFiniteCount(), s.nonFiniteCount());
    EXPECT_EQ(std::bit_cast<uint64_t>(restored.mean()),
              std::bit_cast<uint64_t>(s.mean()));
    EXPECT_EQ(std::bit_cast<uint64_t>(restored.variance()),
              std::bit_cast<uint64_t>(s.variance()));
    EXPECT_EQ(std::bit_cast<uint64_t>(restored.min()),
              std::bit_cast<uint64_t>(s.min()));
    EXPECT_EQ(std::bit_cast<uint64_t>(restored.max()),
              std::bit_cast<uint64_t>(s.max()));

    // The empty accumulator's state round-trips too (the identity
    // extrema are representable and preserved).
    const RunningStats::State emptyState = RunningStats{}.state();
    const RunningStats emptyRestored =
        RunningStats::fromState(emptyState);
    EXPECT_EQ(emptyRestored.count(), 0u);
    EXPECT_EQ(emptyRestored.min(),
              std::numeric_limits<double>::infinity());
    EXPECT_EQ(emptyRestored.max(),
              -std::numeric_limits<double>::infinity());
}

} // namespace
} // namespace lemons
