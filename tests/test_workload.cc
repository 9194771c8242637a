/**
 * @file
 * Tests for the usage-workload simulator (Poisson daily usage vs the
 * paper's fixed 50/day x 5yr budget assumption).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <iterator>
#include <limits>
#include <utility>
#include <vector>

#include "sim/workload.h"
#include "util/stats.h"

namespace lemons::sim {
namespace {

TEST(Poisson, RejectsBadMean)
{
    Rng rng(1);
    EXPECT_THROW(poissonSample(rng, -1.0), std::invalid_argument);
}

TEST(Poisson, ZeroMeanIsZero)
{
    Rng rng(2);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(poissonSample(rng, 0.0), 0u);
}

TEST(Poisson, SmallMeanMatchesMoments)
{
    Rng rng(3);
    RunningStats stats;
    for (int i = 0; i < 200000; ++i)
        stats.add(static_cast<double>(poissonSample(rng, 3.7)));
    EXPECT_NEAR(stats.mean(), 3.7, 0.03);
    EXPECT_NEAR(stats.variance(), 3.7, 0.08);
}

TEST(Poisson, LargeMeanMatchesMoments)
{
    // Exercises the PTRS branch.
    Rng rng(4);
    RunningStats stats;
    for (int i = 0; i < 100000; ++i)
        stats.add(static_cast<double>(poissonSample(rng, 500.0)));
    EXPECT_NEAR(stats.mean(), 500.0, 1.0);
    EXPECT_NEAR(stats.variance(), 500.0, 12.0);
}

TEST(UsageProfile, EffectiveMeanAccountsForBursts)
{
    UsageProfile plain;
    EXPECT_DOUBLE_EQ(plain.effectiveDailyMean(), 50.0);
    UsageProfile bursty;
    bursty.meanPerDay = 50.0;
    bursty.burstProbability = 0.1;
    bursty.burstMultiplier = 3.0;
    EXPECT_DOUBLE_EQ(bursty.effectiveDailyMean(), 60.0);
}

TEST(SimulateUsage, GenerousBudgetSurvives)
{
    UsageProfile profile;
    profile.meanPerDay = 50.0;
    Rng rng(5);
    const auto outcome = simulateUsage(profile, 100000, 1825, rng);
    EXPECT_TRUE(outcome.survivedHorizon);
    EXPECT_EQ(outcome.daysServed, 1825u);
    EXPECT_NEAR(static_cast<double>(outcome.accessesServed),
                50.0 * 1825.0, 2000.0);
}

TEST(SimulateUsage, TightBudgetExhausts)
{
    UsageProfile profile;
    profile.meanPerDay = 50.0;
    Rng rng(6);
    const auto outcome = simulateUsage(profile, 1000, 1825, rng);
    EXPECT_FALSE(outcome.survivedHorizon);
    EXPECT_LT(outcome.daysServed, 40u);
    EXPECT_LE(outcome.accessesServed, 1000u);
}

TEST(SimulateUsage, AccessesNeverExceedBudget)
{
    UsageProfile profile;
    profile.meanPerDay = 200.0;
    for (uint64_t seed = 0; seed < 50; ++seed) {
        Rng rng(seed);
        const auto outcome = simulateUsage(profile, 5000, 365, rng);
        EXPECT_LE(outcome.accessesServed, 5000u);
    }
}

/** Profiles with a NaN, infinite or overflowing field: lint L601-L603
 *  reject the first two kinds, and 1e300 accesses a day overflows any
 *  horizon's demand. */
std::vector<UsageProfile>
nonFiniteProfiles()
{
    const double nan = std::nan("");
    const double inf = std::numeric_limits<double>::infinity();
    return {{nan, 0.0, 1.0}, {inf, 0.0, 1.0}, {1e300, 0.0, 1.0},
            {50.0, nan, 2.0}, {50.0, 0.1, nan}, {50.0, 0.1, inf},
            {50.0, 0.1, 1e300}};
}

TEST(SimulateUsage, RejectsBadProfile)
{
    Rng rng(7);
    UsageProfile bad;
    bad.meanPerDay = 0.0;
    EXPECT_THROW(simulateUsage(bad, 10, 10, rng), std::invalid_argument);
    bad = {};
    bad.burstProbability = 1.5;
    EXPECT_THROW(simulateUsage(bad, 10, 10, rng), std::invalid_argument);
    bad = {};
    bad.burstMultiplier = 0.5;
    EXPECT_THROW(simulateUsage(bad, 10, 10, rng), std::invalid_argument);
    EXPECT_THROW(simulateUsage({}, 10, 0, rng), std::invalid_argument);
    for (const UsageProfile &nonFinite : nonFiniteProfiles())
        EXPECT_THROW(simulateUsage(nonFinite, 10, 10, rng),
                     std::invalid_argument);
}

TEST(SurvivalProbability, PaperBudgetIsAKnifeEdge)
{
    // 91,250 = exactly 50 * 1825: a Poisson 50/day user exhausts it
    // about half the time — the fixed-budget assumption has no slack.
    // P(Poisson(91,250) <= 91,250) = 1/2 + O(1/sqrt(lambda)).
    UsageProfile profile;
    profile.meanPerDay = 50.0;
    const MonteCarlo engine(8, 400);
    const auto ci = survivalProbability(profile, 91250, 1825, engine);
    EXPECT_NEAR(ci.estimate, 0.50088, 1e-5);
    EXPECT_EQ(ci.low, ci.estimate);
    EXPECT_EQ(ci.high, ci.estimate);
}

TEST(SurvivalProbability, MWayScaledBudgetIsComfortable)
{
    // 2x the nominal budget (M = 2 replication) survives essentially
    // always for the same user.
    UsageProfile profile;
    profile.meanPerDay = 50.0;
    const MonteCarlo engine(9, 300);
    const auto ci = survivalProbability(profile, 2 * 91250, 1825, engine);
    EXPECT_EQ(ci.estimate, 1.0);
}

TEST(SurvivalProbability, MonotoneInBudget)
{
    // Strictly increasing within a few sd of each profile's mean
    // demand (91,250 +/- 302 nominal; ~104,900 +/- 1,430 bursty).
    UsageProfile bursty;
    bursty.burstProbability = 0.05;
    bursty.burstMultiplier = 4.0;
    const MonteCarlo engine(10, 300);
    const std::pair<UsageProfile, std::vector<uint64_t>> sweeps[] = {
        {UsageProfile{}, {90500, 91000, 91250, 91500, 92000, 92500}},
        {bursty, {100000, 104000, 106000, 108000, 110000, 112000}}};
    for (const auto &[profile, budgets] : sweeps) {
        double prev = 0.0;
        for (const uint64_t budget : budgets) {
            const double p =
                survivalProbability(profile, budget, 1825, engine).estimate;
            EXPECT_GT(p, prev) << "budget " << budget;
            prev = p;
        }
    }
}

TEST(SurvivalProbability, IndependentOfTheEngine)
{
    UsageProfile bursty;
    bursty.burstProbability = 0.05;
    bursty.burstMultiplier = 4.0;
    EXPECT_EQ(survivalProbability(bursty, 108367, 1825, MonteCarlo(1, 1))
                  .estimate,
              survivalProbability(bursty, 108367, 1825,
                                  MonteCarlo(99, 5000))
                  .estimate);
}

/**
 * The definitional oracle: the per-day simulateUsage Monte Carlo.
 * For each usage-table profile, its 99.9 % Wilson interval must contain
 * the exact survival at 91,250, at 2 x 91,250, and at the exact 99 %
 * budget, where the oracle discriminates for every profile.
 */
TEST(SurvivalProbability, PerDaySimulationOracleAgrees)
{
    const UsageProfile profiles[] = {{60.0, 0.0, 1.0},
                                     {50.0, 0.0, 1.0},
                                     {50.0, 0.05, 4.0},
                                     {30.0, 0.0, 1.0},
                                     {120.0, 0.0, 1.0}};
    const MonteCarlo unused(0, 1);
    const uint64_t trials = 2000;
    for (size_t p = 0; p < std::size(profiles); ++p) {
        const UsageProfile &profile = profiles[p];
        const uint64_t budgets[] = {
            91250, 2 * 91250,
            budgetForSurvival(profile, 1825, 0.99, unused)};
        uint64_t survived[3] = {};
        for (uint64_t t = 0; t < trials; ++t) {
            // A bottomless budget serves every access, so
            // accessesServed is the horizon's total demand.
            Rng rng = Rng::trialStream(0x0c1e + p, t);
            const uint64_t demand =
                simulateUsage(profile, uint64_t{1} << 40, 1825, rng)
                    .accessesServed;
            for (size_t b = 0; b < 3; ++b)
                survived[b] += demand <= budgets[b] ? 1 : 0;
        }
        for (size_t b = 0; b < 3; ++b) {
            const double exact =
                survivalProbability(profile, budgets[b], 1825, unused)
                    .estimate;
            const ProportionInterval ci =
                wilsonInterval(survived[b], trials, 3.29);
            EXPECT_LE(ci.low, exact)
                << "profile " << p << ", budget " << budgets[b];
            EXPECT_GE(ci.high, exact)
                << "profile " << p << ", budget " << budgets[b];
        }
    }
}

TEST(BudgetForSurvival, FindsTheQuantile)
{
    UsageProfile profile;
    profile.meanPerDay = 50.0;
    const MonteCarlo engine(11, 400);
    const uint64_t budget =
        budgetForSurvival(profile, 1825, 0.99, engine);
    // Mean 91,250, sd = sqrt(91,250) ~ 302; the 99th percentile sits
    // ~2.3 sigma up.
    EXPECT_EQ(budget, 91953u);
    // It is the smallest budget that survives at the target rate.
    EXPECT_GE(survivalProbability(profile, budget, 1825, engine).estimate,
              0.99);
    EXPECT_LT(
        survivalProbability(profile, budget - 1, 1825, engine).estimate,
        0.99);
}

TEST(BudgetForSurvival, BurstyUsersNeedMore)
{
    UsageProfile plain;
    plain.meanPerDay = 50.0;
    UsageProfile bursty = plain;
    bursty.burstProbability = 0.05;
    bursty.burstMultiplier = 4.0;
    const MonteCarlo engine(12, 300);
    EXPECT_GT(budgetForSurvival(bursty, 1825, 0.99, engine),
              budgetForSurvival(plain, 1825, 0.99, engine));
}

TEST(BudgetForSurvival, RejectsBadTarget)
{
    const MonteCarlo engine(13, 10);
    EXPECT_THROW(budgetForSurvival({}, 10, 0.0, engine),
                 std::invalid_argument);
    EXPECT_THROW(budgetForSurvival({}, 10, 1.0, engine),
                 std::invalid_argument);
    EXPECT_THROW(budgetForSurvival({}, 10, std::nan(""), engine),
                 std::invalid_argument);
    EXPECT_THROW(budgetForSurvival({}, 0, 0.5, engine),
                 std::invalid_argument);
    for (const UsageProfile &nonFinite : nonFiniteProfiles()) {
        EXPECT_THROW(budgetForSurvival(nonFinite, 10, 0.5, engine),
                     std::invalid_argument);
        EXPECT_THROW(survivalProbability(nonFinite, 10, 10, engine),
                     std::invalid_argument);
    }
}

} // namespace
} // namespace lemons::sim
