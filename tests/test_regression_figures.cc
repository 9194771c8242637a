/**
 * @file
 * Deterministic regression pins for the reproduced figures.
 *
 * Every value recorded in EXPERIMENTS.md comes from deterministic
 * computations; this suite pins them so silent changes to the solver,
 * analytics, or cost models show up as test failures rather than as
 * quietly drifting "measured" numbers.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "arch/cost_model.h"
#include "arch/structures.h"
#include "arch/structures_sim.h"
#include "core/decision_tree.h"
#include "core/design_solver.h"
#include "core/explorer.h"
#include "sim/monte_carlo.h"
#include "sim/workload.h"

namespace lemons::core {
namespace {

TEST(RegressionFigures, Fig3bAnchors)
{
    const wearout::Weibull device(9.3, 12.0);
    const arch::ParallelStructure forty(device, 40);
    EXPECT_NEAR(forty.reliabilityAt(10.0), 0.9787, 5e-4);
    EXPECT_NEAR(forty.reliabilityAt(11.0), 0.0219, 5e-4);
}

TEST(RegressionFigures, Fig3cAnchors)
{
    const wearout::Weibull device(20.0, 12.0);
    const arch::ParallelStructure k30(device, 60, 30);
    EXPECT_NEAR(k30.reliabilityAt(19.0), 0.9225, 5e-4);
    EXPECT_NEAR(k30.reliabilityAt(20.0), 0.0248, 5e-4);
}

TEST(RegressionFigures, Fig4bFlagshipDesign)
{
    DesignRequest request;
    request.device = {14.0, 8.0};
    request.legitimateAccessBound = 91250;
    request.kFraction = 0.1;
    const Design d = DesignSolver(request).solve();
    ASSERT_TRUE(d.feasible);
    EXPECT_EQ(d.totalDevices, 1064700u);
    EXPECT_EQ(d.width, 175u);
    EXPECT_EQ(d.threshold, 18u);
    EXPECT_EQ(d.copies, 6084u);
    EXPECT_NEAR(d.expectedSystemTotal, 91305.2, 0.5);
}

TEST(RegressionFigures, Fig4cRelaxedDesign)
{
    DesignRequest request;
    request.device = {14.0, 8.0};
    request.legitimateAccessBound = 91250;
    request.kFraction = 0.1;
    request.criteria.maxResidualReliability = 0.10;
    const Design d = DesignSolver(request).solve();
    ASSERT_TRUE(d.feasible);
    EXPECT_EQ(d.totalDevices, 669240u);
    EXPECT_NEAR(d.expectedSystemTotal, 91489.4, 0.5);
}

TEST(RegressionFigures, Fig4dUpperBoundDesigns)
{
    DesignRequest request;
    request.device = {14.0, 8.0};
    request.legitimateAccessBound = 91250;
    request.kFraction = 0.1;
    request.upperBoundTarget = 100000;
    const Design d100 = DesignSolver(request).solve();
    ASSERT_TRUE(d100.feasible);
    EXPECT_EQ(d100.totalDevices, 104288u);
    EXPECT_LE(d100.expectedSystemTotal, 100000.0);

    request.upperBoundTarget = 200000;
    const Design d200 = DesignSolver(request).solve();
    ASSERT_TRUE(d200.feasible);
    EXPECT_EQ(d200.totalDevices, 18250u);
    EXPECT_LE(d200.expectedSystemTotal, 200000.0);
}

TEST(RegressionFigures, Fig5TargetingAnchors)
{
    DesignRequest request;
    request.device = {13.0, 8.0};
    request.legitimateAccessBound = 100;
    request.kFraction = 0.1;
    const Design d13 = DesignSolver(request).solve();
    ASSERT_TRUE(d13.feasible);
    EXPECT_EQ(d13.totalDevices, 1200u);

    request.device = {20.0, 16.0};
    request.kFraction = 0.0;
    const Design plain = DesignSolver(request).solve();
    ASSERT_TRUE(plain.feasible);
    EXPECT_EQ(plain.totalDevices, 266785u);
}

TEST(RegressionFigures, Fig8Anchors)
{
    OtpParams params;
    params.height = 4;
    params.copies = 128;
    params.threshold = 8;
    params.device = {10.0, 1.0};
    EXPECT_NEAR(OtpAnalytics(params).adversarySuccess(), 0.8496, 5e-4);
    params.height = 8;
    EXPECT_NEAR(OtpAnalytics(params).adversarySuccess(), 2.27e-8,
                2e-10);
    EXPECT_GT(OtpAnalytics(params).receiverSuccess(), 0.9999);
}

TEST(RegressionFigures, Fig9Anchors)
{
    const auto grid = sweepOtpAlphaHeight({80.0}, {6}, 128, 8, 1.0);
    ASSERT_EQ(grid.size(), 1u);
    EXPECT_NEAR(grid[0].adversarySuccess, 0.0335, 5e-4);
}

TEST(RegressionFigures, Fig10Densities)
{
    const arch::CostModel model;
    const uint64_t expected[] = {4995004, 1665556, 624687, 249900,
                                 104131,  44630,   19526,  8678,
                                 3905,    1775};
    for (unsigned h = 2; h <= 11; ++h)
        EXPECT_EQ(model.treesPerMm2(h), expected[h - 2]) << "H = " << h;
    EXPECT_EQ(model.padsPerMm2(4, 128), 4880u);
}

TEST(RegressionFigures, Section652Costs)
{
    const arch::CostModel model;
    EXPECT_DOUBLE_EQ(model.padRetrievalLatencyMs(4, 128), 0.08512);
    EXPECT_DOUBLE_EQ(model.padRetrievalEnergyJ(4, 128), 5.12e-18);
    EXPECT_DOUBLE_EQ(model.accessEnergyJ(141), 1.41e-18);
}

TEST(RegressionFigures, Fig4aStrictCriteriaAnchor)
{
    // The strict-criteria value EXPERIMENTS.md explains (paper ~4e9).
    DesignRequest request;
    request.device = {14.0, 8.0};
    request.legitimateAccessBound = 91250;
    const Design d = DesignSolver(request).solve();
    ASSERT_TRUE(d.feasible);
    EXPECT_EQ(d.totalDevices, 717879633120u);

    // And the Fig 3b-calibrated criteria recover the paper's magnitude.
    request.criteria.minReliability = 0.98;
    request.criteria.maxResidualReliability = 0.022;
    const Design calibrated = DesignSolver(request).solve();
    ASSERT_TRUE(calibrated.feasible);
    EXPECT_EQ(calibrated.totalDevices, 1869937581u);
}

TEST(RegressionFigures, PaperHeadlineNumbers)
{
    // The three headline parameters the paper builds its case studies
    // on: the connection's legitimate access bound (50/day x 365 x 5 =
    // 91,250, Section 1), the targeting system's bound of ~100
    // accesses (Section 5.2), and the 128-copy OTP encoding
    // (Section 6). The solver pins for the resulting designs live in
    // the figure tests above; these pin the inputs themselves so a
    // config drift cannot silently re-baseline everything at once.
    EXPECT_EQ(50u * 365u * 5u, 91250u);

    DesignRequest targeting;
    targeting.device = {13.0, 8.0};
    targeting.legitimateAccessBound = 100;
    targeting.kFraction = 0.1;
    const Design d = DesignSolver(targeting).solve();
    ASSERT_TRUE(d.feasible);
    EXPECT_EQ(d.perCopyBound * d.copies, 112u); // nominal ~100 accesses

    OtpParams params;
    params.height = 8;
    params.copies = 128;
    params.threshold = 8;
    params.device = {10.0, 1.0};
    EXPECT_GT(OtpAnalytics(params).receiverSuccess(), 0.9999);
}

TEST(RegressionFigures, MonteCarloStructureLifetimeGolden)
{
    // Deterministic-seed pin of the full sampling stack (counter-based
    // trial stream -> Weibull inverse CDF -> k-of-n order statistic).
    // Any change to the stream layout or the transform moves these
    // exact values. Re-baselined ONCE when the engine switched from
    // xoshiro split(i) to the definitional Philox trialStream(seed, i)
    // (see ARCHITECTURE.md, "Counter-based trial streams"); future
    // changes must reproduce these numbers bit-exactly.
    const wearout::Weibull device(14.0, 8.0);
    const arch::LifetimeSampler sampler = [&](Rng &rng) {
        return device.sample(rng);
    };
    const sim::MonteCarlo mc(42, 1000);
    const RunningStats stats =
        mc.run([&](Rng &rng) {
              return static_cast<double>(
                  arch::sampleParallelSurvivedAccesses(sampler, 175, 18,
                                                       rng));
          }).stats;
    EXPECT_EQ(stats.count(), 1000u);
    EXPECT_NEAR(stats.mean(), 14.998, 1e-9);
    EXPECT_DOUBLE_EQ(stats.min(), 14.0);
    EXPECT_DOUBLE_EQ(stats.max(), 16.0);
}

TEST(RegressionFigures, UsageSurvivalGolden)
{
    // The Section 1 budget is a coin flip under its own Poisson usage
    // assumption — the observation EXPERIMENTS.md quantifies. Pinned
    // with the bench's seed so the number in the docs stays honest.
    const sim::UsageProfile nominal{50.0, 0.0, 1.0};
    const sim::MonteCarlo engine(20170624, 2000);
    // Exact P(Poisson(91,250) <= 91,250); re-baselined once from the
    // 2000-trial Monte Carlo estimate 0.5075 when the closed form
    // replaced it.
    const auto p =
        sim::survivalProbability(nominal, 91250, 5 * 365, engine);
    EXPECT_NEAR(p.estimate, 0.5008804440483703, 1e-12);
}

} // namespace
} // namespace lemons::core
