/**
 * @file
 * Cross-module consistency checks: independent implementations of the
 * same quantity must agree (analytic vs layout-derived areas, solver
 * caps, Poisson sampler branch boundary, and the two Shamir fields on
 * identical semantics).
 */

#include <gtest/gtest.h>

#include <cmath>

#include "arch/cost_model.h"
#include "arch/htree.h"
#include "core/design_solver.h"
#include "shamir/shamir.h"
#include "shamir/shamir16.h"
#include "sim/workload.h"
#include "util/stats.h"

namespace lemons {
namespace {

TEST(CrossConsistency, LayoutAndCostModelSwitchAreasMatchScale)
{
    // The closed-form cost model charges ~101 nm^2 per switch; the
    // H-tree layout at an 11 nm leaf pitch spends 121 nm^2 per *leaf*
    // (the internal nodes ride along the wiring channels). The two
    // must stay within a small constant factor at every height.
    const arch::CostModel model;
    for (unsigned h = 2; h <= 12; ++h) {
        const arch::HTreeLayout layout(h, 11.0);
        const double layoutArea = layout.areaNm2();
        const double modelArea =
            101.0 * static_cast<double>(layout.nodeCount());
        const double ratio = layoutArea / modelArea;
        EXPECT_GT(ratio, 0.4) << "H = " << h;
        EXPECT_LT(ratio, 1.5) << "H = " << h;
    }
}

TEST(CrossConsistency, SolverRespectsMaxWidthCap)
{
    core::DesignRequest request;
    request.device = {14.0, 8.0};
    request.legitimateAccessBound = 91250;
    request.kFraction = 0.1;
    request.maxWidth = 100; // below the 175-wide optimum
    const core::Design d = core::DesignSolver(request).solve();
    if (d.feasible) {
        EXPECT_LE(d.width, 100u);
    }
}

TEST(CrossConsistency, SolverRespectsMaxPerCopyBound)
{
    // (14, 8, k=10%) is only feasible at t = 15 — the per-device
    // survival must straddle the 10 % fraction between t and t+1.
    core::DesignRequest request;
    request.device = {14.0, 8.0};
    request.legitimateAccessBound = 91250;
    request.kFraction = 0.1;

    request.maxPerCopyBound = 14; // excludes the only feasible t
    EXPECT_FALSE(core::DesignSolver(request).solve().feasible);

    request.maxPerCopyBound = 25; // generous cap: same as default
    const core::Design capped = core::DesignSolver(request).solve();
    request.maxPerCopyBound = 0;
    const core::Design free = core::DesignSolver(request).solve();
    ASSERT_TRUE(capped.feasible);
    EXPECT_EQ(capped.totalDevices, free.totalDevices);
    EXPECT_EQ(capped.perCopyBound, 15u);
}

TEST(CrossConsistency, PoissonBranchesAgreeAtTheBoundary)
{
    // Knuth's product of uniforms below mean 10 and PTRS above must
    // produce statistically indistinguishable moments near the
    // switch-over (bounds ~8 standard errors).
    Rng rngLow(1);
    Rng rngHigh(1);
    RunningStats low, high;
    for (int i = 0; i < 200000; ++i) {
        low.add(static_cast<double>(sim::poissonSample(rngLow, 9.9)));
        high.add(static_cast<double>(sim::poissonSample(rngHigh, 10.1)));
    }
    EXPECT_NEAR(low.mean(), 9.9, 0.06);
    EXPECT_NEAR(high.mean(), 10.1, 0.06);
    EXPECT_NEAR(low.variance(), 9.9, 0.25);
    EXPECT_NEAR(high.variance(), 10.1, 0.25);
}

TEST(CrossConsistency, NarrowAndWideShamirAgreeOnSemantics)
{
    // For n <= 255 both fields implement the same contract: any k
    // shares reconstruct, k-1 do not (statistically — here just the
    // reconstruction side on identical inputs).
    Rng rng(7);
    std::vector<uint8_t> secret(20);
    for (auto &b : secret)
        b = static_cast<uint8_t>(rng.nextBelow(256));

    const shamir::Scheme narrow(5, 12);
    const shamir::WideScheme wide(5, 12);
    auto narrowShares = narrow.split(secret, rng);
    auto wideShares = wide.split(secret, rng);
    narrowShares.resize(5);
    wideShares.resize(5);
    const auto fromNarrow = narrow.combine(narrowShares);
    const auto fromWide = wide.combine(wideShares, secret.size());
    ASSERT_TRUE(fromNarrow.has_value());
    ASSERT_TRUE(fromWide.has_value());
    EXPECT_EQ(*fromNarrow, secret);
    EXPECT_EQ(*fromWide, secret);
}

TEST(CrossConsistency, ExpectedOvershootMatchesDirectSummation)
{
    // The solver's expectedOvershoot is a truncated sum of structure
    // reliabilities; recompute it directly.
    core::DesignRequest request;
    request.device = {14.0, 8.0};
    request.legitimateAccessBound = 91250;
    request.kFraction = 0.1;
    const core::DesignSolver solver(request);
    const uint64_t n = 175, k = 18, t = 15;
    double direct = 0.0;
    for (uint64_t j = t + 1; j <= t + 60; ++j) {
        direct += solver.copyReliability(n, k, static_cast<double>(j));
    }
    EXPECT_NEAR(solver.expectedOvershoot(n, k, t), direct, 1e-9);
}

} // namespace
} // namespace lemons
