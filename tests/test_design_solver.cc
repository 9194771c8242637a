/**
 * @file
 * Tests for the design-space solver: criteria satisfaction, the
 * paper's scaling trends (Figs 4 and 5), and regression values.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "core/design_solver.h"

namespace lemons::core {
namespace {

DesignRequest
baseRequest(double alpha, double beta, double kFraction = 0.0)
{
    DesignRequest request;
    request.device = {alpha, beta};
    request.legitimateAccessBound = 91250;
    request.kFraction = kFraction;
    return request;
}

TEST(DesignSolver, RejectsBadRequests)
{
    DesignRequest bad = baseRequest(0.0, 8.0);
    EXPECT_THROW(DesignSolver{bad}, std::invalid_argument);
    bad = baseRequest(10.0, 8.0);
    bad.kFraction = 1.0;
    EXPECT_THROW(DesignSolver{bad}, std::invalid_argument);
    bad = baseRequest(10.0, 8.0);
    bad.criteria.minReliability = 1.0;
    EXPECT_THROW(DesignSolver{bad}, std::invalid_argument);
    bad = baseRequest(10.0, 8.0);
    bad.upperBoundTarget = 1000; // below LAB
    EXPECT_THROW(DesignSolver{bad}, std::invalid_argument);
    bad = baseRequest(10.0, 8.0);
    bad.legitimateAccessBound = 0;
    EXPECT_THROW(DesignSolver{bad}, std::invalid_argument);
}

TEST(DesignSolver, SolutionSatisfiesCriteria)
{
    const DesignRequest request = baseRequest(14.0, 8.0, 0.1);
    const DesignSolver solver(request);
    const Design d = solver.solve();
    ASSERT_TRUE(d.feasible);
    EXPECT_GE(d.reliabilityAtBound, request.criteria.minReliability);
    EXPECT_LE(d.reliabilityPastBound,
              request.criteria.maxResidualReliability);
    EXPECT_EQ(d.copies, (91250 + d.perCopyBound - 1) / d.perCopyBound);
    EXPECT_EQ(d.totalDevices, d.width * d.copies);
    EXPECT_EQ(d.threshold,
              static_cast<uint64_t>(std::llround(0.1 *
                                                 static_cast<double>(
                                                     d.width))));
}

TEST(DesignSolver, SystemServesTheLab)
{
    // N copies at t accesses each must cover the LAB.
    for (double alpha : {10.0, 14.0, 20.0}) {
        const Design d =
            DesignSolver(baseRequest(alpha, 8.0, 0.1)).solve();
        ASSERT_TRUE(d.feasible) << "alpha = " << alpha;
        EXPECT_GE(d.copies * d.perCopyBound, 91250u);
    }
}

TEST(DesignSolver, UnencodedIsMinimal)
{
    // Shrinking the solved width by one must violate a criterion.
    const DesignRequest request = baseRequest(14.0, 8.0);
    const DesignSolver solver(request);
    const Design d = solver.solve();
    ASSERT_TRUE(d.feasible);
    EXPECT_GE(d.reliabilityAtBound, 0.99);
    const double shrunk = solver.copyReliability(
        d.width - 1, 1, static_cast<double>(d.perCopyBound));
    EXPECT_LT(shrunk, 0.99);
}

TEST(DesignSolver, EncodingSavesOrdersOfMagnitude)
{
    // The paper's headline (Fig 4a vs 4b): redundant encoding cuts the
    // (alpha=14, beta=8) architecture by roughly four orders of
    // magnitude.
    const Design plain = DesignSolver(baseRequest(14.0, 8.0)).solve();
    const Design coded = DesignSolver(baseRequest(14.0, 8.0, 0.1)).solve();
    ASSERT_TRUE(plain.feasible);
    ASSERT_TRUE(coded.feasible);
    EXPECT_GT(plain.totalDevices / coded.totalDevices, 1000u);
}

TEST(DesignSolver, UnencodedGrowsExponentiallyWithAlpha)
{
    // Fig 4a: device count explodes with looser wearout bounds.
    const Design a10 = DesignSolver(baseRequest(10.0, 8.0)).solve();
    const Design a14 = DesignSolver(baseRequest(14.0, 8.0)).solve();
    ASSERT_TRUE(a10.feasible);
    ASSERT_TRUE(a14.feasible);
    EXPECT_GT(a14.totalDevices, 100 * a10.totalDevices);
}

TEST(DesignSolver, EncodedScalesRoughlyLinearlyWithAlpha)
{
    // Fig 4b: with encoding, doubling alpha should cost only a small
    // constant factor, not orders of magnitude.
    const Design a10 = DesignSolver(baseRequest(10.0, 8.0, 0.1)).solve();
    const Design a20 = DesignSolver(baseRequest(20.0, 8.0, 0.1)).solve();
    ASSERT_TRUE(a10.feasible);
    ASSERT_TRUE(a20.feasible);
    const double ratio = static_cast<double>(a20.totalDevices) /
                         static_cast<double>(a10.totalDevices);
    EXPECT_LT(ratio, 8.0);
}

TEST(DesignSolver, HigherBetaNeedsFewerDevices)
{
    // Fig 4a/4b: consistent devices (high beta) shrink the design.
    const Design b8 = DesignSolver(baseRequest(14.0, 8.0, 0.1)).solve();
    const Design b16 = DesignSolver(baseRequest(14.0, 16.0, 0.1)).solve();
    ASSERT_TRUE(b8.feasible);
    ASSERT_TRUE(b16.feasible);
    EXPECT_LT(b16.totalDevices, b8.totalDevices);
}

TEST(DesignSolver, EncodingToleratesHighVariationBeta4)
{
    // Fig 4b includes beta = 4 curves: encoding keeps the design
    // feasible even with very inconsistent devices.
    const Design d = DesignSolver(baseRequest(14.0, 4.0, 0.1)).solve();
    EXPECT_TRUE(d.feasible);
}

TEST(DesignSolver, UnencodedInfeasibleAtHighVariation)
{
    // Without encoding, beta = 4 devices cannot meet the strict
    // degradation criteria at any sane width (exponential blow-up).
    DesignRequest request = baseRequest(14.0, 4.0);
    const Design d = DesignSolver(request).solve();
    EXPECT_FALSE(d.feasible);
}

TEST(DesignSolver, RelaxedResidualCutsDevices)
{
    // Fig 4c: p = 1 % -> 10 % cuts the device count by tens of percent
    // and raises the expected empirical upper bound.
    DesignRequest strict = baseRequest(14.0, 8.0, 0.1);
    DesignRequest relaxed = strict;
    relaxed.criteria.maxResidualReliability = 0.10;
    const Design dStrict = DesignSolver(strict).solve();
    const Design dRelaxed = DesignSolver(relaxed).solve();
    ASSERT_TRUE(dStrict.feasible);
    ASSERT_TRUE(dRelaxed.feasible);
    EXPECT_LT(dRelaxed.totalDevices, dStrict.totalDevices);
    const double saving =
        1.0 - static_cast<double>(dRelaxed.totalDevices) /
                  static_cast<double>(dStrict.totalDevices);
    EXPECT_GT(saving, 0.2); // paper reports ~40 %
    EXPECT_GT(dRelaxed.expectedSystemTotal, dStrict.expectedSystemTotal);
}

TEST(DesignSolver, ExpectedSystemTotalBracketsLab)
{
    const Design d = DesignSolver(baseRequest(14.0, 8.0, 0.1)).solve();
    ASSERT_TRUE(d.feasible);
    EXPECT_GE(d.expectedSystemTotal, 91250.0 * 0.999);
    // With 1 % residual, overshoot stays within a fraction of a
    // percent of the LAB (paper: 91,326 vs 91,250).
    EXPECT_LT(d.expectedSystemTotal, 91250.0 * 1.02);
}

TEST(DesignSolver, UpperBoundTargetShrinksArchitecture)
{
    // Fig 4d: tolerating up to 100,000 / 200,000 total attempts cuts
    // the architecture by an order of magnitude or more.
    const Design baseline = DesignSolver(baseRequest(14.0, 8.0, 0.1))
                                .solve();
    DesignRequest u100 = baseRequest(14.0, 8.0, 0.1);
    u100.upperBoundTarget = 100000;
    DesignRequest u200 = baseRequest(14.0, 8.0, 0.1);
    u200.upperBoundTarget = 200000;
    const Design d100 = DesignSolver(u100).solve();
    const Design d200 = DesignSolver(u200).solve();
    ASSERT_TRUE(baseline.feasible);
    ASSERT_TRUE(d100.feasible);
    ASSERT_TRUE(d200.feasible);
    EXPECT_LT(d100.totalDevices, baseline.totalDevices / 5);
    EXPECT_LT(d200.totalDevices, d100.totalDevices);
    // The expected system total must respect each target.
    EXPECT_LE(d100.expectedSystemTotal, 100000.0);
    EXPECT_LE(d200.expectedSystemTotal, 200000.0);
    EXPECT_GE(d100.reliabilityAtBound, 0.99);
    EXPECT_GE(d200.reliabilityAtBound, 0.99);
}

TEST(DesignSolver, TargetingSystemIsSmall)
{
    // Section 5: LAB = 100 shrinks everything by orders of magnitude
    // relative to the 91,250-access connection.
    DesignRequest connection = baseRequest(10.0, 8.0, 0.1);
    DesignRequest targeting = connection;
    targeting.legitimateAccessBound = 100;
    const Design dConn = DesignSolver(connection).solve();
    const Design dTarget = DesignSolver(targeting).solve();
    ASSERT_TRUE(dConn.feasible);
    ASSERT_TRUE(dTarget.feasible);
    EXPECT_LT(dTarget.totalDevices, dConn.totalDevices / 20);
    EXPECT_LE(dTarget.copies, 11u);
}

TEST(DesignSolver, StrongerMinimumReliabilityCostsMoreDevices)
{
    // Section 4.3.3: 99.99999 % lower-bound reliability with ~3x
    // devices.
    DesignRequest normal = baseRequest(14.0, 8.0, 0.1);
    DesignRequest strong = normal;
    strong.criteria.minReliability = 0.9999999;
    const Design dNormal = DesignSolver(normal).solve();
    const Design dStrong = DesignSolver(strong).solve();
    ASSERT_TRUE(dNormal.feasible);
    ASSERT_TRUE(dStrong.feasible);
    EXPECT_GT(dStrong.totalDevices, dNormal.totalDevices);
    EXPECT_LT(dStrong.totalDevices, 5 * dNormal.totalDevices);
    EXPECT_GE(dStrong.reliabilityAtBound, 0.9999999);
}

TEST(DesignSolver, RegressionPinnedValues)
{
    // Deterministic solver outputs pinned to catch silent changes.
    const Design coded = DesignSolver(baseRequest(14.0, 8.0, 0.1)).solve();
    EXPECT_EQ(coded.perCopyBound, 15u);
    EXPECT_EQ(coded.width, 175u);
    EXPECT_EQ(coded.threshold, 18u);
    EXPECT_EQ(coded.copies, 6084u);
    EXPECT_EQ(coded.totalDevices, 1064700u);

    const Design plain = DesignSolver(baseRequest(14.0, 8.0)).solve();
    EXPECT_EQ(plain.perCopyBound, 20u);
    EXPECT_EQ(plain.copies, 4563u);
}

TEST(DesignSolver, HugeMaxWidthSolvesLikeTheDefault)
{
    // The width search doubles up to maxWidth. At maxWidth >= 2^63 the
    // doubling used to wrap to 0 and abort the solve with an empty
    // structure; it saturates at maxWidth, so a cap no design reaches
    // changes nothing.
    DesignRequest request = baseRequest(10.0, 12.0, 0.5);
    request.upperBoundTarget = 200000;
    const Design capped = DesignSolver(request).solve();
    request.maxWidth = 10'000'000'000'000'000'000ULL;
    const Design uncapped = DesignSolver(request).solve();
    ASSERT_TRUE(capped.feasible);
    ASSERT_TRUE(uncapped.feasible);
    EXPECT_EQ(uncapped.perCopyBound, capped.perCopyBound);
    EXPECT_EQ(uncapped.width, capped.width);
    EXPECT_EQ(uncapped.threshold, capped.threshold);
    EXPECT_EQ(uncapped.copies, capped.copies);
    EXPECT_EQ(uncapped.totalDevices, capped.totalDevices);
}

TEST(DesignSolver, CopyReliabilityMatchesEquationSix)
{
    const DesignSolver solver(baseRequest(9.3, 12.0));
    const double r = std::exp(-std::pow(10.0 / 9.3, 12.0));
    EXPECT_NEAR(solver.copyReliability(40, 1, 10.0),
                1.0 - std::pow(1.0 - r, 40.0), 1e-9);
}

TEST(DesignSolver, ExpectedOvershootDropsWithWidthWhenEncoded)
{
    DesignRequest request = baseRequest(14.0, 8.0, 0.1);
    const DesignSolver solver(request);
    const double narrow = solver.expectedOvershoot(50, 5, 15);
    const double wide = solver.expectedOvershoot(500, 50, 15);
    EXPECT_LT(wide, narrow);
}

} // namespace
} // namespace lemons::core
