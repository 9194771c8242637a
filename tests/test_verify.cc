/**
 * @file
 * The static verifier: interval brackets must contain the library's
 * own scalar evaluations (solver reliabilities, OTP analytics,
 * expected totals), and every V-range diagnostic must be reachable
 * from a seeded design that violates exactly that rule.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "analysis/report.h"
#include "core/decision_tree.h"
#include "core/design_solver.h"
#include "ir/graph.h"
#include "ir/lower.h"
#include "lint/rules.h"
#include "util/math.h"
#include "verify/interval.h"
#include "verify/passes.h"

namespace lemons {
namespace {

using ir::Graph;
using ir::Node;
using ir::NodeId;
using ir::NodeKind;
using ir::Obligation;
using lint::Code;
using lint::Report;
using verify::Interval;

Node
node(NodeKind kind, const char *label)
{
    Node n;
    n.kind = kind;
    n.label = label;
    return n;
}

core::DesignRequest
paperRequest()
{
    core::DesignRequest request;
    request.device = {10.0, 12.0};
    request.legitimateAccessBound = 91250;
    request.kFraction = 0.1;
    return request;
}

// --- bracket containment against the library's scalar evaluators --------

TEST(VerifyInterval, DeviceBracketContainsWeibullSurvival)
{
    const wearout::DeviceSpec device{10.0, 12.0};
    for (const double x : {0.0, 1.0, 5.0, 9.0, 10.0, 11.0, 13.0, 30.0}) {
        const Interval bracket = verify::deviceReliability(device, x);
        const double exact = std::exp(-std::pow(x / 10.0, 12.0));
        EXPECT_LE(bracket.lo, bracket.hi);
        EXPECT_TRUE(bracket.contains(exact)) << "x = " << x;
    }
    // Degenerate technology yields a vacuous (but sound) bracket.
    const Interval vacuous = verify::deviceReliability({0.0, 12.0}, 5.0);
    EXPECT_DOUBLE_EQ(vacuous.lo, 0.0);
    EXPECT_DOUBLE_EQ(vacuous.hi, 1.0);
}

TEST(VerifyInterval, ParallelBracketContainsBinomialTail)
{
    for (const double p : {0.01, 0.37, 0.99}) {
        const Interval point{p, p};
        const Interval bracket = verify::parallelReliability(105, 11, point);
        EXPECT_TRUE(bracket.contains(binomialTailAtLeast(105, 11, p)))
            << "p = " << p;
    }
    EXPECT_DOUBLE_EQ(verify::parallelReliability(8, 0, {0.5, 0.5}).lo, 1.0);
    EXPECT_DOUBLE_EQ(verify::parallelReliability(8, 9, {0.5, 0.5}).hi, 0.0);
}

TEST(VerifyInterval, PowBracketContainsSeriesProduct)
{
    const Interval base{0.9, 0.9};
    const Interval bracket = verify::powInterval(base, 8.0);
    EXPECT_TRUE(bracket.contains(std::pow(0.9, 8.0)));
    EXPECT_DOUBLE_EQ(verify::powInterval(base, 0.0).lo, 1.0);
}

TEST(VerifyInterval, SolverCopyReliabilityWithinBracket)
{
    const auto request = paperRequest();
    const core::DesignSolver solver(request);
    const core::Design design = solver.solve();
    ASSERT_TRUE(design.feasible);

    for (uint64_t x = 1; x <= design.deathCheckAccess; ++x) {
        const Interval dev = verify::deviceReliability(
            request.device, static_cast<double>(x));
        const Interval copy = verify::parallelReliability(
            design.width, design.threshold, dev);
        const double exact = solver.copyReliability(
            design.width, design.threshold, static_cast<double>(x));
        EXPECT_TRUE(copy.contains(exact)) << "x = " << x;
    }
}

TEST(VerifyInterval, ExpectedTotalBracketContainsSolverExpectation)
{
    const auto request = paperRequest();
    const core::Design design = core::DesignSolver(request).solve();
    ASSERT_TRUE(design.feasible);

    const Interval per = verify::expectedStructureAccesses(
        request.device, design.width, design.threshold, 0);
    const double copies = static_cast<double>(design.copies);
    EXPECT_LE(per.lo * copies, design.expectedSystemTotal);
    EXPECT_GE(per.hi * copies, design.expectedSystemTotal);
}

TEST(VerifyInterval, OtpBracketsContainAnalytics)
{
    core::OtpParams params;
    params.height = 8;
    params.copies = 128;
    params.threshold = 8;
    params.device = {10.0, 1.0};
    const core::OtpAnalytics analytics(params);

    const Interval path = verify::powInterval(
        verify::deviceReliability(params.device, 1.0), params.height);
    EXPECT_TRUE(path.contains(analytics.pathSuccess()));

    const Interval receiver = verify::parallelReliability(
        params.copies, params.threshold, path);
    EXPECT_TRUE(receiver.contains(analytics.receiverSuccess()));

    const Interval adversary = verify::otpAdversarySuccess(
        params.copies, params.threshold, params.height, path);
    EXPECT_TRUE(adversary.contains(analytics.adversarySuccess()));
    EXPECT_LT(adversary.hi, 1e-6); // the paper's "effectively zero"
}

// --- every V code is reachable from a seeded violation ------------------

TEST(VerifyPasses, CleanDesignCertifiesWithNotesOnly)
{
    const auto request = paperRequest();
    const core::Design design = core::DesignSolver(request).solve();
    ASSERT_TRUE(design.feasible);
    const Report report = verify::verifyGraph(ir::lowerDesign(request, design));
    EXPECT_TRUE(report.hasCode(Code::V001));
    EXPECT_EQ(report.errorCount(), 0u) << report.format();
    EXPECT_EQ(report.warningCount(), 0u) << report.format();
}

TEST(VerifyPasses, UnsatisfiableFloorIsV002)
{
    lint::StructureSpec spec;
    spec.n = 40;
    spec.k = 4;
    spec.accessBound = 30; // per-device survival ~ exp(-3^12)
    spec.minReliability = 0.99;
    const Report report = verify::runBoundPass(ir::lowerStructure(spec));
    EXPECT_TRUE(report.hasCode(Code::V002)) << report.format();
}

TEST(VerifyPasses, ViolatedResidualCeilingIsV003)
{
    lint::StructureSpec spec;
    spec.n = 40;
    spec.k = 4;
    spec.accessBound = 5; // residual checked at access 6: R ~ 1
    spec.maxResidual = 0.01;
    const Report report = verify::runBoundPass(ir::lowerStructure(spec));
    EXPECT_TRUE(report.hasCode(Code::V003)) << report.format();
}

TEST(VerifyPasses, CriterionInsideVacuousBracketIsV004)
{
    Graph graph("inconclusive");
    Node device = node(NodeKind::Device, "broken");
    device.device = {0.0, 0.0}; // vacuous bracket [0, 1]
    const NodeId id = graph.add(std::move(device));
    Obligation floor;
    floor.kind = Obligation::Kind::SurvivalFloor;
    floor.target = id;
    floor.access = 5.0;
    floor.floor = 0.5;
    floor.hasFloor = true;
    graph.addObligation(floor);
    const Report report = verify::runBoundPass(graph);
    EXPECT_TRUE(report.hasCode(Code::V004)) << report.format();
}

TEST(VerifyPasses, CapacityBelowFloorIsV005)
{
    Graph graph("undersized");
    Node device = node(NodeKind::Device, "bank");
    device.device = {10.0, 12.0};
    const NodeId devId = graph.add(std::move(device));
    Node rep = node(NodeKind::Replicate, "copies");
    rep.count = 2;
    const NodeId repId = graph.add(std::move(rep));
    graph.connect(devId, repId);
    Obligation total;
    total.kind = Obligation::Kind::ExpectedTotal;
    total.target = repId;
    total.access = 10.0; // capacity 2 x 10 = 20 << 100
    total.floor = 100.0;
    total.hasFloor = true;
    graph.addObligation(total);
    const Report report = verify::runBoundPass(graph);
    EXPECT_TRUE(report.hasCode(Code::V005)) << report.format();
}

TEST(VerifyPasses, ExpectedTotalAboveCeilingIsV006)
{
    Graph graph("leaky");
    Node par = node(NodeKind::Parallel, "1-of-10");
    par.device = {10.0, 12.0};
    par.n = 10;
    par.k = 1;
    const NodeId parId = graph.add(std::move(par));
    Node rep = node(NodeKind::Replicate, "copies");
    rep.count = 10;
    const NodeId repId = graph.add(std::move(rep));
    graph.connect(parId, repId);
    Obligation total;
    total.kind = Obligation::Kind::ExpectedTotal;
    total.target = repId;
    total.access = 100.0;
    total.ceiling = 50.0; // E ~ 10 copies x ~12 accesses each
    total.hasCeiling = true;
    graph.addObligation(total);
    const Report report = verify::runBoundPass(graph);
    EXPECT_TRUE(report.hasCode(Code::V006)) << report.format();
}

TEST(VerifyPasses, ShallowTreeAdversaryIsV007)
{
    core::OtpParams params;
    params.height = 2; // two paths: random guessing succeeds
    params.copies = 128;
    params.threshold = 8;
    params.device = {10.0, 1.0};
    const Report report =
        verify::runBoundPass(ir::lowerOtp(params, {}, {}));
    EXPECT_TRUE(report.hasCode(Code::V007)) << report.format();
}

TEST(VerifyPasses, StarvedReceiverIsV008)
{
    core::OtpParams params;
    params.height = 8;
    params.copies = 8; // needs all 8 shares through 0.45 path success
    params.threshold = 8;
    params.device = {10.0, 1.0};
    const Report report =
        verify::runBoundPass(ir::lowerOtp(params, {}, {}));
    EXPECT_TRUE(report.hasCode(Code::V008)) << report.format();
}

TEST(VerifyPasses, DeadNodeIsV101AndFaultPlanThereIsV103)
{
    Graph graph("dead-branch");
    const NodeId src = graph.add(node(NodeKind::SecretSource, "key"));
    const NodeId gate = graph.add(node(NodeKind::Device, "gate"));
    const NodeId sink = graph.add(node(NodeKind::Sink, "out"));
    graph.connect(src, gate);
    graph.connect(gate, sink);
    Node orphan = node(NodeKind::Device, "orphan");
    orphan.device = {10.0, 12.0};
    orphan.faultPlan = fault::FaultPlan::stuckClosed(0.01);
    graph.add(std::move(orphan));

    const Report report = verify::runStructuralPass(graph);
    EXPECT_TRUE(report.hasCode(Code::V101)) << report.format();
    EXPECT_TRUE(report.hasCode(Code::V103)) << report.format();
}

TEST(VerifyPasses, OversizedParallelWidthIsV102)
{
    lint::StructureSpec spec;
    spec.n = 400; // half the width still clears the floor easily
    spec.k = 4;
    spec.accessBound = 10;
    spec.minReliability = 0.3;
    const Report report =
        verify::runStructuralPass(ir::lowerStructure(spec));
    EXPECT_TRUE(report.hasCode(Code::V102)) << report.format();
}

TEST(VerifyPasses, UnguardedSharesAreV201AndV202)
{
    lint::ShareSpec spec;
    spec.shares = 16;
    spec.threshold = 8;
    spec.unguarded = 10;
    const Report report = verify::runSecretFlowPass(ir::lowerShares(spec));
    EXPECT_TRUE(report.hasCode(Code::V201)) << report.format();
    EXPECT_TRUE(report.hasCode(Code::V202)) << report.format();

    spec.unguarded = 0;
    EXPECT_TRUE(
        verify::runSecretFlowPass(ir::lowerShares(spec)).empty());
}

TEST(VerifyPasses, SourceCutOffFromSinkIsV203)
{
    Graph graph("cut");
    const NodeId src = graph.add(node(NodeKind::SecretSource, "key"));
    const NodeId store = graph.add(node(NodeKind::Store, "island"));
    graph.add(node(NodeKind::Sink, "out")); // unreachable sink
    graph.connect(src, store);
    const Report report = verify::runSecretFlowPass(graph);
    EXPECT_TRUE(report.hasCode(Code::V203)) << report.format();
}

TEST(VerifyPasses, CyclicGraphIsV901)
{
    Graph graph("cycle");
    const NodeId a = graph.add(node(NodeKind::Device, "a"));
    const NodeId b = graph.add(node(NodeKind::Device, "b"));
    graph.connect(a, b);
    graph.connect(b, a);
    EXPECT_TRUE(verify::runBoundPass(graph).hasCode(Code::V901));
}

// --- the spec check at verify depth (`lemons-lint --verify`) -----------

/** L then V findings for spec @p text, as `lemons-lint --verify`. */
Report
verifySpec(const char *text, const char *filename)
{
    return analysis::checkSpec(text, filename,
                               analysis::CheckDepth::Verify)
        .findings;
}

TEST(VerifySpec, SeededViolationConfigsFireStableCodes)
{
    const Report leak = verifySpec("[shares]\n"
                                   "n = 16\n"
                                   "k = 8\n"
                                   "unguarded = 10\n",
                                   "leak");
    EXPECT_TRUE(leak.hasCode(Code::V201));
    EXPECT_TRUE(leak.hasCode(Code::V202));
    EXPECT_GT(leak.errorCount(), 0u);

    const Report infeasible = verifySpec("[structure]\n"
                                         "kind = parallel\n"
                                         "n = 40\n"
                                         "k = 4\n"
                                         "access_bound = 30\n"
                                         "min_reliability = 0.99\n",
                                         "infeasible");
    EXPECT_TRUE(infeasible.hasCode(Code::V002));
    EXPECT_GT(infeasible.errorCount(), 0u);
}

TEST(VerifySpec, CleanSpecCertifiesWithoutErrors)
{
    const Report report = verifySpec("[structure]\n"
                                     "kind = parallel\n"
                                     "n = 105\n"
                                     "k = 11\n"
                                     "access_bound = 10\n"
                                     "min_reliability = 0.99\n"
                                     "max_residual = 0.01\n",
                                     "clean");
    EXPECT_TRUE(report.hasCode(Code::V001)) << report.format();
    EXPECT_EQ(report.errorCount(), 0u) << report.format();
}

} // namespace
} // namespace lemons
