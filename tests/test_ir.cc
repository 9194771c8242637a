/**
 * @file
 * The architecture IR: graph construction invariants (dense ids,
 * topological order, cycle rejection) and the lowering rules that turn
 * solver designs, structure/share/OTP specs, and parsed `.lemons`
 * files into graphs carrying the right nodes and proof obligations.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>

#include "core/design_solver.h"
#include "ir/graph.h"
#include "ir/lower.h"
#include "lint/spec_file.h"
#include "verify/passes.h"

namespace lemons {
namespace {

using ir::Graph;
using ir::Node;
using ir::NodeId;
using ir::NodeKind;
using ir::Obligation;

Node
node(NodeKind kind, const char *label)
{
    Node n;
    n.kind = kind;
    n.label = label;
    return n;
}

/** Position of each id in @p order, for edge-direction checks. */
std::vector<size_t>
positions(const Graph &graph, const std::vector<NodeId> &order)
{
    std::vector<size_t> pos(graph.size(), 0);
    for (size_t i = 0; i < order.size(); ++i)
        pos[order[i]] = i;
    return pos;
}

/** Count nodes of @p kind in @p graph. */
size_t
countKind(const Graph &graph, NodeKind kind)
{
    size_t count = 0;
    for (const Node &n : graph.nodes())
        if (n.kind == kind)
            ++count;
    return count;
}

TEST(IrGraph, DenseIdsAndEdges)
{
    Graph graph("g");
    const NodeId a = graph.add(node(NodeKind::SecretSource, "a"));
    const NodeId b = graph.add(node(NodeKind::Device, "b"));
    const NodeId c = graph.add(node(NodeKind::Sink, "c"));
    EXPECT_EQ(a, 0u);
    EXPECT_EQ(b, 1u);
    EXPECT_EQ(c, 2u);
    EXPECT_EQ(graph.size(), 3u);

    graph.connect(a, b);
    graph.connect(b, c);
    ASSERT_EQ(graph.successors(a).size(), 1u);
    EXPECT_EQ(graph.successors(a).front(), b);
    const auto preds = graph.predecessors(c);
    ASSERT_EQ(preds.size(), 1u);
    EXPECT_EQ(preds.front(), b);
    EXPECT_TRUE(graph.predecessors(a).empty());

    EXPECT_THROW(graph.connect(a, 99), std::invalid_argument);
    Obligation bad;
    bad.target = 99;
    EXPECT_THROW(graph.addObligation(bad), std::invalid_argument);
}

TEST(IrGraph, TopoOrderRespectsEdges)
{
    Graph graph("g");
    const NodeId a = graph.add(node(NodeKind::SecretSource, "a"));
    const NodeId b = graph.add(node(NodeKind::Device, "b"));
    const NodeId c = graph.add(node(NodeKind::Store, "c"));
    const NodeId d = graph.add(node(NodeKind::Sink, "d"));
    graph.connect(a, b);
    graph.connect(a, c);
    graph.connect(b, d);
    graph.connect(c, d);

    const auto order = graph.topoOrder();
    ASSERT_EQ(order.size(), graph.size());
    const auto pos = positions(graph, order);
    for (NodeId from = 0; from < graph.size(); ++from)
        for (const NodeId to : graph.successors(from))
            EXPECT_LT(pos[from], pos[to]);
}

TEST(IrGraph, CycleYieldsEmptyTopoOrder)
{
    Graph graph("cyclic");
    const NodeId a = graph.add(node(NodeKind::Device, "a"));
    const NodeId b = graph.add(node(NodeKind::Device, "b"));
    graph.connect(a, b);
    graph.connect(b, a);
    EXPECT_TRUE(graph.topoOrder().empty());
}

TEST(IrGraph, KindNamesAreLowercase)
{
    EXPECT_STREQ(ir::nodeKindName(NodeKind::SecretSource), "secret-source");
    EXPECT_STREQ(ir::nodeKindName(NodeKind::Parallel), "parallel");
    EXPECT_STREQ(ir::nodeKindName(NodeKind::Sink), "sink");
}

TEST(IrLower, DesignLowersToFiveNodePipeline)
{
    core::DesignRequest request;
    request.device = {10.0, 12.0};
    request.legitimateAccessBound = 91250;
    request.kFraction = 0.1;
    const core::Design design = core::DesignSolver(request).solve();
    ASSERT_TRUE(design.feasible);

    const Graph graph = ir::lowerDesign(request, design);
    ASSERT_EQ(graph.size(), 5u);
    EXPECT_EQ(graph.node(0).kind, NodeKind::SecretSource);
    EXPECT_EQ(graph.node(1).kind, NodeKind::Device);
    EXPECT_EQ(graph.node(2).kind, NodeKind::Parallel);
    EXPECT_EQ(graph.node(3).kind, NodeKind::Replicate);
    EXPECT_EQ(graph.node(4).kind, NodeKind::Sink);

    EXPECT_EQ(graph.node(2).n, design.width);
    EXPECT_EQ(graph.node(2).k, design.threshold);
    EXPECT_EQ(graph.node(3).count, design.copies);

    // Default regime: survival floor, residual ceiling, expected total.
    ASSERT_EQ(graph.obligations().size(), 3u);
    const Obligation &survival = graph.obligations()[0];
    EXPECT_EQ(survival.kind, Obligation::Kind::SurvivalFloor);
    EXPECT_EQ(survival.target, 2u);
    EXPECT_DOUBLE_EQ(survival.access,
                     static_cast<double>(design.perCopyBound));
    const Obligation &total = graph.obligations()[2];
    EXPECT_EQ(total.kind, Obligation::Kind::ExpectedTotal);
    EXPECT_TRUE(total.hasFloor);
    EXPECT_FALSE(total.hasCeiling);
    EXPECT_DOUBLE_EQ(total.floor, 91250.0);
}

TEST(IrLower, UpperBoundTargetSwapsResidualForCeiling)
{
    core::DesignRequest request;
    request.device = {10.0, 12.0};
    request.legitimateAccessBound = 91250;
    request.upperBoundTarget = 100000;
    const core::Design design = core::DesignSolver(request).solve();
    ASSERT_TRUE(design.feasible);

    const Graph graph = ir::lowerDesign(request, design);
    ASSERT_EQ(graph.obligations().size(), 2u);
    EXPECT_EQ(graph.obligations()[0].kind, Obligation::Kind::SurvivalFloor);
    const Obligation &total = graph.obligations()[1];
    EXPECT_EQ(total.kind, Obligation::Kind::ExpectedTotal);
    EXPECT_TRUE(total.hasCeiling);
    EXPECT_DOUBLE_EQ(total.ceiling, 100000.0);
}

TEST(IrLower, GuessSpaceIsAnObligationTheVerifierSkips)
{
    core::DesignRequest request;
    request.device = {10.0, 12.0};
    request.legitimateAccessBound = 91250;
    const core::Design design = core::DesignSolver(request).solve();
    ASSERT_TRUE(design.feasible);

    lint::DesignLintOptions options;
    options.guessSpace = 1e6;
    options.guessSuccessCeiling = 0.5;
    const Graph graph = ir::lowerDesign(request, design, options);
    ASSERT_EQ(graph.obligations().size(), 4u);
    const Obligation &guess = graph.obligations().back();
    EXPECT_EQ(guess.kind, Obligation::Kind::GuessSuccess);
    EXPECT_EQ(graph.node(guess.target).kind, NodeKind::Replicate);
    EXPECT_DOUBLE_EQ(guess.access, 1e6);
    EXPECT_TRUE(guess.hasCeiling);
    EXPECT_DOUBLE_EQ(guess.ceiling, 0.5);

    // The analyzer discharges it; the verifier's verdict is unchanged.
    EXPECT_EQ(verify::verifyGraph(graph).format(),
              verify::verifyGraph(ir::lowerDesign(request, design))
                  .format());
}

TEST(IrLower, StructureSeriesAndParallelShapes)
{
    lint::StructureSpec parallel;
    parallel.n = 40;
    parallel.k = 4;
    parallel.accessBound = 5;
    parallel.minReliability = 0.9;
    parallel.maxResidual = 0.5;
    const Graph pg = ir::lowerStructure(parallel);
    EXPECT_EQ(countKind(pg, NodeKind::Parallel), 1u);
    EXPECT_EQ(countKind(pg, NodeKind::Series), 0u);
    EXPECT_EQ(pg.obligations().size(), 2u); // floor + residual, no copies

    lint::StructureSpec series;
    series.kind = lint::StructureSpec::Kind::Series;
    series.n = 6;
    series.copies = 10;
    series.accessBound = 3;
    const Graph sg = ir::lowerStructure(series);
    EXPECT_EQ(countKind(sg, NodeKind::Series), 1u);
    EXPECT_EQ(countKind(sg, NodeKind::Replicate), 1u);
    // Only the expected-total obligation: no reliability annotations.
    ASSERT_EQ(sg.obligations().size(), 1u);
    EXPECT_EQ(sg.obligations()[0].kind, Obligation::Kind::ExpectedTotal);
    EXPECT_DOUBLE_EQ(sg.obligations()[0].floor, 30.0);
}

TEST(IrLower, SharesSplitGuardedAndBareBranches)
{
    lint::ShareSpec spec;
    spec.shares = 16;
    spec.threshold = 8;
    spec.unguarded = 10;
    const Graph graph = ir::lowerShares(spec);
    ASSERT_EQ(graph.size(), 4u); // source, gate, store, sink
    EXPECT_EQ(countKind(graph, NodeKind::Device), 1u);
    EXPECT_EQ(countKind(graph, NodeKind::Store), 1u);
    for (const Node &n : graph.nodes()) {
        if (n.kind == NodeKind::Device) {
            EXPECT_EQ(n.n, 6u);
        }
        if (n.kind == NodeKind::Store) {
            EXPECT_EQ(n.n, 10u);
        }
    }

    // Fully guarded: the bare-store branch disappears.
    spec.unguarded = 0;
    const Graph clean = ir::lowerShares(spec);
    EXPECT_EQ(countKind(clean, NodeKind::Store), 0u);

    // unguarded > shares clamps instead of underflowing (fuzz input).
    spec.unguarded = 99;
    const Graph clamped = ir::lowerShares(spec);
    EXPECT_EQ(countKind(clamped, NodeKind::Device), 0u);
}

TEST(IrLower, OtpCarriesBothBoundsOnOneObligation)
{
    core::OtpParams params;
    params.height = 8;
    params.copies = 128;
    params.threshold = 8;
    params.device = {10.0, 1.0};
    const Graph graph = ir::lowerOtp(params, 0.95, 1e-5);
    ASSERT_EQ(graph.size(), 5u);
    EXPECT_EQ(countKind(graph, NodeKind::Series), 1u);
    EXPECT_EQ(countKind(graph, NodeKind::Parallel), 1u);
    ASSERT_EQ(graph.obligations().size(), 1u);
    const Obligation &otp = graph.obligations().front();
    EXPECT_EQ(otp.kind, Obligation::Kind::OtpBounds);
    EXPECT_TRUE(otp.hasFloor);
    EXPECT_TRUE(otp.hasCeiling);
    EXPECT_DOUBLE_EQ(otp.access, 8.0);
    EXPECT_DOUBLE_EQ(otp.floor, 0.95);
    EXPECT_DOUBLE_EQ(otp.ceiling, 1e-5);
}

TEST(IrLower, SpecLowersEverySectionAndAttachesFaults)
{
    lint::Report parseReport;
    const lint::ParsedSpec spec = lint::parseSpec("[structure]\n"
                                                  "kind = parallel\n"
                                                  "n = 40\n"
                                                  "k = 4\n"
                                                  "[shares]\n"
                                                  "n = 16\n"
                                                  "k = 8\n"
                                                  "[fault]\n"
                                                  "glitch_rate = 0.01\n",
                                                  "spec", parseReport);
    ASSERT_EQ(spec.structures.size(), 1u);
    ASSERT_EQ(spec.shares.size(), 1u);
    ASSERT_EQ(spec.faults.size(), 1u);

    lint::Report lowerReport;
    const auto graphs = ir::lowerSpec(spec, lowerReport);
    ASSERT_EQ(graphs.size(), 2u);
    EXPECT_FALSE(lowerReport.hasCode(lint::Code::V901));
    for (const Graph &graph : graphs)
        for (const Node &n : graph.nodes())
            if (n.kind == NodeKind::Device) {
                ASSERT_TRUE(n.faultPlan.has_value());
                EXPECT_DOUBLE_EQ(n.faultPlan->glitchRate, 0.01);
            }
}

TEST(IrLower, InfeasibleDesignIsV901NotAGraph)
{
    lint::DesignSection section;
    // beta = 0.5: survival decays too gently for any width to satisfy
    // R(t) >= 0.99 and R(t+1) <= 0.01 simultaneously.
    section.request.device = {10.0, 0.5};
    section.request.legitimateAccessBound = 91250;
    lint::ParsedSpec spec;
    spec.designs.push_back(section);

    lint::Report report;
    const auto graphs = ir::lowerSpec(spec, report);
    EXPECT_TRUE(graphs.empty());
    EXPECT_TRUE(report.hasCode(lint::Code::V901));
}

TEST(IrLower, RuleRejectedDesignIsV901)
{
    lint::DesignSection section;
    section.request.device = {0.0, 12.0}; // L001 -> solver ctor throws
    lint::ParsedSpec spec;
    spec.designs.push_back(section);

    lint::Report report;
    const auto graphs = ir::lowerSpec(spec, report);
    EXPECT_TRUE(graphs.empty());
    EXPECT_TRUE(report.hasCode(lint::Code::V901));
}

} // namespace
} // namespace lemons
