/**
 * @file
 * The wear-budget abstract interpreter: the AccessBracket lattice and
 * its widening, the capacity/demand dataflow over hand-built IR
 * graphs, the A-code catalog goldens on seeded-violation configs, the
 * clean bill of health on every shipped example config, and the
 * analyze result inside the lemons-api/1 envelope.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>

#include "analysis/bracket.h"
#include "analysis/passes.h"
#include "analysis/report.h"
#include "api/codec.h"
#include "ir/graph.h"
#include "lint/diagnostics.h"
#include "lint/rules.h"
#include "obs/metrics.h"
#include "verify/interval.h"

namespace lemons {
namespace {

using analysis::AccessBracket;

constexpr double kInf = std::numeric_limits<double>::infinity();

ir::Node
node(ir::NodeKind kind, const char *label)
{
    ir::Node n;
    n.kind = kind;
    n.label = label;
    return n;
}

std::string
configPath(const char *name)
{
    return std::string(LEMONS_CONFIG_DIR) + "/" + name;
}

/** The analyzer's result for a shipped config, at analyze depth. */
analysis::FileAnalysis
analyzeConfig(const char *name)
{
    return analysis::checkSpecFile(configPath(name),
                                   analysis::CheckDepth::Analyze)
        .analysis;
}

/** The analyzer's result for spec @p text, at analyze depth. */
analysis::FileAnalysis
analyzeText(const char *text, const char *filename)
{
    return analysis::checkSpec(text, filename,
                               analysis::CheckDepth::Analyze)
        .analysis;
}

/** A-severity tallies of a FileAnalysis, ignoring notes. */
struct ACounts
{
    size_t errors = 0;
    size_t warnings = 0;
};

ACounts
aCounts(const analysis::FileAnalysis &analysis)
{
    ACounts counts;
    for (const lint::Diagnostic &d : analysis.findings.diagnostics()) {
        if (d.severity == lint::Severity::Error)
            ++counts.errors;
        else if (d.severity == lint::Severity::Warning)
            ++counts.warnings;
    }
    return counts;
}

// --- the abstract domain ------------------------------------------------

TEST(AccessBracket, LatticeOperations)
{
    const AccessBracket a{10.0, 20.0};
    const AccessBracket b{5.0, 30.0};

    const AccessBracket sum = analysis::add(a, b);
    EXPECT_DOUBLE_EQ(sum.lo, 15.0);
    EXPECT_DOUBLE_EQ(sum.hi, 50.0);

    const AccessBracket scaled = analysis::scale(a, 3.0);
    EXPECT_DOUBLE_EQ(scaled.lo, 30.0);
    EXPECT_DOUBLE_EQ(scaled.hi, 60.0);

    const AccessBracket gated = analysis::meetMin(a, b);
    EXPECT_DOUBLE_EQ(gated.lo, 5.0);
    EXPECT_DOUBLE_EQ(gated.hi, 20.0);

    const AccessBracket hull = analysis::join(a, b);
    EXPECT_DOUBLE_EQ(hull.lo, 5.0);
    EXPECT_DOUBLE_EQ(hull.hi, 30.0);
}

TEST(AccessBracket, InfinityIsAbsorbedSoundly)
{
    // 0 * inf is 0 by convention: an empty replication consumes
    // nothing regardless of upstream capacity.
    const AccessBracket zero = analysis::scale(AccessBracket::top(), 0.0);
    EXPECT_DOUBLE_EQ(zero.lo, 0.0);
    EXPECT_DOUBLE_EQ(zero.hi, 0.0);

    // [inf, inf] is the identity of meetMin: a non-wearing node never
    // tightens a capacity bound.
    const AccessBracket identity{kInf, kInf};
    const AccessBracket a{10.0, 20.0};
    const AccessBracket gated = analysis::meetMin(identity, a);
    EXPECT_DOUBLE_EQ(gated.lo, a.lo);
    EXPECT_DOUBLE_EQ(gated.hi, a.hi);
}

TEST(AccessBracket, DegenerateInputsCollapseToTop)
{
    const double nan = std::numeric_limits<double>::quiet_NaN();
    EXPECT_TRUE(analysis::scale({1.0, 2.0}, nan).isTop());
    EXPECT_TRUE(analysis::scale({1.0, 2.0}, -1.0).isTop());
    EXPECT_TRUE(analysis::scale({1.0, 2.0}, kInf).isTop());
    EXPECT_TRUE(analysis::add({nan, nan}, {1.0, 2.0}).isTop());
}

TEST(AccessBracket, WideningStabilizesAscendingChains)
{
    // Endpoints that moved jump straight to the lattice bound...
    const AccessBracket widened =
        analysis::widen({10.0, 20.0}, {5.0, 25.0});
    EXPECT_DOUBLE_EQ(widened.lo, 0.0);
    EXPECT_TRUE(widened.unboundedAbove());

    // ...and endpoints that did not move stay put, so a second
    // application is a fixpoint.
    const AccessBracket stable = analysis::widen(widened, widened);
    EXPECT_DOUBLE_EQ(stable.lo, widened.lo);
    EXPECT_DOUBLE_EQ(stable.hi, widened.hi);
}

TEST(AccessBracket, WorkloadDemandEnvelopeIsCentered)
{
    lint::WorkloadSpec workload;
    workload.meanPerDay = 100.0;
    const AccessBracket demand = analysis::workloadDemand(workload, 365);

    // 36,500 expected accesses, +/- 6 sigma of sqrt(36,500).
    EXPECT_TRUE(demand.contains(36500.0));
    const double sigma = std::sqrt(36500.0);
    EXPECT_NEAR(demand.lo, 36500.0 - 6.0 * sigma, 1.0);
    EXPECT_NEAR(demand.hi, 36500.0 + 6.0 * sigma, 1.0);
}

TEST(AccessBracket, BurstMixtureWidensTheEnvelope)
{
    lint::WorkloadSpec plain;
    plain.meanPerDay = 50.0;
    lint::WorkloadSpec bursty = plain;
    bursty.burstProbability = 0.1;
    bursty.burstMultiplier = 3.0;

    const AccessBracket p = analysis::workloadDemand(plain, 365);
    const AccessBracket b = analysis::workloadDemand(bursty, 365);
    // Bursts raise both the mean and the spread.
    EXPECT_GT(b.hi, p.hi);
    EXPECT_GT(b.hi - b.lo, p.hi - p.lo);
}

TEST(AccessBracket, UnboundedHorizonWidensToInfinity)
{
    lint::WorkloadSpec workload;
    workload.meanPerDay = 50.0;
    const AccessBracket demand = analysis::unboundedHorizonDemand(workload);
    EXPECT_GT(demand.lo, 0.0);
    EXPECT_TRUE(std::isfinite(demand.lo));
    EXPECT_TRUE(demand.unboundedAbove());
}

TEST(AccessBracket, ChernoffTailsAreProbabilities)
{
    lint::WorkloadSpec workload;
    workload.meanPerDay = 50.0;
    workload.burstProbability = 0.1;
    workload.burstMultiplier = 3.0;

    // Far above the mean: negligible. At the mean: vacuous-ish but
    // still a probability. Far below (lower tail): negligible.
    const double mean365 = 365.0 * 50.0 * 1.2;
    const double farAbove =
        analysis::demandTailBound(workload, 365, 2.0 * mean365, true);
    const double atMean =
        analysis::demandTailBound(workload, 365, mean365, true);
    const double farBelow =
        analysis::demandTailBound(workload, 365, 0.5 * mean365, false);

    EXPECT_LT(farAbove, 1e-6);
    EXPECT_GE(atMean, 0.0);
    EXPECT_LE(atMean, 1.0);
    EXPECT_LT(farBelow, 1e-6);
}

TEST(AccessBracket, LockoutProbabilityRespectsTheBound)
{
    lint::MixtureSpec lifetime; // pure designed wearout
    lifetime.main = {150000.0, 12.0}; // fielded-unit scale
    // Demand past the access bound is a certain lockout.
    const verify::Interval certain = analysis::lockoutProbability(
        lifetime, AccessBracket::point(100000.0), 91250.0);
    EXPECT_DOUBLE_EQ(certain.lo, 1.0);
    // Tiny demand against a designed-wearout lot: negligible.
    const verify::Interval tiny = analysis::lockoutProbability(
        lifetime, AccessBracket::point(100.0), 91250.0);
    EXPECT_LT(tiny.hi, 1e-6);
}

// --- the dataflow over the IR -------------------------------------------

TEST(Propagate, DeviceChainCapacityMatchesCertifiedExpectation)
{
    ir::Graph graph("chain");
    const ir::NodeId src =
        graph.add(node(ir::NodeKind::SecretSource, "key"));
    ir::Node bank = node(ir::NodeKind::Device, "bank");
    bank.device = {10.0, 12.0};
    bank.n = 105;
    const ir::NodeId dev = graph.add(bank);
    const ir::NodeId sink = graph.add(node(ir::NodeKind::Sink, "out"));
    graph.connect(src, dev);
    graph.connect(dev, sink);

    const analysis::GraphBudget budget = analysis::propagateBudgets(graph);
    ASSERT_FALSE(budget.vacuous);
    const verify::Interval expected =
        verify::expectedStructureAccesses({10.0, 12.0}, 105, 1, 0);
    EXPECT_DOUBLE_EQ(budget.systemCapacity.lo, expected.lo);
    EXPECT_DOUBLE_EQ(budget.systemCapacity.hi, expected.hi);
}

TEST(Propagate, ReplicateMultipliesCapacityAndDividesDemand)
{
    ir::Graph graph("replicated");
    const ir::NodeId src =
        graph.add(node(ir::NodeKind::SecretSource, "key"));
    ir::Node bank = node(ir::NodeKind::Device, "bank");
    bank.device = {10.0, 12.0};
    bank.n = 105;
    const ir::NodeId dev = graph.add(bank);
    ir::Node copies = node(ir::NodeKind::Replicate, "copies");
    copies.count = 40;
    const ir::NodeId rep = graph.add(copies);
    const ir::NodeId sink = graph.add(node(ir::NodeKind::Sink, "out"));
    graph.connect(src, dev);
    graph.connect(dev, rep);
    graph.connect(rep, sink);

    const analysis::GraphBudget budget = analysis::propagateBudgets(
        graph, AccessBracket::point(400.0));
    ASSERT_FALSE(budget.vacuous);

    const verify::Interval per =
        verify::expectedStructureAccesses({10.0, 12.0}, 105, 1, 0);
    EXPECT_DOUBLE_EQ(budget.systemCapacity.lo, 40.0 * per.lo);
    EXPECT_DOUBLE_EQ(budget.systemCapacity.hi, 40.0 * per.hi);

    // 400 accesses across 40 serially consumed copies: 10 per copy
    // reach the feeding device.
    EXPECT_DOUBLE_EQ(budget.nodes.at(dev).demand.lo, 10.0);
    EXPECT_DOUBLE_EQ(budget.nodes.at(dev).demand.hi, 10.0);
    EXPECT_DOUBLE_EQ(budget.systemDemand.lo, 400.0);
}

TEST(Propagate, TightestGateBoundsTheSystem)
{
    // Two wearout stages in series: the system bracket cannot exceed
    // the weaker stage's upper endpoint.
    ir::Graph graph("gated");
    ir::Node weak = node(ir::NodeKind::Device, "weak");
    weak.device = {10.0, 12.0};
    weak.n = 1;
    const ir::NodeId a = graph.add(weak);
    ir::Node strong = node(ir::NodeKind::Device, "strong");
    strong.device = {10.0, 12.0};
    strong.n = 105;
    const ir::NodeId b = graph.add(strong);
    const ir::NodeId sink = graph.add(node(ir::NodeKind::Sink, "out"));
    graph.connect(a, b);
    graph.connect(b, sink);

    const analysis::GraphBudget budget = analysis::propagateBudgets(graph);
    ASSERT_FALSE(budget.vacuous);
    const verify::Interval weaker =
        verify::expectedStructureAccesses({10.0, 12.0}, 1, 1, 0);
    EXPECT_LE(budget.systemCapacity.hi, weaker.hi);
}

TEST(Propagate, CyclicGraphIsVacuous)
{
    ir::Graph graph("cyclic");
    const ir::NodeId a = graph.add(node(ir::NodeKind::Device, "a"));
    const ir::NodeId b = graph.add(node(ir::NodeKind::Device, "b"));
    graph.connect(a, b);
    graph.connect(b, a);

    const analysis::GraphBudget budget = analysis::propagateBudgets(graph);
    EXPECT_TRUE(budget.vacuous);
    EXPECT_TRUE(budget.systemCapacity.isTop());
}

TEST(Propagate, StoreOnlyPathIsUnbounded)
{
    ir::Graph graph("bare");
    const ir::NodeId src =
        graph.add(node(ir::NodeKind::SecretSource, "key"));
    const ir::NodeId store = graph.add(node(ir::NodeKind::Store, "htree"));
    const ir::NodeId sink = graph.add(node(ir::NodeKind::Sink, "out"));
    graph.connect(src, store);
    graph.connect(store, sink);

    const analysis::GraphBudget budget = analysis::propagateBudgets(graph);
    ASSERT_FALSE(budget.vacuous);
    EXPECT_TRUE(budget.systemCapacity.unboundedAbove());
}

// --- A-code goldens -----------------------------------------------------

TEST(Analyze, BudgetExhaustionRaisesA001)
{
    const analysis::FileAnalysis analysis =
        analyzeConfig("violations/budget_exhaustion.lemons");
    EXPECT_TRUE(analysis.findings.hasCode(lint::Code::A001));
    EXPECT_EQ(aCounts(analysis).errors, 1u);
}

TEST(Analyze, PrematureFleetRaisesA002)
{
    const analysis::FileAnalysis analysis =
        analyzeConfig("violations/premature_fleet.lemons");
    EXPECT_TRUE(analysis.findings.hasCode(lint::Code::A002));
    EXPECT_EQ(aCounts(analysis).errors, 1u);

    // The certified bracket that justifies the error is reported too.
    ASSERT_EQ(analysis.cohorts.size(), 1u);
    EXPECT_GT(analysis.cohorts[0].premature.lo, 0.05);
    EXPECT_LE(analysis.cohorts[0].premature.hi, 1.0);
}

TEST(Analyze, DeadWearRaisesA003)
{
    const analysis::FileAnalysis analysis =
        analyzeConfig("violations/dead_wear.lemons");
    EXPECT_TRUE(analysis.findings.hasCode(lint::Code::A003));
    EXPECT_EQ(aCounts(analysis).errors, 0u);
    EXPECT_EQ(aCounts(analysis).warnings, 1u);
}

TEST(Analyze, GuessingAdversaryRaisesA101)
{
    const analysis::FileAnalysis analysis =
        analyzeConfig("violations/guessing_adversary.lemons");
    EXPECT_TRUE(analysis.findings.hasCode(lint::Code::A101));
    ASSERT_EQ(analysis.adversaries.size(), 1u);
    EXPECT_GT(analysis.adversaries[0].success.lo, 0.01);
}

TEST(Analyze, UnguardedSharesRaiseA102)
{
    const analysis::FileAnalysis analysis =
        analyzeConfig("violations/unbounded_wearout.lemons");
    EXPECT_TRUE(analysis.findings.hasCode(lint::Code::A102));
}

TEST(Analyze, StraddlingCeilingRaisesA103)
{
    // A ceiling inside the certified bracket: undecidable statically,
    // warned (A103) rather than condemned.
    const analysis::FileAnalysis analysis = analyzeText(
        "[design]\n"
        "alpha = 10\nbeta = 12\nlab = 91250\nk_fraction = 0.1\n"
        "min_reliability = 0.99\nmax_residual_reliability = 0.01\n"
        "guess_space = 1e6\nguess_success_ceiling = 0.09131\n",
        "straddle.lemons");
    EXPECT_TRUE(analysis.findings.hasCode(lint::Code::A103));
    EXPECT_EQ(aCounts(analysis).errors, 0u);
}

TEST(Analyze, DischargedObligationRaisesA104)
{
    const analysis::FileAnalysis analysis = analyzeText(
        "[design]\n"
        "alpha = 10\nbeta = 12\nlab = 91250\nk_fraction = 0.1\n"
        "min_reliability = 0.99\nmax_residual_reliability = 0.01\n"
        "guess_space = 1e9\nguess_success_ceiling = 0.001\n",
        "discharged.lemons");
    EXPECT_TRUE(analysis.findings.hasCode(lint::Code::A104));
    EXPECT_EQ(aCounts(analysis).errors, 0u);
    EXPECT_EQ(aCounts(analysis).warnings, 0u);
}

TEST(Analyze, DesignIsSolvedOncePerCheck)
{
    // ir::lowerSpec is the one place a [design] is solved; the
    // adversary pass reads its budget from the lowered graph.
    const obs::Counter &solves =
        obs::Registry::global().counter("core.solver.solves");
    const uint64_t before = solves.get();
    const analysis::FileAnalysis analysis =
        analyzeConfig("smartphone_unlock.lemons");
    EXPECT_EQ(solves.get() - before, 1u);
    ASSERT_EQ(analysis.adversaries.size(), 1u);
    EXPECT_EQ(analysis.adversaries[0].guessSpace, 1e6);
}

TEST(Analyze, InfeasibleDesignHasNoAdversary)
{
    // A section that lowers to no graph carries no guessing
    // obligation: V901 is its only verdict.
    const analysis::AnalyzedFile checked = analysis::checkSpec(
        "[design]\n"
        "alpha = 10\nbeta = 12\nlab = 91250\nk_fraction = 0.1\n"
        "min_reliability = 0.99\nmax_residual_reliability = 0.01\n"
        "max_width = 8\nguess_space = 1e6\n"
        "guess_success_ceiling = 0.5\n",
        "infeasible.lemons", analysis::CheckDepth::Analyze);
    EXPECT_TRUE(checked.findings.hasCode(lint::Code::V901))
        << checked.findings.format();
    EXPECT_TRUE(checked.analysis.adversaries.empty());
}

TEST(Analyze, ShippedConfigsAreClean)
{
    for (const char *name :
         {"fault_baseline.lemons", "fleet_smartphone.lemons",
          "otp_messaging.lemons", "paper_defaults.lemons",
          "smartphone_unlock.lemons", "targeting_mission.lemons"}) {
        const analysis::FileAnalysis analysis = analyzeConfig(name);
        const ACounts counts = aCounts(analysis);
        EXPECT_EQ(counts.errors, 0u) << name << ":\n"
                                     << analysis.findings.format();
        EXPECT_EQ(counts.warnings, 0u) << name << ":\n"
                                       << analysis.findings.format();
    }
}

TEST(Analyze, ShippedDesignBracketsStayTight)
{
    // The smartphone design's certified capacity bracket must stay a
    // sub-percent band around the paper's LAB = 91,250 architecture.
    const analysis::FileAnalysis analysis =
        analyzeConfig("smartphone_unlock.lemons");
    bool sawDesign = false;
    for (const analysis::GraphBudget &g : analysis.graphs) {
        if (g.graph != "design")
            continue;
        sawDesign = true;
        EXPECT_FALSE(g.vacuous);
        EXPECT_GT(g.systemCapacity.lo, 85000.0);
        EXPECT_LT(g.systemCapacity.hi, 95000.0);
        EXPECT_LT(g.systemCapacity.hi - g.systemCapacity.lo,
                  0.01 * g.systemCapacity.lo);
    }
    EXPECT_TRUE(sawDesign);
}

TEST(Analyze, UnreadableFileYieldsEmptyAnalysis)
{
    const analysis::AnalyzedFile checked = analysis::checkSpecFile(
        configPath("no_such_file.lemons"), analysis::CheckDepth::Analyze);
    EXPECT_TRUE(checked.analysis.graphs.empty());
    EXPECT_TRUE(checked.analysis.findings.empty());
    // The file is reported once, by the parse, as L901.
    ASSERT_EQ(checked.findings.diagnostics().size(), 1u);
    EXPECT_TRUE(checked.findings.hasCode(lint::Code::L901));
}

// --- the JSON envelope --------------------------------------------------

TEST(AnalyzeJson, ReportCarriesSchemaAndBrackets)
{
    const analysis::AnalyzedFile entry = analysis::checkSpecFile(
        configPath("smartphone_unlock.lemons"),
        analysis::CheckDepth::Analyze);
    const std::string json = api::renderAnalysisEnvelope({entry});

    EXPECT_NE(json.find("\"schema\":\"lemons-api/1\""), std::string::npos);
    EXPECT_NE(json.find("\"graphs\""), std::string::npos);
    EXPECT_NE(json.find("\"system_capacity\""), std::string::npos);
    EXPECT_NE(json.find("\"adversaries\""), std::string::npos);
    // Unbounded endpoints serialize as null, never as bare inf (which
    // would break every JSON parser downstream).
    EXPECT_EQ(json.find("inf"), std::string::npos);
}

// --- the shared code registry -------------------------------------------

TEST(Registry, AnalyzerCodesAreCataloged)
{
    EXPECT_STREQ(lint::codeInfo(lint::Code::A001).id, "A001");
    EXPECT_STREQ(lint::codeInfo(lint::Code::A104).id, "A104");
    EXPECT_STREQ(lint::codeInfo(lint::Code::C105).id, "C105");
    EXPECT_EQ(lint::codeInfo(lint::Code::A003).severity,
              lint::Severity::Warning);
    EXPECT_EQ(lint::codeInfo(lint::Code::A004).severity,
              lint::Severity::Note);
    EXPECT_EQ(lint::codeInfo(lint::Code::A102).severity,
              lint::Severity::Error);

    // Every A/C row is reachable through the one shared catalog.
    size_t aRows = 0, cRows = 0;
    for (const lint::CodeInfo &info : lint::codeCatalog()) {
        if (info.id[0] == 'A')
            ++aRows;
        else if (info.id[0] == 'C')
            ++cRows;
    }
    EXPECT_EQ(aRows, 8u);
    EXPECT_EQ(cRows, 7u);
}

} // namespace
} // namespace lemons
