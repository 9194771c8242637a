/**
 * @file
 * Cross-validation of the wear-budget analyzer against the Monte
 * Carlo engines: every certified access-count / probability bracket
 * must contain the corresponding simulated estimate within a
 * CI-stable sampling tolerance. The analyzer and the simulators
 * derive from the same Weibull technology by independent routes, so a
 * disagreement here means one of them drifted — exactly the
 * regression this suite exists to catch (the access-count counterpart
 * of test_verify_cross.cc).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>

#include "analysis/bracket.h"
#include "analysis/passes.h"
#include "analysis/report.h"
#include "arch/structures_sim.h"
#include "core/design_solver.h"
#include "core/usage_bounds.h"
#include "fleet/campaign.h"
#include "lint/spec_file.h"
#include "sim/workload.h"
#include "util/rng.h"
#include "util/stats.h"
#include "wearout/population.h"

namespace lemons {
namespace {

using analysis::AccessBracket;

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

/** Bracket check with an MC slack on both sides. */
void
expectWithinBracket(double estimate, double lo, double hi, double slack,
                    const char *what)
{
    EXPECT_GE(estimate, lo - slack) << what;
    EXPECT_LE(estimate, hi + slack) << what;
}

core::Design
solvedDesign(uint64_t lab)
{
    core::DesignRequest request;
    request.device = {10.0, 12.0};
    request.legitimateAccessBound = lab;
    request.kFraction = 0.1;
    return core::DesignSolver(request).solve();
}

const analysis::GraphBudget *
findGraph(const analysis::FileAnalysis &analysis, const char *name)
{
    for (const analysis::GraphBudget &g : analysis.graphs)
        if (g.graph == name)
            return &g;
    return nullptr;
}

/**
 * The design graph's capacity bracket at the paper's full LAB =
 * 91,250 scale must contain the simulated mean total accesses of the
 * solved architecture.
 */
TEST(AnalysisCross, DesignCapacityBracketsMonteCarlo)
{
    const analysis::FileAnalysis analyzed = analyzeText(
        "[design]\n"
        "alpha = 10\nbeta = 12\nlab = 91250\nk_fraction = 0.1\n",
        "design91250.lemons");
    const analysis::GraphBudget *design = findGraph(analyzed, "design");
    ASSERT_NE(design, nullptr);
    ASSERT_FALSE(design->vacuous);

    const core::Design solved = solvedDesign(91250);
    ASSERT_TRUE(solved.feasible);
    const uint64_t trials = 24;
    const core::UsageBounds mc = core::estimateUsageBounds(
        solved, {10.0, 12.0}, wearout::ProcessVariation::none(), trials,
        0xc0551);
    // The observed min-max spread dominates the standard error of the
    // mean by a factor sqrt(trials), so it is a CI-stable slack.
    const double slack =
        (mc.maxTotalAccesses - mc.minTotalAccesses) + 1.0;
    expectWithinBracket(mc.meanTotalAccesses, design->systemCapacity.lo,
                        design->systemCapacity.hi, slack,
                        "design mean total accesses (LAB 91250)");
}

/**
 * Same containment at the small LAB = 100 mission scale, where
 * per-copy granularity effects are proportionally largest.
 */
TEST(AnalysisCross, SmallDesignCapacityBracketsMonteCarlo)
{
    const analysis::FileAnalysis analyzed = analyzeText(
        "[design]\n"
        "alpha = 10\nbeta = 12\nlab = 100\nk_fraction = 0.1\n",
        "design100.lemons");
    const analysis::GraphBudget *design = findGraph(analyzed, "design");
    ASSERT_NE(design, nullptr);
    ASSERT_FALSE(design->vacuous);

    const core::Design solved = solvedDesign(100);
    ASSERT_TRUE(solved.feasible);
    const uint64_t trials = 2000;
    const core::UsageBounds mc = core::estimateUsageBounds(
        solved, {10.0, 12.0}, wearout::ProcessVariation::none(), trials,
        0xc0552);
    const double slack = (mc.q999 - mc.q001) * 0.25 + 1.0;
    expectWithinBracket(mc.meanTotalAccesses, design->systemCapacity.lo,
                        design->systemCapacity.hi, slack,
                        "design mean total accesses (LAB 100)");
}

/**
 * The workload demand envelope must contain the simulated mean of
 * accesses actually drawn by the bursty daily profile, and its
 * exhaustion bound must cover the exact usage survival's complement.
 */
TEST(AnalysisCross, WorkloadDemandBracketsSimulatedUsage)
{
    lint::WorkloadSpec workload;
    workload.meanPerDay = 50.0;
    workload.burstProbability = 0.05;
    workload.burstMultiplier = 3.0;
    const AccessBracket demand = analysis::workloadDemand(workload, 365);
    ASSERT_FALSE(demand.unboundedAbove());

    sim::UsageProfile profile;
    profile.meanPerDay = workload.meanPerDay;
    profile.burstProbability = workload.burstProbability;
    profile.burstMultiplier = workload.burstMultiplier;

    // A budget far above any plausible draw, so every access is
    // served and accessesServed is exactly the realized demand.
    const uint64_t bottomless = 1u << 30;
    const uint64_t trials = 300;
    Rng rng(0xa0551);
    RunningStats served;
    for (uint64_t t = 0; t < trials; ++t) {
        const sim::LifetimeOutcome outcome =
            sim::simulateUsage(profile, bottomless, 365, rng);
        served.add(static_cast<double>(outcome.accessesServed));
    }
    // 5 standard errors of the sample mean, floored at one access.
    const double slack =
        5.0 * served.stddev() / std::sqrt(static_cast<double>(trials)) +
        1.0;
    expectWithinBracket(served.mean(), demand.lo, demand.hi, slack,
                        "workload mean realized demand");

    // The certified Chernoff exhaustion bound P(total >= budget) must
    // cover the exact exhaustion probability 1 - P(total <= budget)
    // around the ~20,075 +/- 440 horizon demand.
    const sim::MonteCarlo unused(0, 1);
    for (const uint64_t budget : {19000u, 20075u, 21000u, 22000u, 23000u}) {
        const double exhausted =
            1.0 - sim::survivalProbability(profile, budget, 365, unused)
                      .estimate;
        EXPECT_GE(analysis::exhaustionProbabilityUpper(
                      workload, 365, static_cast<double>(budget)),
                  exhausted)
            << "budget " << budget;
    }
}

/**
 * The shipped fleet campaign's per-cohort premature-lockout brackets
 * must contain the simulated premature rates (Wilson slack): the
 * analyzer predicts the tail risk the campaign then measures.
 */
TEST(AnalysisCross, FleetPrematureBracketsCampaignEstimates)
{
    lint::Report report;
    const lint::ParsedSpec parsed = lint::parseSpecFile(
        configPath("fleet_smartphone.lemons"), report);
    ASSERT_FALSE(report.hasErrors()) << report.format();
    ASSERT_EQ(parsed.fleets.size(), 1u);

    lint::FleetSpec spec = parsed.fleets[0];
    spec.devices = 1500; // enough for a stable premature proportion

    fleet::CampaignOptions options;
    options.threads = 2;
    const fleet::FleetSummary summary =
        fleet::FleetCampaign(spec).run(options);
    ASSERT_TRUE(summary.complete());
    ASSERT_EQ(summary.cohorts.size(), spec.cohorts.size());

    for (size_t i = 0; i < summary.cohorts.size(); ++i) {
        const fleet::CohortResult &cohort = summary.cohorts[i];
        const verify::Interval bracket =
            analysis::prematureLockoutBracket(spec.cohorts[i], spec);
        const ProportionInterval wilson = cohort.prematureInterval();
        const double slack = (wilson.high - wilson.low) / 2.0 + 1e-3;
        expectWithinBracket(wilson.estimate, bracket.lo, bracket.hi,
                            slack, cohort.name.c_str());
    }
}

/**
 * The guessing-adversary success bracket must contain the Monte Carlo
 * estimate: spend each simulated lifetime's total accesses on guesses
 * over the declared space and average the per-trial success chance.
 */
TEST(AnalysisCross, GuessSuccessBracketsMonteCarlo)
{
    const analysis::FileAnalysis analyzed =
        analyzeConfig("violations/guessing_adversary.lemons");
    ASSERT_EQ(analyzed.adversaries.size(), 1u);
    const analysis::AdversaryAnalysis &adversary = analyzed.adversaries[0];
    const double guessSpace = adversary.guessSpace;
    ASSERT_GT(guessSpace, 0.0);

    const core::Design solved = solvedDesign(91250);
    ASSERT_TRUE(solved.feasible);
    const uint64_t trials = 24;
    const core::UsageBounds mc = core::estimateUsageBounds(
        solved, {10.0, 12.0}, wearout::ProcessVariation::none(), trials,
        0xc0553);
    // E[min(1, T/G)] from the aggregate mean; valid because even the
    // largest observed lifetime stays below the guess space.
    ASSERT_LT(mc.maxTotalAccesses, guessSpace);
    const double estimate = mc.meanTotalAccesses / guessSpace;
    const double slack =
        (mc.maxTotalAccesses - mc.minTotalAccesses) / guessSpace + 1e-3;
    expectWithinBracket(estimate, adversary.success.lo,
                        adversary.success.hi, slack,
                        "guessing-adversary success");
}

/**
 * The dominant-node capacity bracket of the paper-defaults parallel
 * structure (100-of-1000) must contain the simulated mean survived
 * accesses.
 */
TEST(AnalysisCross, ParallelStructureCapacityBracketsSimulation)
{
    const analysis::FileAnalysis analyzed =
        analyzeConfig("paper_defaults.lemons");
    const analysis::GraphBudget *structure =
        findGraph(analyzed, "parallel-structure");
    ASSERT_NE(structure, nullptr);
    ASSERT_FALSE(structure->vacuous);

    const wearout::DeviceFactory factory(
        {10.0, 12.0}, wearout::ProcessVariation::none());
    const uint64_t trials = 300;
    Rng rng(0xa0552);
    RunningStats survived;
    for (uint64_t t = 0; t < trials; ++t)
        survived.add(static_cast<double>(
            arch::sampleParallelSurvivedAccesses(factory, 1000, 100, rng)));
    // Standard error plus one whole access: the simulator floors each
    // lifetime while the bracket is continuous expectation.
    const double slack =
        5.0 * survived.stddev() / std::sqrt(static_cast<double>(trials)) +
        1.0;
    expectWithinBracket(survived.mean(), structure->systemCapacity.lo,
                        structure->systemCapacity.hi, slack,
                        "parallel structure survived accesses");
}

/** Same for a series chain, where the minimum lifetime dominates. */
TEST(AnalysisCross, SeriesChainCapacityBracketsSimulation)
{
    ir::Graph graph("series");
    ir::Node chain;
    chain.kind = ir::NodeKind::Series;
    chain.label = "chain";
    chain.device = {10.0, 12.0};
    chain.count = 4;
    const ir::NodeId stage = graph.add(chain);
    ir::Node out;
    out.kind = ir::NodeKind::Sink;
    out.label = "out";
    graph.connect(stage, graph.add(out));

    const analysis::GraphBudget budget = analysis::propagateBudgets(graph);
    ASSERT_FALSE(budget.vacuous);

    const wearout::DeviceFactory factory(
        {10.0, 12.0}, wearout::ProcessVariation::none());
    const uint64_t trials = 400;
    Rng rng(0xa0553);
    RunningStats survived;
    for (uint64_t t = 0; t < trials; ++t)
        survived.add(static_cast<double>(
            arch::sampleSeriesSurvivedAccesses(factory, 4, rng)));
    const double slack =
        5.0 * survived.stddev() / std::sqrt(static_cast<double>(trials)) +
        1.0;
    expectWithinBracket(survived.mean(), budget.systemCapacity.lo,
                        budget.systemCapacity.hi, slack,
                        "series chain survived accesses");
}

} // namespace
} // namespace lemons
