/**
 * @file
 * The wear-budget abstract interpreter over the architecture IR.
 *
 * Where the verifier (lemons::verify) brackets survival
 * *probabilities*, this pass brackets access *counts*: how many
 * accesses each node can serve before wearout exhausts it (capacity,
 * propagated source-to-sink) and how many the declared workloads will
 * push through it (demand, propagated sink-to-source). Both are
 * AccessBracket values composed with the certified interval
 * arithmetic from verify/interval.h:
 *
 *   - a Device bank of n switches serves E[1-of-n] expected accesses;
 *   - a Series chain of `count` stages serves the chain expectation;
 *   - a Parallel k-of-n combinator serves the order-statistic
 *     expectation E[accesses until fewer than k survive];
 *   - a Replicate node multiplies upstream capacity by its copy
 *     count and divides downstream demand per copy;
 *   - SecretSource / Store / Sink nodes consume nothing: their
 *     capacity is the lattice top (no wearout bound — which is
 *     precisely the A102 condition when a whole source-to-sink path
 *     is made of them).
 *
 * A cyclic graph (a lowering bug or a hostile spec) yields the
 * all-top vacuous result rather than a crash or an unsound claim.
 *
 * analyzeSpec then joins the graph results with the demand side
 * (workload sections, fleet cohorts) and the adversary obligations
 * (guessing success against a declared ceiling) and emits the stable
 * A-code catalog:
 *
 *   A001 (error)   declared demand provably exhausts a budget
 *   A002 (error)   premature-lockout bracket exceeds the declared
 *                  fleet tolerance
 *   A003 (warning) dead wear: budget above kDeadWearFactor times the
 *                  peak declared demand
 *   A004 (note)    certified consumption / capacity brackets
 *   A101 (error)   guessing-adversary success bracket above ceiling
 *   A102 (error)   adversary access consumption unbounded by wearout
 *   A103 (warning) guessing bracket straddles the ceiling
 *   A104 (note)    guessing obligation discharged
 */

#ifndef LEMONS_ANALYSIS_PASSES_H_
#define LEMONS_ANALYSIS_PASSES_H_

#include <optional>
#include <string>
#include <vector>

#include "analysis/bracket.h"
#include "ir/graph.h"
#include "lint/diagnostics.h"
#include "lint/spec_file.h"
#include "verify/interval.h"

namespace lemons::analysis {

/** Per-node result of the budget dataflow. */
struct NodeBudget
{
    std::string kind;  ///< nodeKindName of the IR node
    std::string label; ///< the IR node's label
    /** Accesses the node can serve before wearout (top = unbounded). */
    AccessBracket capacity = AccessBracket::top();
    /** Declared demand routed through the node (top = undeclared). */
    AccessBracket demand = AccessBracket::top();
};

/** Whole-graph result of the budget dataflow. */
struct GraphBudget
{
    std::string graph; ///< IR graph name ("design", "share-layout"...)
    /** Cyclic or empty graph: every bracket is top, nothing decided. */
    bool vacuous = false;
    /** Dense by NodeId. */
    std::vector<NodeBudget> nodes;
    /** Join over sink nodes of gated capacity: the system budget. */
    AccessBracket systemCapacity = AccessBracket::top();
    /** The demand injected at the sinks (top when none declared). */
    AccessBracket systemDemand = AccessBracket::top();
};

/**
 * Run the capacity (forward) and demand (backward) dataflow over
 * @p graph. @p demand, when present, is the declared system-level
 * demand injected at every sink.
 */
GraphBudget propagateBudgets(const ir::Graph &graph,
                             std::optional<AccessBracket> demand = {});

/** Analyzer result for one [workload] section. */
struct WorkloadAnalysis
{
    /** Demand over the declared horizon (widened fixpoint when the
     *  horizon is absent). */
    AccessBracket demand = AccessBracket::top();
    /** Declared budget, when the section names one. */
    std::optional<double> budget{};
    /** Certified upper bound on P(realized demand exceeds budget). */
    double exhaustUpper = 0.0;
};

/** Analyzer result for one fleet cohort. */
struct CohortAnalysis
{
    std::string cohort;
    /** Certified premature-lockout probability bracket. */
    verify::Interval premature{0.0, 1.0};
    /** Demand bracket over the premature window. */
    AccessBracket windowDemand = AccessBracket::top();
    /** Demand bracket over the whole campaign horizon. */
    AccessBracket horizonDemand = AccessBracket::top();
};

/** A lowered graph's GuessSuccess obligation, discharged. */
struct AdversaryAnalysis
{
    std::string graph; ///< the IR graph's name ("design")
    double guessSpace = 0.0;
    std::optional<double> ceiling{};
    /** Certified bracket on P(adversary guesses the secret) when the
     *  whole conceded access budget is spent on guesses. */
    verify::Interval success{0.0, 1.0};
};

/** Everything the analyzer derives from one spec file. */
struct FileAnalysis
{
    std::string file;
    std::vector<GraphBudget> graphs;
    std::vector<WorkloadAnalysis> workloads;
    std::vector<CohortAnalysis> cohorts;
    std::vector<AdversaryAnalysis> adversaries;
    /** A-range findings only (L/V are the other passes' business). */
    lint::Report findings;
};

/**
 * Analyze a parsed spec's workloads and fleets over its architecture
 * @p graphs, as ir::lowerSpec lowered them; the guessing obligations
 * (and their access budgets) come from the graphs alone.
 */
FileAnalysis analyzeSpec(const lint::ParsedSpec &parsed,
                         const std::vector<ir::Graph> &graphs);

/** analyzeSpec over a fresh lowering of @p parsed (V901s dropped). */
FileAnalysis analyzeSpec(const lint::ParsedSpec &parsed);

} // namespace lemons::analysis

#endif // LEMONS_ANALYSIS_PASSES_H_
