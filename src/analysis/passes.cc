#include "analysis/passes.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "ir/lower.h"
#include "verify/passes.h"

namespace lemons::analysis {

namespace {

using lint::Code;

/** Shortest round-trip rendering of a number for messages. */
std::string
num(double v)
{
    if (std::isinf(v))
        return v > 0 ? "inf" : "-inf";
    std::ostringstream out;
    out << v;
    return out.str();
}

/** "[lo, hi]" of an AccessBracket or a verify::Interval. */
template <typename Bracket>
std::string
bracketText(const Bracket &bracket)
{
    return "[" + num(bracket.lo) + ", " + num(bracket.hi) + "]";
}

} // namespace

GraphBudget
propagateBudgets(const ir::Graph &graph,
                 std::optional<AccessBracket> demand)
{
    GraphBudget result;
    result.graph = graph.name();
    result.nodes.assign(graph.size(), NodeBudget{});
    for (ir::NodeId id = 0; id < graph.size(); ++id) {
        result.nodes[id].kind = ir::nodeKindName(graph.node(id).kind);
        result.nodes[id].label = graph.node(id).label;
    }
    if (demand)
        result.systemDemand = *demand;

    const std::vector<ir::NodeId> topo = graph.topoOrder();
    if (graph.size() == 0 || topo.empty()) {
        // Empty or cyclic: not an architecture. Every bracket stays
        // top — vacuous but sound.
        result.vacuous = true;
        return result;
    }

    std::vector<std::vector<ir::NodeId>> preds(graph.size());
    for (ir::NodeId id = 0; id < graph.size(); ++id)
        for (ir::NodeId succ : graph.successors(id))
            preds[succ].push_back(id);

    // Forward capacity flow: what each node can still deliver to its
    // successors, gated by its own wearout expectation. A Replicate
    // node multiplies the upstream capacity by its copy count.
    std::vector<AccessBracket> outFlow(graph.size());
    const double inf = std::numeric_limits<double>::infinity();
    for (ir::NodeId id : topo) {
        const ir::Node &node = graph.node(id);
        // Entry nodes draw on an unlimited upstream supply: the
        // min-identity [inf, inf], not the vacuous top whose zero
        // lower endpoint would survive every min downstream.
        AccessBracket inflow{inf, inf};
        bool first = true;
        for (ir::NodeId pred : preds[id]) {
            inflow = first ? outFlow[pred] : join(inflow, outFlow[pred]);
            first = false;
        }
        // A node that wears nothing out (SecretSource / Store / Sink /
        // Replicate) serves exactly +inf on its own: the identity under
        // the min-composition, not the vacuous top whose lower
        // endpoint would drag every downstream bracket to zero.
        const std::optional<verify::Interval> own =
            verify::expectedNodeAccesses(node);
        AccessBracket flow = meetMin(
            own ? AccessBracket{own->lo, own->hi} : AccessBracket{inf, inf},
            inflow);
        result.nodes[id].capacity = flow;
        outFlow[id] = node.kind == ir::NodeKind::Replicate
                          ? scale(flow, static_cast<double>(node.count))
                          : flow;
    }

    // The system budget: join over the sinks (terminal nodes when the
    // graph has no explicit Sink) of the gated capacity reaching them.
    bool sawSink = false;
    AccessBracket capacity = AccessBracket::top();
    const auto fold = [&](ir::NodeId id) {
        capacity = sawSink ? join(capacity, outFlow[id]) : outFlow[id];
        sawSink = true;
    };
    for (ir::NodeId id = 0; id < graph.size(); ++id)
        if (graph.node(id).kind == ir::NodeKind::Sink)
            fold(id);
    if (!sawSink)
        for (ir::NodeId id = 0; id < graph.size(); ++id)
            if (graph.successors(id).empty())
                fold(id);
    result.systemCapacity = capacity;

    // Backward demand flow: declared system demand enters at the
    // sinks; a Replicate spreads it serially over its copies, so each
    // upstream copy sees demand / count.
    if (demand) {
        std::vector<AccessBracket> demandAt(graph.size(),
                                            AccessBracket::point(0.0));
        for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
            const ir::NodeId id = *it;
            const ir::Node &node = graph.node(id);
            if (node.kind == ir::NodeKind::Sink ||
                graph.successors(id).empty()) {
                demandAt[id] = *demand;
            } else {
                AccessBracket flowBack = AccessBracket::point(0.0);
                bool first = true;
                for (ir::NodeId succ : graph.successors(id)) {
                    const ir::Node &succNode = graph.node(succ);
                    AccessBracket back =
                        succNode.kind == ir::NodeKind::Replicate
                            ? scale(demandAt[succ],
                                    1.0 / static_cast<double>(std::max<
                                              uint64_t>(1, succNode.count)))
                            : demandAt[succ];
                    flowBack = first ? back : join(flowBack, back);
                    first = false;
                }
                demandAt[id] = flowBack;
            }
            result.nodes[id].demand = demandAt[id];
        }
    }
    return result;
}

namespace {

/** A001/A102/A004 per lowered graph. */
void
analyzeGraphs(const std::vector<ir::Graph> &graphs,
              std::optional<AccessBracket> demand, FileAnalysis &out)
{
    for (const ir::Graph &graph : graphs) {
        GraphBudget budget = propagateBudgets(graph, demand);
        const std::string object = budget.graph;
        if (!budget.vacuous) {
            if (budget.systemCapacity.unboundedAbove()) {
                out.findings.add(
                    Code::A102, object, "system-capacity",
                    "a source-to-sink path avoids every wearout gate: "
                    "an adversary's access consumption is unbounded, "
                    "so the limited-use guarantee is void",
                    "route every path through a Device/Series/Parallel "
                    "wearout structure");
            } else {
                out.findings.add(
                    Code::A004, object, "system-capacity",
                    "certified system access capacity " +
                        bracketText(budget.systemCapacity) +
                        " expected accesses before wearout exhaustion");
            }
            if (demand && !demand->isTop() &&
                demand->lo > budget.systemCapacity.hi) {
                out.findings.add(
                    Code::A001, object, "system-capacity",
                    "declared workload demand " + bracketText(*demand) +
                        " provably exceeds the certified capacity " +
                        bracketText(budget.systemCapacity),
                    "provision more copies/width or reduce the "
                    "declared usage");
            }
        }
        out.graphs.push_back(std::move(budget));
    }
}

/** A001/A003/A004 per [workload] section. */
void
analyzeWorkloads(const lint::ParsedSpec &parsed, FileAnalysis &out)
{
    for (const lint::WorkloadSpec &workload : parsed.workloads) {
        WorkloadAnalysis analysis;
        analysis.demand =
            workload.horizonDays
                ? workloadDemand(workload, *workload.horizonDays)
                : unboundedHorizonDemand(workload);
        const std::string object = "[workload]";
        out.findings.add(
            Code::A004, object, "demand",
            "certified demand bracket " + bracketText(analysis.demand) +
                " accesses over " +
                (workload.horizonDays
                     ? std::to_string(*workload.horizonDays) + " days"
                     : std::string("an unbounded horizon (widened)")));
        if (workload.budgetAccesses) {
            const double budget =
                static_cast<double>(*workload.budgetAccesses);
            analysis.budget = budget;
            if (workload.horizonDays)
                analysis.exhaustUpper = exhaustionProbabilityUpper(
                    workload, *workload.horizonDays, budget);
            if (analysis.demand.lo > budget) {
                out.findings.add(
                    Code::A001, object, "budget",
                    "demand bracket " + bracketText(analysis.demand) +
                        " provably exhausts the declared budget of " +
                        num(budget) + " accesses before the horizon ends",
                    "raise the budget or reduce the usage rate");
            } else if (!analysis.demand.unboundedAbove() &&
                       budget > kDeadWearFactor * analysis.demand.hi) {
                out.findings.add(
                    Code::A003, object, "budget",
                    "budget " + num(budget) + " exceeds " +
                        num(kDeadWearFactor) +
                        "x the peak certified demand " +
                        num(analysis.demand.hi) +
                        ": most of the provisioned wearout life is "
                        "unreachable",
                    "size the budget nearer the demand envelope so "
                    "exhaustion stays a meaningful security bound");
            }
        }
        out.workloads.push_back(analysis);
    }
}

/** A002/A003/A004 per fleet cohort. */
void
analyzeFleets(const lint::ParsedSpec &parsed, FileAnalysis &out)
{
    for (const lint::FleetSpec &fleet : parsed.fleets) {
        for (size_t i = 0; i < fleet.cohorts.size(); ++i) {
            const lint::FleetCohortSpec &cohort = fleet.cohorts[i];
            const std::string object = "[fleet]";
            const std::string field =
                "cohorts[" + std::to_string(i) + "] '" + cohort.name +
                "'";
            CohortAnalysis analysis;
            analysis.cohort = cohort.name;
            analysis.premature = prematureLockoutBracket(cohort, fleet);
            analysis.windowDemand =
                workloadDemand(cohort.usage, fleet.prematureDays);
            analysis.horizonDemand =
                workloadDemand(cohort.usage, fleet.horizonDays);
            out.findings.add(
                Code::A004, object, field,
                "certified premature-lockout bracket " +
                    bracketText(analysis.premature) + " before day " +
                    std::to_string(fleet.prematureDays));
            if (fleet.prematureTolerance &&
                analysis.premature.lo > *fleet.prematureTolerance) {
                out.findings.add(
                    Code::A002, object, field,
                    "premature-lockout bracket " +
                        bracketText(analysis.premature) +
                        " provably exceeds the declared tolerance " +
                        num(*fleet.prematureTolerance),
                    "raise the access bound, slow the usage profile, "
                    "or screen the infant-mortality leg");
            }
            const double bound = static_cast<double>(cohort.accessBound);
            if (!analysis.horizonDemand.isTop() &&
                !analysis.horizonDemand.unboundedAbove() &&
                bound > kDeadWearFactor * analysis.horizonDemand.hi) {
                out.findings.add(
                    Code::A003, object, field,
                    "access bound " + num(bound) + " exceeds " +
                        num(kDeadWearFactor) +
                        "x the certified horizon demand " +
                        num(analysis.horizonDemand.hi) +
                        ": the budget can never be consumed",
                    "size the bound nearer the horizon demand");
            }
            out.cohorts.push_back(std::move(analysis));
        }
    }
}

/** A101/A103/A104 (A004 without a ceiling) for one guessing obligation. */
void
analyzeAdversary(const ir::Graph &graph, const ir::Obligation &guess,
                 FileAnalysis &out)
{
    const double space = guess.access;
    if (!(space > 0.0) || !std::isfinite(space))
        return;
    const std::optional<verify::SystemTotal> total =
        verify::expectedSystemTotal(graph, guess.target);
    if (!total)
        return;

    // The access budget the hardware concedes to a guessing
    // adversary: the certified expected system total, stretched to
    // the declared upper-bound target when one exists.
    const double budgetLo = total->total.lo;
    double budgetHi = total->total.hi;
    for (const ir::Obligation &bound : graph.obligations())
        if (bound.kind == ir::Obligation::Kind::ExpectedTotal &&
            bound.target == guess.target && bound.hasCeiling)
            budgetHi = std::max(budgetHi, bound.ceiling);

    AdversaryAnalysis adversary;
    adversary.graph = graph.name();
    adversary.guessSpace = space;
    if (guess.hasCeiling)
        adversary.ceiling = guess.ceiling;
    adversary.success.lo = std::min(1.0, budgetLo / space);
    adversary.success.hi = std::min(1.0, budgetHi / space);
    if (std::isnan(adversary.success.lo) ||
        std::isnan(adversary.success.hi))
        adversary.success = {0.0, 1.0};

    const std::string &object = adversary.graph;
    const std::string claim =
        "guessing-adversary success bracket " +
        bracketText(adversary.success) + " over a guess space of " +
        num(space);
    if (adversary.ceiling) {
        const double ceiling = *adversary.ceiling;
        if (adversary.success.lo > ceiling) {
            out.findings.add(
                Code::A101, object, "guess-success",
                claim + " provably exceeds the declared ceiling " +
                    num(ceiling),
                "enlarge the guess space or shrink the conceded "
                "access budget");
        } else if (adversary.success.hi > ceiling) {
            out.findings.add(
                Code::A103, object, "guess-success",
                claim + " straddles the declared ceiling " +
                    num(ceiling) +
                    ": the obligation is honestly undecided");
        } else {
            out.findings.add(Code::A104, object, "guess-success",
                             claim + " stays below the declared "
                                     "ceiling " +
                                 num(ceiling));
        }
    } else {
        out.findings.add(Code::A004, object, "guess-success", claim);
    }
    out.adversaries.push_back(std::move(adversary));
}

} // namespace

FileAnalysis
analyzeSpec(const lint::ParsedSpec &parsed,
            const std::vector<ir::Graph> &graphs)
{
    FileAnalysis out;

    // The hull over every declared workload is the demand injected
    // into the architecture graphs: a sound envelope whichever usage
    // profile the deployment actually follows.
    std::optional<AccessBracket> demand;
    for (const lint::WorkloadSpec &workload : parsed.workloads) {
        const AccessBracket bracket =
            workload.horizonDays
                ? workloadDemand(workload, *workload.horizonDays)
                : unboundedHorizonDemand(workload);
        demand = demand ? join(*demand, bracket) : bracket;
    }

    analyzeGraphs(graphs, demand, out);
    analyzeWorkloads(parsed, out);
    analyzeFleets(parsed, out);
    for (const ir::Graph &graph : graphs)
        for (const ir::Obligation &guess : graph.obligations())
            if (guess.kind == ir::Obligation::Kind::GuessSuccess)
                analyzeAdversary(graph, guess, out);
    return out;
}

FileAnalysis
analyzeSpec(const lint::ParsedSpec &parsed)
{
    lint::Report lowering; // V901 is the verifier's finding
    return analyzeSpec(parsed, ir::lowerSpec(parsed, lowering));
}

} // namespace lemons::analysis
