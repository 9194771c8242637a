#include "verify/passes.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "util/math.h"
#include "verify/interval.h"

namespace lemons::verify {

namespace {

using ir::Graph;
using ir::Node;
using ir::NodeId;
using ir::NodeKind;
using ir::Obligation;
using lint::Code;
using lint::Report;

std::string
num(double value)
{
    std::ostringstream out;
    out.precision(6);
    out << value;
    return out.str();
}

std::string
bracket(const Interval &interval)
{
    return "[" + num(interval.lo) + ", " + num(interval.hi) + "]";
}

/**
 * Certified survival bracket of @p id at access @p x, composed from
 * its (first) predecessor. The visiting set makes hand-built cyclic
 * graphs terminate with the vacuous bracket instead of recursing.
 */
Interval
survivalAt(const Graph &graph, NodeId id, double x,
           std::vector<char> &visiting)
{
    if (visiting[id] != 0)
        return Interval{0.0, 1.0};
    visiting[id] = 1;
    const Node &node = graph.node(id);
    const auto fromPred = [&]() -> Interval {
        const std::vector<NodeId> preds = graph.predecessors(id);
        if (preds.empty())
            return Interval{1.0, 1.0};
        return survivalAt(graph, preds.front(), x, visiting);
    };
    Interval out{0.0, 1.0};
    switch (node.kind) {
    case NodeKind::Device:
        out = deviceReliability(node.device, x);
        break;
    case NodeKind::Series:
        out = powInterval(fromPred(), static_cast<double>(node.count));
        break;
    case NodeKind::Parallel:
        out = parallelReliability(node.n, node.k, fromPred());
        break;
    case NodeKind::SecretSource:
    case NodeKind::Replicate:
    case NodeKind::Store:
    case NodeKind::Sink:
        out = fromPred();
        break;
    }
    visiting[id] = 0;
    return out;
}

Interval
survivalAt(const Graph &graph, NodeId id, double x)
{
    std::vector<char> visiting(graph.size(), 0);
    return survivalAt(graph, id, x, visiting);
}

void
checkSurvivalFloor(const Graph &graph, const Obligation &obligation,
                   Report &report)
{
    const std::string field = graph.node(obligation.target).label;
    const Interval s = survivalAt(graph, obligation.target,
                                  obligation.access);
    const std::string claim = "P(survive " + num(obligation.access) +
                              " accesses) in " + bracket(s);
    if (s.lo >= obligation.floor) {
        report.add(Code::V001, graph.name(), field,
                   claim + " >= floor " + num(obligation.floor) +
                       " — certified");
    } else if (s.hi < obligation.floor) {
        report.add(Code::V002, graph.name(), field,
                   claim + " < floor " + num(obligation.floor),
                   "widen the structure or lower the access bound");
    } else {
        report.add(Code::V004, graph.name(), field,
                   claim + " straddles floor " + num(obligation.floor));
    }
}

void
checkResidualCeiling(const Graph &graph, const Obligation &obligation,
                     Report &report)
{
    const std::string field = graph.node(obligation.target).label;
    const Interval s = survivalAt(graph, obligation.target,
                                  obligation.access);
    const std::string claim = "P(survive " + num(obligation.access) +
                              " accesses) in " + bracket(s);
    if (s.hi <= obligation.ceiling) {
        report.add(Code::V001, graph.name(), field,
                   claim + " <= ceiling " + num(obligation.ceiling) +
                       " — certified");
    } else if (s.lo > obligation.ceiling) {
        report.add(Code::V003, graph.name(), field,
                   claim + " > ceiling " + num(obligation.ceiling),
                   "the structure outlives its death check: attackers "
                   "get extra accesses");
    } else {
        report.add(Code::V004, graph.name(), field,
                   claim + " straddles ceiling " +
                       num(obligation.ceiling));
    }
}

void
checkExpectedTotal(const Graph &graph, const Obligation &obligation,
                   Report &report)
{
    const std::optional<SystemTotal> expected =
        expectedSystemTotal(graph, obligation.target);
    if (!expected)
        return; // nothing access-bearing to sum over
    const auto &[structure, copies, total] = *expected;
    const std::string field = graph.node(structure).label;
    const std::string claim =
        "E[system total accesses] in " + bracket(total);
    bool pass = true;
    if (obligation.hasFloor) {
        // The legitimate-access floor is a *capacity* claim: N copies
        // each rated for t accesses serve N * t by construction (the
        // expectation sits slightly below N * t because copies can die
        // just before their bound — that is the paper's accepted
        // 1 - minReliability slice, not an architecture defect).
        const double capacity = copies * obligation.access;
        if (capacity < obligation.floor) {
            report.add(Code::V005, graph.name(), field,
                       "rated capacity " + num(capacity) + " (" +
                           num(copies) + " copies x " +
                           num(obligation.access) +
                           " accesses) < required " +
                           num(obligation.floor),
                       "add copies or widen the per-copy structure");
            pass = false;
        }
    }
    if (obligation.hasCeiling) {
        if (total.lo > obligation.ceiling) {
            report.add(Code::V006, graph.name(), field,
                       claim + " > upper-bound target " +
                           num(obligation.ceiling),
                       "the architecture concedes more accesses than "
                       "the attack budget allows");
            pass = false;
        } else if (total.hi > obligation.ceiling) {
            report.add(Code::V004, graph.name(), field,
                       claim + " straddles the upper-bound target " +
                           num(obligation.ceiling));
            pass = false;
        }
    }
    if (pass)
        report.add(Code::V001, graph.name(), field,
                   claim + " — within the required window, certified");
}

void
checkOtpBounds(const Graph &graph, const Obligation &obligation,
               Report &report)
{
    const Node &target = graph.node(obligation.target);
    const std::string field = target.label;
    const unsigned height =
        static_cast<unsigned>(std::max(0.0, obligation.access));

    const Interval receiver = survivalAt(graph, obligation.target, 1.0);
    const std::vector<NodeId> preds =
        graph.predecessors(obligation.target);
    const Interval path = preds.empty()
                              ? Interval{0.0, 1.0}
                              : survivalAt(graph, preds.front(), 1.0);
    const Interval adversary =
        otpAdversarySuccess(target.n, target.k, height, path);

    bool pass = true;
    const std::string receiverClaim =
        "P(receiver recovers the pad) in " + bracket(receiver);
    if (receiver.hi < obligation.floor) {
        report.add(Code::V008, graph.name(), field,
                   receiverClaim + " < delivery floor " +
                       num(obligation.floor),
                   "raise copies or lower the threshold");
        pass = false;
    } else if (receiver.lo < obligation.floor) {
        report.add(Code::V004, graph.name(), field,
                   receiverClaim + " straddles the delivery floor " +
                       num(obligation.floor));
        pass = false;
    }
    const std::string adversaryClaim =
        "P(random-path adversary wins) in " + bracket(adversary);
    if (adversary.lo > obligation.ceiling) {
        report.add(Code::V007, graph.name(), field,
                   adversaryClaim + " > ceiling " +
                       num(obligation.ceiling),
                   "increase the tree height (paths grow as 2^(H-1))");
        pass = false;
    } else if (adversary.hi > obligation.ceiling) {
        report.add(Code::V004, graph.name(), field,
                   adversaryClaim + " straddles the ceiling " +
                       num(obligation.ceiling));
        pass = false;
    }
    if (pass)
        report.add(Code::V001, graph.name(), field,
                   receiverClaim + ", " + adversaryClaim +
                       " — certified");
}

/** Forward BFS over successors from the given seed set. */
std::vector<char>
forwardReach(const Graph &graph, const std::vector<NodeId> &seeds)
{
    std::vector<char> seen(graph.size(), 0);
    std::deque<NodeId> queue(seeds.begin(), seeds.end());
    for (const NodeId id : seeds)
        seen[id] = 1;
    while (!queue.empty()) {
        const NodeId id = queue.front();
        queue.pop_front();
        for (const NodeId next : graph.successors(id)) {
            if (seen[next] == 0) {
                seen[next] = 1;
                queue.push_back(next);
            }
        }
    }
    return seen;
}

/** Backward BFS (over predecessors) from every Sink node. */
std::vector<char>
backwardReachFromSinks(const Graph &graph)
{
    std::vector<char> seen(graph.size(), 0);
    std::deque<NodeId> queue;
    for (NodeId id = 0; id < graph.size(); ++id) {
        if (graph.node(id).kind == NodeKind::Sink) {
            seen[id] = 1;
            queue.push_back(id);
        }
    }
    while (!queue.empty()) {
        const NodeId id = queue.front();
        queue.pop_front();
        for (const NodeId pred : graph.predecessors(id)) {
            if (seen[pred] == 0) {
                seen[pred] = 1;
                queue.push_back(pred);
            }
        }
    }
    return seen;
}

void
checkRedundancyWaste(const Graph &graph, Report &report)
{
    for (const Obligation &obligation : graph.obligations()) {
        if (obligation.kind != Obligation::Kind::SurvivalFloor)
            continue;
        const Node &target = graph.node(obligation.target);
        if (target.kind != NodeKind::Parallel || target.k == 0 ||
            target.n <= target.k)
            continue;
        const Interval rIv =
            deviceReliability(target.device, obligation.access);
        const double r = 0.5 * (rIv.lo + rIv.hi);
        if (!(r > 0.0) || !(r < 1.0))
            continue;
        double residualR = -1.0;
        double residualCeiling = 0.0;
        for (const Obligation &other : graph.obligations()) {
            if (other.kind == Obligation::Kind::ResidualCeiling &&
                other.target == obligation.target) {
                const Interval iv =
                    deviceReliability(target.device, other.access);
                residualR = 0.5 * (iv.lo + iv.hi);
                residualCeiling = other.ceiling;
            }
        }
        if (binomialTailAtLeast(target.n, target.k, r) <
            obligation.floor)
            continue; // the floor is not even met: V002 territory
        // Probe the half-width structure with the encoding ratio k/n
        // preserved (shrinking a solved design re-derives k from the
        // kFraction, so a fixed-k probe would spuriously condemn
        // solver-minimal widths). If half the devices still meet both
        // of the node's own criteria, the full width is waste.
        const uint64_t half = target.n / 2;
        if (half < 1 || target.n - half < 8)
            continue;
        const double ratio = static_cast<double>(target.k) /
                             static_cast<double>(target.n);
        const uint64_t halfK = std::max<uint64_t>(
            1, static_cast<uint64_t>(
                   std::ceil(ratio * static_cast<double>(half))));
        if (binomialTailAtLeast(half, halfK, r) < obligation.floor)
            continue;
        if (residualR >= 0.0 &&
            binomialTailAtLeast(half, halfK, residualR) >
                residualCeiling)
            continue; // the shrink would outlive its death check
        report.add(Code::V102, graph.name(), target.label,
                   "width " + std::to_string(target.n) +
                       " is redundancy waste: " + std::to_string(half) +
                       " devices (threshold " + std::to_string(halfK) +
                       ") already meet this node's reliability "
                       "obligations",
                   "shrink the structure: extra devices cost die "
                   "area without buying security");
    }
}

} // namespace

std::optional<Interval>
expectedNodeAccesses(const Node &node)
{
    switch (node.kind) {
    case NodeKind::Device:
        return expectedStructureAccesses(node.device, node.n, 1, 0);
    case NodeKind::Parallel:
        return expectedStructureAccesses(node.device, node.n, node.k, 0);
    case NodeKind::Series:
        return expectedStructureAccesses(node.device, 1, 1, node.count);
    default:
        return std::nullopt; // wears nothing out
    }
}

std::optional<SystemTotal>
expectedSystemTotal(const Graph &graph, NodeId target)
{
    SystemTotal out;
    out.structure = target;
    if (graph.node(target).kind == NodeKind::Replicate) {
        const std::vector<NodeId> preds = graph.predecessors(target);
        if (preds.empty())
            return std::nullopt;
        out.copies = static_cast<double>(graph.node(target).count);
        out.structure = preds.front();
    }
    const std::optional<Interval> per =
        expectedNodeAccesses(graph.node(out.structure));
    if (!per)
        return std::nullopt;
    out.total = {per->lo * out.copies, per->hi * out.copies};
    return out;
}

Report
runBoundPass(const Graph &graph)
{
    Report report;
    if (graph.size() > 0 && graph.topoOrder().empty()) {
        report.add(Code::V901, graph.name(), "",
                   "the graph is cyclic: it does not describe an "
                   "architecture");
        return report;
    }
    for (const Obligation &obligation : graph.obligations()) {
        switch (obligation.kind) {
        case Obligation::Kind::SurvivalFloor:
            checkSurvivalFloor(graph, obligation, report);
            break;
        case Obligation::Kind::ResidualCeiling:
            checkResidualCeiling(graph, obligation, report);
            break;
        case Obligation::Kind::ExpectedTotal:
            checkExpectedTotal(graph, obligation, report);
            break;
        case Obligation::Kind::OtpBounds:
            checkOtpBounds(graph, obligation, report);
            break;
        case Obligation::Kind::GuessSuccess:
            break; // the analyzer's A101 obligation
        }
    }
    return report;
}

Report
runStructuralPass(const Graph &graph)
{
    Report report;
    if (graph.size() == 0)
        return report;

    std::vector<NodeId> entries;
    std::vector<size_t> inDegree(graph.size(), 0);
    for (NodeId id = 0; id < graph.size(); ++id) {
        for (const NodeId next : graph.successors(id))
            ++inDegree[next];
    }
    for (NodeId id = 0; id < graph.size(); ++id) {
        if (inDegree[id] == 0)
            entries.push_back(id);
    }

    bool hasSink = false;
    for (NodeId id = 0; id < graph.size(); ++id)
        hasSink = hasSink || graph.node(id).kind == NodeKind::Sink;

    if (hasSink) {
        const std::vector<char> fwd = forwardReach(graph, entries);
        const std::vector<char> bwd = backwardReachFromSinks(graph);
        for (NodeId id = 0; id < graph.size(); ++id) {
            const bool onPath = fwd[id] != 0 && bwd[id] != 0;
            if (onPath)
                continue;
            const Node &node = graph.node(id);
            report.add(Code::V101, graph.name(), node.label,
                       std::string(nodeKindName(node.kind)) + " '" +
                           node.label + "' lies on no source-to-sink "
                           "path",
                       "dead hardware: remove it or wire it into the "
                       "access path");
            if (node.faultPlan) {
                report.add(Code::V103, graph.name(), node.label,
                           "a fault plan targets '" + node.label +
                               "', which the design never traverses: "
                               "its faults cannot manifest",
                           "attach the plan to a node on the access "
                           "path");
            }
        }
    }

    checkRedundancyWaste(graph, report);
    return report;
}

Report
runSecretFlowPass(const Graph &graph)
{
    Report report;
    if (graph.size() == 0)
        return report;

    // reachesSink[x]: any path x ->* Sink.
    const std::vector<char> reachesSink = backwardReachFromSinks(graph);

    // unguarded[x]: x can reach a sink along a path whose nodes after
    // x contain no wearout Device gate. Fixpoint over the (possibly
    // cyclic, for hand-built graphs) edge set.
    std::vector<char> unguarded(graph.size(), 0);
    for (NodeId id = 0; id < graph.size(); ++id)
        unguarded[id] = graph.node(id).kind == NodeKind::Sink ? 1 : 0;
    for (size_t round = 0; round < graph.size(); ++round) {
        bool changed = false;
        for (NodeId id = 0; id < graph.size(); ++id) {
            if (unguarded[id] != 0)
                continue;
            for (const NodeId next : graph.successors(id)) {
                if (graph.node(next).kind != NodeKind::Device &&
                    unguarded[next] != 0) {
                    unguarded[id] = 1;
                    changed = true;
                    break;
                }
            }
        }
        if (!changed)
            break;
    }

    for (NodeId id = 0; id < graph.size(); ++id) {
        const Node &source = graph.node(id);
        if (source.kind != NodeKind::SecretSource)
            continue;
        bool anyReach = false;
        uint64_t guardedShares = 0;
        for (const NodeId branch : graph.successors(id)) {
            const Node &head = graph.node(branch);
            const bool reaches = reachesSink[branch] != 0;
            anyReach = anyReach || reaches;
            const bool leaks =
                head.kind != NodeKind::Device && unguarded[branch] != 0;
            if (leaks) {
                report.add(
                    Code::V201, graph.name(), head.label,
                    std::to_string(head.n) + " share(s) of '" +
                        source.label + "' reach the sink through '" +
                        head.label + "' without traversing any "
                        "wearout gate",
                    "an attacker reads these shares without spending "
                    "device lifetime: put a NEMS gate in front");
            } else if (reaches) {
                guardedShares += head.n;
            }
        }
        if (!anyReach) {
            report.add(Code::V203, graph.name(), source.label,
                       "no share of '" + source.label +
                           "' reaches any sink: the key can never be "
                           "reconstructed",
                       "connect the share store to the release path");
            continue;
        }
        if (guardedShares < source.shareThreshold) {
            report.add(
                Code::V202, graph.name(), source.label,
                "only " + std::to_string(guardedShares) +
                    " share(s) sit behind wearout gates, below the "
                    "reconstruction threshold " +
                    std::to_string(source.shareThreshold),
                "the secret is recoverable without wearing anything "
                "out; guard at least k shares");
        }
    }
    return report;
}

Report
verifyGraph(const Graph &graph)
{
    Report report = runBoundPass(graph);
    report.merge(runStructuralPass(graph));
    report.merge(runSecretFlowPass(graph));
    return report;
}

} // namespace lemons::verify
