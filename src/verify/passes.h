/**
 * @file
 * The verifier's analysis passes over the architecture IR.
 *
 * Three passes, each a pure function Graph -> Report emitting V-range
 * diagnostics through the lemons::lint engine:
 *
 *  - bound propagation (V0xx): composes certified survival brackets
 *    through the graph (series = product, k-of-n = binomial tail,
 *    expected totals = survival sums) and decides each obligation
 *    but the analyzer's GuessSuccess as PASS (V001 note), FAIL
 *    (V002/V003/V005/V006/V007 error, V008 warning), or honestly
 *    inconclusive (V004) when the criterion lies inside the bracket;
 *
 *  - structural rules (V1xx): source-to-sink reachability (V101 dead
 *    nodes, V103 fault plans on never-traversed nodes) and
 *    redundancy-waste detection (V102: parallel width at least twice
 *    the minimum meeting the node's own reliability obligations);
 *
 *  - secret flow (V2xx): taints share material at SecretSource nodes
 *    and flags branches that reach a sink without traversing a
 *    wearout Device gate (V201), sources with fewer than
 *    shareThreshold shares behind gates (V202), and sources that
 *    cannot reach any sink at all (V203).
 */

#ifndef LEMONS_VERIFY_PASSES_H_
#define LEMONS_VERIFY_PASSES_H_

#include <optional>

#include "ir/graph.h"
#include "lint/diagnostics.h"
#include "verify/interval.h"

namespace lemons::verify {

/**
 * Certified expected accesses @p node serves before wearout exhausts
 * it: E[1-of-n] for a Device bank, the k-of-n order-statistic
 * expectation for a Parallel node, the chain expectation for a Series
 * node. Nodes that wear nothing out yield nullopt.
 */
std::optional<Interval> expectedNodeAccesses(const ir::Node &node);

/** E[system total accesses] at one node, as expectedSystemTotal sums it. */
struct SystemTotal
{
    ir::NodeId structure = 0; ///< the access-bearing node summed over
    double copies = 1.0;      ///< serially consumed copies
    Interval total{0.0, 0.0}; ///< copies x the structure's expectation
};

/**
 * E[system total accesses] at @p target: a Replicate node sums its
 * (first) predecessor's expectation over its copies; any other node
 * counts once. nullopt when no access-bearing node sits there.
 */
std::optional<SystemTotal> expectedSystemTotal(const ir::Graph &graph,
                                               ir::NodeId target);

/** V0xx: certify every obligation against propagated brackets. */
lint::Report runBoundPass(const ir::Graph &graph);

/** V1xx: reachability and redundancy-waste rules. */
lint::Report runStructuralPass(const ir::Graph &graph);

/** V2xx: secret-share taint from sources to sinks. */
lint::Report runSecretFlowPass(const ir::Graph &graph);

/** All three passes, merged in the order above. */
lint::Report verifyGraph(const ir::Graph &graph);

} // namespace lemons::verify

#endif // LEMONS_VERIFY_PASSES_H_
