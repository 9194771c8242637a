/**
 * @file
 * Typed DAG intermediate representation for composed limited-use
 * architectures.
 *
 * Every architecture the library can fabricate — N serially consumed
 * k-out-of-n parallel structures, series chains, M-way replicated
 * modules, Shamir share stores, OTP decision trees — lowers into the
 * same small graph language, so whole-design analyses (bound
 * propagation, reachability, secret flow) are written once against
 * the IR instead of once per architecture class.
 *
 * Nodes are *symbolic*: a Device node stands for a bank of n i.i.d.
 * Weibull devices, a Parallel node for a k-of-n combinator over its
 * predecessor, a Replicate node for N serially consumed copies of the
 * subgraph feeding it. A paper-scale design (91,250 accesses, ~1e5
 * devices) is therefore a five-node graph, and the verifier's passes
 * run in microseconds — the point of the static layer versus the
 * Monte Carlo engines.
 *
 * Edges are directed access/data-flow: from the secret source,
 * through wearout gates and combinators, to the sink that represents
 * release of the reconstructed secret to the requester.
 */

#ifndef LEMONS_IR_GRAPH_H_
#define LEMONS_IR_GRAPH_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "fault/fault_plan.h"
#include "wearout/device.h"

namespace lemons::ir {

/** What a node stands for. */
enum class NodeKind {
    SecretSource, ///< where key/share material enters the design
    Device,       ///< a bank of n i.i.d. Weibull wearout switches
    Series,       ///< a chain: all of `count` stages must survive
    Parallel,     ///< k-of-n combinator over the incoming bank
    Replicate,    ///< N serially consumed copies of the feeding subgraph
    Store,        ///< non-wearout storage (H-tree / shift register)
    Sink,         ///< the reconstructed secret leaves the hardware
};

/** Lowercase kind name ("device", "parallel", ...). */
const char *nodeKindName(NodeKind kind);

/** Node handle; dense indices in creation order. */
using NodeId = uint32_t;

/** One IR node. Fields are meaningful per kind (see NodeKind docs). */
struct Node
{
    NodeKind kind = NodeKind::Device;
    std::string label;

    /** Device/Series/Parallel: the Weibull technology. */
    wearout::DeviceSpec device{0.0, 0.0};

    /** Device: bank size; Parallel: width; SecretSource/Store: shares. */
    uint64_t n = 1;
    /** Parallel: reconstruction threshold. */
    uint64_t k = 1;
    /** Series: chain length; Replicate: serially consumed copies. */
    uint64_t count = 1;
    /** SecretSource: Shamir threshold over its outgoing share branches. */
    uint64_t shareThreshold = 1;

    /** Fault model attached to this node, when the spec declares one. */
    std::optional<fault::FaultPlan> faultPlan{};
};

/**
 * A proof obligation against the design's degradation criteria.
 * Obligations anchor to the node whose survival (or expected-access)
 * bracket they constrain. The verifier certifies all but
 * GuessSuccess, which the wear-budget analyzer (lemons::analysis)
 * discharges as A101/A103/A104.
 */
struct Obligation
{
    enum class Kind {
        SurvivalFloor,   ///< P(target survives `access`) >= floor
        ResidualCeiling, ///< P(target survives `access`) <= ceiling
        ExpectedTotal,   ///< E[system total accesses] in [floor, ceiling]
        OtpBounds,       ///< OTP receiver floor / adversary ceiling
        GuessSuccess,    ///< guessing the secret within the expected
                         ///< total at `target`: guess space `access`,
                         ///< optional success `ceiling`
    };

    Kind kind = Kind::SurvivalFloor;
    NodeId target = 0;
    /** Access count the bound refers to (OtpBounds: tree height H). */
    double access = 0.0;
    double floor = 0.0;
    double ceiling = 0.0;
    bool hasFloor = false;
    bool hasCeiling = false;
};

/**
 * The architecture graph: nodes, directed edges, and obligations.
 *
 * Deliberately minimal — no mutation beyond append, no node removal —
 * so analyses can cache by NodeId without invalidation protocols.
 */
class Graph
{
  public:
    explicit Graph(std::string name) : graphName(std::move(name)) {}

    /** Append @p node; returns its dense id. */
    NodeId add(Node node);

    /** Add the directed edge @p from -> @p to (ids must exist). */
    void connect(NodeId from, NodeId to);

    /** Record @p obligation (its target must exist). */
    void addObligation(Obligation obligation);

    const std::string &name() const { return graphName; }
    size_t size() const { return nodeList.size(); }

    const Node &node(NodeId id) const { return nodeList.at(id); }
    /** Mutable access, for post-lowering annotation (fault plans). */
    Node &mutableNode(NodeId id) { return nodeList.at(id); }
    const std::vector<Node> &nodes() const { return nodeList; }
    const std::vector<Obligation> &obligations() const { return obls; }

    /** Out-edges of @p id. */
    const std::vector<NodeId> &successors(NodeId id) const
    {
        return out.at(id);
    }

    /** In-edges of @p id (computed; O(E)). */
    std::vector<NodeId> predecessors(NodeId id) const;

    /**
     * Kahn topological order. Returns an empty vector when the graph
     * contains a cycle (a lowering bug or a malicious spec) — callers
     * treat that as "not an architecture".
     */
    std::vector<NodeId> topoOrder() const;

  private:
    std::string graphName;
    std::vector<Node> nodeList;
    std::vector<std::vector<NodeId>> out;
    std::vector<Obligation> obls;
};

} // namespace lemons::ir

#endif // LEMONS_IR_GRAPH_H_
