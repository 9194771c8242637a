#include "ir/lower.h"

#include <string>
#include <utility>

namespace lemons::ir {

namespace {

Node
makeNode(NodeKind kind, std::string label)
{
    Node node;
    node.kind = kind;
    node.label = std::move(label);
    return node;
}

} // namespace

Graph
lowerDesign(const core::DesignRequest &request, const core::Design &design,
            const lint::DesignLintOptions &options)
{
    Graph graph("design");

    Node src = makeNode(NodeKind::SecretSource, "key");
    src.n = design.width;
    src.shareThreshold = design.threshold;
    const NodeId srcId = graph.add(std::move(src));

    Node bank = makeNode(NodeKind::Device, "nems-bank");
    bank.device = request.device;
    bank.n = design.width;
    const NodeId bankId = graph.add(std::move(bank));

    Node par = makeNode(NodeKind::Parallel, "k-of-n");
    par.device = request.device;
    par.n = design.width;
    par.k = design.threshold;
    const NodeId parId = graph.add(std::move(par));

    Node rep = makeNode(NodeKind::Replicate, "serial-copies");
    rep.count = design.copies;
    const NodeId repId = graph.add(std::move(rep));

    const NodeId sinkId = graph.add(makeNode(NodeKind::Sink, "release"));

    graph.connect(srcId, bankId);
    graph.connect(bankId, parId);
    graph.connect(parId, repId);
    graph.connect(repId, sinkId);

    Obligation survival;
    survival.kind = Obligation::Kind::SurvivalFloor;
    survival.target = parId;
    survival.access = static_cast<double>(design.perCopyBound);
    survival.floor = request.criteria.minReliability;
    survival.hasFloor = true;
    graph.addObligation(survival);

    if (!request.upperBoundTarget) {
        // With an explicit system-level upper-bound target the solver
        // replaces the per-copy residual criterion by the expected-
        // total ceiling below, so only emit the residual obligation in
        // the default regime.
        Obligation residual;
        residual.kind = Obligation::Kind::ResidualCeiling;
        residual.target = parId;
        residual.access = static_cast<double>(design.deathCheckAccess);
        residual.ceiling = request.criteria.maxResidualReliability;
        residual.hasCeiling = true;
        graph.addObligation(residual);
    }

    Obligation total;
    total.kind = Obligation::Kind::ExpectedTotal;
    total.target = repId;
    total.access = static_cast<double>(design.perCopyBound);
    total.floor = static_cast<double>(request.legitimateAccessBound);
    total.hasFloor = true;
    if (request.upperBoundTarget) {
        total.ceiling = static_cast<double>(*request.upperBoundTarget);
        total.hasCeiling = true;
    }
    graph.addObligation(total);

    if (options.guessSpace) {
        Obligation guess;
        guess.kind = Obligation::Kind::GuessSuccess;
        guess.target = repId;
        guess.access = *options.guessSpace;
        if (options.guessSuccessCeiling) {
            guess.ceiling = *options.guessSuccessCeiling;
            guess.hasCeiling = true;
        }
        graph.addObligation(guess);
    }

    return graph;
}

Graph
lowerStructure(const lint::StructureSpec &spec)
{
    const bool series = spec.kind == lint::StructureSpec::Kind::Series;
    Graph graph(series ? "series-structure" : "parallel-structure");

    Node src = makeNode(NodeKind::SecretSource, "secret");
    src.n = spec.n;
    src.shareThreshold = series ? spec.n : spec.k;
    const NodeId srcId = graph.add(std::move(src));

    Node bank = makeNode(NodeKind::Device, "device-bank");
    bank.device = spec.device;
    bank.n = spec.n;
    const NodeId bankId = graph.add(std::move(bank));

    NodeId structId = 0;
    if (series) {
        Node chain = makeNode(NodeKind::Series, "chain");
        chain.device = spec.device;
        chain.count = spec.n;
        structId = graph.add(std::move(chain));
    } else {
        Node par = makeNode(NodeKind::Parallel, "k-of-n");
        par.device = spec.device;
        par.n = spec.n;
        par.k = spec.k;
        structId = graph.add(std::move(par));
    }

    graph.connect(srcId, bankId);
    graph.connect(bankId, structId);

    NodeId tailId = structId;
    std::optional<NodeId> repId;
    if (spec.copies) {
        Node rep = makeNode(NodeKind::Replicate, "serial-copies");
        rep.count = *spec.copies;
        repId = graph.add(std::move(rep));
        graph.connect(tailId, *repId);
        tailId = *repId;
    }
    const NodeId sinkId = graph.add(makeNode(NodeKind::Sink, "release"));
    graph.connect(tailId, sinkId);

    if (spec.accessBound) {
        const double bound = static_cast<double>(*spec.accessBound);
        if (spec.minReliability) {
            Obligation survival;
            survival.kind = Obligation::Kind::SurvivalFloor;
            survival.target = structId;
            survival.access = bound;
            survival.floor = *spec.minReliability;
            survival.hasFloor = true;
            graph.addObligation(survival);
        }
        if (spec.maxResidual) {
            Obligation residual;
            residual.kind = Obligation::Kind::ResidualCeiling;
            residual.target = structId;
            residual.access = bound + 1.0;
            residual.ceiling = *spec.maxResidual;
            residual.hasCeiling = true;
            graph.addObligation(residual);
        }
        if (repId) {
            Obligation total;
            total.kind = Obligation::Kind::ExpectedTotal;
            total.target = *repId;
            total.access = bound;
            total.floor =
                static_cast<double>(*spec.copies) * bound;
            total.hasFloor = true;
            graph.addObligation(total);
        }
    }
    return graph;
}

Graph
lowerShares(const lint::ShareSpec &spec)
{
    Graph graph("share-layout");

    Node src = makeNode(NodeKind::SecretSource, "shares");
    src.n = spec.shares;
    src.shareThreshold = spec.threshold;
    const NodeId srcId = graph.add(std::move(src));
    const NodeId sinkId =
        graph.add(makeNode(NodeKind::Sink, "reconstruct"));

    const uint64_t guarded =
        spec.shares >= spec.unguarded ? spec.shares - spec.unguarded : 0;
    if (guarded > 0) {
        Node gate = makeNode(NodeKind::Device, "wearout-gate");
        gate.device = {10.0, 12.0}; // paper-default guard technology
        gate.n = guarded;
        const NodeId gateId = graph.add(std::move(gate));
        graph.connect(srcId, gateId);
        graph.connect(gateId, sinkId);
    }
    if (spec.unguarded > 0) {
        Node store = makeNode(NodeKind::Store, "bare-store");
        store.n = spec.unguarded;
        const NodeId storeId = graph.add(std::move(store));
        graph.connect(srcId, storeId);
        graph.connect(storeId, sinkId);
    }
    return graph;
}

Graph
lowerOtp(const core::OtpParams &params,
         std::optional<double> receiverFloor,
         std::optional<double> adversaryCeiling)
{
    Graph graph("one-time-pad");

    Node src = makeNode(NodeKind::SecretSource, "pad-shares");
    src.n = params.copies;
    src.shareThreshold = params.threshold;
    const NodeId srcId = graph.add(std::move(src));

    Node gate = makeNode(NodeKind::Device, "tree-switches");
    gate.device = params.device;
    gate.n = params.copies;
    const NodeId gateId = graph.add(std::move(gate));

    Node path = makeNode(NodeKind::Series, "root-to-leaf-path");
    path.device = params.device;
    path.count = params.height;
    const NodeId pathId = graph.add(std::move(path));

    Node par = makeNode(NodeKind::Parallel, "k-of-n-copies");
    par.device = params.device;
    par.n = params.copies;
    par.k = params.threshold;
    const NodeId parId = graph.add(std::move(par));

    const NodeId sinkId = graph.add(makeNode(NodeKind::Sink, "pad"));

    graph.connect(srcId, gateId);
    graph.connect(gateId, pathId);
    graph.connect(pathId, parId);
    graph.connect(parId, sinkId);

    Obligation otp;
    otp.kind = Obligation::Kind::OtpBounds;
    otp.target = parId;
    otp.access = static_cast<double>(params.height);
    otp.floor = receiverFloor.value_or(0.99);
    otp.ceiling = adversaryCeiling.value_or(1e-6);
    otp.hasFloor = true;
    otp.hasCeiling = true;
    graph.addObligation(otp);

    return graph;
}

std::vector<Graph>
lowerSpec(const lint::ParsedSpec &spec, lint::Report &report)
{
    std::vector<Graph> graphs;
    for (const lint::DesignSection &section : spec.designs) {
        try {
            const core::DesignSolver solver(section.request);
            const core::Design design = solver.solve();
            if (!design.feasible) {
                report.add(lint::Code::V901, "[design]", "",
                           "no architecture within the width/bound caps "
                           "meets the degradation criteria; nothing to "
                           "lower",
                           "relax the criteria or raise max_width");
                continue;
            }
            graphs.push_back(
                lowerDesign(section.request, design, section.options));
        } catch (const lint::LintError &error) {
            report.add(lint::Code::V901, "[design]", "",
                       std::string("design request rejected: ") +
                           error.what());
        }
    }
    for (const lint::StructureSpec &structure : spec.structures)
        graphs.push_back(lowerStructure(structure));
    for (const lint::ShareSpec &shares : spec.shares)
        graphs.push_back(lowerShares(shares));
    for (const lint::OtpSection &otp : spec.otps)
        graphs.push_back(lowerOtp(otp.params, otp.receiverFloor,
                                  otp.adversaryCeiling));
    if (!spec.faults.empty()) {
        // A [fault] section models the fabrication line: its plan
        // applies to every wearout device the file describes.
        for (Graph &graph : graphs) {
            for (NodeId id = 0; id < graph.size(); ++id) {
                if (graph.node(id).kind == NodeKind::Device)
                    graph.mutableNode(id).faultPlan = spec.faults.front();
            }
        }
    }
    return graphs;
}

} // namespace lemons::ir
