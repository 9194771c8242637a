#include "analysis/report.h"

#include <utility>
#include <vector>

#include "ir/lower.h"
#include "lint/spec_file.h"
#include "obs/json.h"
#include "verify/passes.h"

namespace lemons::analysis {

namespace {

/** The checks past the parse; @p findings holds the parse's L-range. */
AnalyzedFile
checkParsed(const lint::ParsedSpec &parsed, lint::Report findings,
            const std::string &filename, CheckDepth depth)
{
    AnalyzedFile out;
    out.findings = std::move(findings);
    out.analysis.file = filename;
    if (depth == CheckDepth::Lint)
        return out;

    lint::Report verified;
    const std::vector<ir::Graph> graphs = ir::lowerSpec(parsed, verified);
    for (const ir::Graph &graph : graphs)
        verified.merge(verify::verifyGraph(graph));
    verified.setFile(filename);
    out.findings.merge(std::move(verified));
    if (depth == CheckDepth::Verify)
        return out;

    out.analysis = analyzeSpec(parsed, graphs);
    out.analysis.file = filename;
    out.analysis.findings.setFile(filename);
    out.findings.merge(out.analysis.findings);
    return out;
}

/** {"lo": x, "hi": y} with unbounded endpoints as null. */
void
writeBracket(obs::JsonWriter &json, double lo, double hi)
{
    json.beginObject();
    json.key("lo");
    json.value(lo);
    json.key("hi");
    json.value(hi); // non-finite (the lattice top) emits as null
    json.endObject();
}

void
writeBracket(obs::JsonWriter &json, AccessBracket bracket)
{
    writeBracket(json, bracket.lo, bracket.hi);
}

void
writeGraphs(obs::JsonWriter &json, const std::vector<GraphBudget> &graphs)
{
    json.beginArray();
    for (const GraphBudget &graph : graphs) {
        json.beginObject();
        json.key("graph");
        json.value(graph.graph);
        json.key("vacuous");
        json.value(graph.vacuous);
        json.key("system_capacity");
        writeBracket(json, graph.systemCapacity);
        json.key("system_demand");
        writeBracket(json, graph.systemDemand);
        json.key("nodes");
        json.beginArray();
        for (const NodeBudget &node : graph.nodes) {
            json.beginObject();
            json.key("kind");
            json.value(node.kind);
            json.key("label");
            json.value(node.label);
            json.key("capacity");
            writeBracket(json, node.capacity);
            json.key("demand");
            writeBracket(json, node.demand);
            json.endObject();
        }
        json.endArray();
        json.endObject();
    }
    json.endArray();
}

void
writeWorkloads(obs::JsonWriter &json,
               const std::vector<WorkloadAnalysis> &workloads)
{
    json.beginArray();
    for (const WorkloadAnalysis &workload : workloads) {
        json.beginObject();
        json.key("demand");
        writeBracket(json, workload.demand);
        json.key("budget");
        if (workload.budget)
            json.value(*workload.budget);
        else
            json.null();
        json.key("exhaust_upper");
        json.value(workload.exhaustUpper);
        json.endObject();
    }
    json.endArray();
}

void
writeCohorts(obs::JsonWriter &json,
             const std::vector<CohortAnalysis> &cohorts)
{
    json.beginArray();
    for (const CohortAnalysis &cohort : cohorts) {
        json.beginObject();
        json.key("cohort");
        json.value(cohort.cohort);
        json.key("premature");
        writeBracket(json, cohort.premature.lo, cohort.premature.hi);
        json.key("window_demand");
        writeBracket(json, cohort.windowDemand);
        json.key("horizon_demand");
        writeBracket(json, cohort.horizonDemand);
        json.endObject();
    }
    json.endArray();
}

void
writeAdversaries(obs::JsonWriter &json,
                 const std::vector<AdversaryAnalysis> &adversaries)
{
    json.beginArray();
    for (const AdversaryAnalysis &adversary : adversaries) {
        json.beginObject();
        json.key("graph");
        json.value(adversary.graph);
        json.key("guess_space");
        json.value(adversary.guessSpace);
        json.key("ceiling");
        if (adversary.ceiling)
            json.value(*adversary.ceiling);
        else
            json.null();
        json.key("success");
        writeBracket(json, adversary.success.lo, adversary.success.hi);
        json.endObject();
    }
    json.endArray();
}

} // namespace

AnalyzedFile
checkSpec(std::string_view text, const std::string &filename,
          CheckDepth depth)
{
    lint::Report findings;
    const lint::ParsedSpec parsed =
        lint::parseSpec(text, filename, findings);
    return checkParsed(parsed, std::move(findings), filename, depth);
}

AnalyzedFile
checkSpecFile(const std::string &path, CheckDepth depth)
{
    lint::Report findings;
    const lint::ParsedSpec parsed = lint::parseSpecFile(path, findings);
    return checkParsed(parsed, std::move(findings), path, depth);
}

void
writeFindingsJson(obs::JsonWriter &json, const lint::Report &findings)
{
    json.beginArray();
    for (const lint::Diagnostic &diagnostic : findings.diagnostics()) {
        json.beginObject();
        json.key("code");
        json.value(diagnostic.id());
        json.key("severity");
        json.value(lint::severityName(diagnostic.severity));
        json.key("object");
        json.value(diagnostic.object);
        json.key("field");
        json.value(diagnostic.field);
        json.key("message");
        json.value(diagnostic.message);
        json.key("hint");
        json.value(diagnostic.hint);
        json.endObject();
    }
    json.endArray();
}

void
writeFileAnalysisJson(obs::JsonWriter &json, const AnalyzedFile &file)
{
    json.beginObject();
    json.key("file");
    json.value(file.analysis.file);
    json.key("findings");
    writeFindingsJson(json, file.findings);
    json.key("graphs");
    writeGraphs(json, file.analysis.graphs);
    json.key("workloads");
    writeWorkloads(json, file.analysis.workloads);
    json.key("cohorts");
    writeCohorts(json, file.analysis.cohorts);
    json.key("adversaries");
    writeAdversaries(json, file.analysis.adversaries);
    json.endObject();
}

} // namespace lemons::analysis
