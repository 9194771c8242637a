#include "api/service.h"

#include <string>
#include <utility>
#include <vector>

#include "analysis/report.h"
#include "api/codec.h"
#include "arch/structures_sim.h"
#include "lint/spec_file.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "sim/monte_carlo.h"
#include "wearout/population.h"

namespace lemons::api {

namespace {

/** 400 envelope for a body that failed to decode. */
ServiceResult
badRequest(const lint::Report &diagnostics)
{
    ServiceResult result;
    result.status = 400;
    result.ok = false;
    result.body = renderEnvelope(diagnostics);
    return result;
}

/** 200 envelope whose ok flag mirrors the findings. */
ServiceResult
processed(const lint::Report &diagnostics, const ResultWriter &writer = {})
{
    ServiceResult result;
    result.status = 200;
    result.ok = !diagnostics.hasErrors();
    result.body = renderEnvelope(diagnostics, writer);
    return result;
}

/** result: {errors, warnings} summary for the finding-only endpoints. */
ResultWriter
summaryWriter(const lint::Report &report)
{
    const uint64_t errors = report.errorCount();
    const uint64_t warnings = report.warningCount();
    return [errors, warnings](obs::JsonWriter &json) {
        json.beginObject();
        json.key("errors");
        json.value(errors);
        json.key("warnings");
        json.value(warnings);
        json.endObject();
    };
}

/** POST /v1/lint, /v1/verify and /v1/analyze: one check at @p depth. */
ServiceResult
checkSpecRequest(std::string_view body, analysis::CheckDepth depth)
{
    lint::Report diagnostics;
    JsonValue root;
    SpecRequest request;
    if (!parseBody(body, root, diagnostics) ||
        !parseSpecRequest(root, request, diagnostics))
        return badRequest(diagnostics);

    analysis::AnalyzedFile checked =
        analysis::checkSpec(request.spec, request.filename, depth);
    if (depth != analysis::CheckDepth::Analyze)
        return processed(checked.findings,
                         summaryWriter(checked.findings));

    ServiceResult result;
    result.status = 200;
    result.ok = !checked.findings.hasErrors();
    result.body = renderAnalysisEnvelope({std::move(checked)});
    return result;
}

} // namespace

ServiceResult
Service::solve(std::string_view body) const
{
    LEMONS_OBS_INCREMENT("api.solve.requests");
    lint::Report diagnostics;
    JsonValue root;
    SolveRequest request;
    if (!parseBody(body, root, diagnostics) ||
        !parseSolveRequest(root, request, diagnostics))
        return badRequest(diagnostics);

    // The solver constructor throws on error-severity L0xx findings;
    // run the full rule pass up front instead so the envelope carries
    // every finding (including warnings on feasible requests).
    diagnostics.merge(lint::checkDesign(request.request));
    if (diagnostics.hasErrors())
        return processed(diagnostics);

    const core::Design design =
        core::DesignSolver(request.request).solve();
    return processed(diagnostics, [&design](obs::JsonWriter &json) {
        writeDesignJson(json, design);
    });
}

ServiceResult
Service::lint(std::string_view body) const
{
    LEMONS_OBS_INCREMENT("api.lint.requests");
    return checkSpecRequest(body, analysis::CheckDepth::Lint);
}

ServiceResult
Service::verify(std::string_view body) const
{
    LEMONS_OBS_INCREMENT("api.verify.requests");
    return checkSpecRequest(body, analysis::CheckDepth::Verify);
}

ServiceResult
Service::analyze(std::string_view body) const
{
    LEMONS_OBS_INCREMENT("api.analyze.requests");
    return checkSpecRequest(body, analysis::CheckDepth::Analyze);
}

ServiceResult
Service::mcRun(std::string_view body, const McExecution &exec) const
{
    LEMONS_OBS_INCREMENT("api.mc.requests");
    lint::Report diagnostics;
    JsonValue root;
    McRunRequest request;
    if (!parseBody(body, root, diagnostics) ||
        !parseMcRunRequest(root, request, diagnostics))
        return badRequest(diagnostics);

    lint::Report findings;
    const lint::ParsedSpec parsed =
        lint::parseSpec(request.spec, request.filename, findings);
    if (findings.hasErrors())
        return processed(findings);
    if (parsed.structures.empty()) {
        findings.add(lint::Code::S010, "McRunRequest", "spec",
                     "the spec declares no [structure] section",
                     "add a [structure] section (kind, n, k, alpha, "
                     "beta) to simulate");
        ServiceResult result;
        result.status = 422;
        result.ok = false;
        result.body = renderEnvelope(findings);
        return result;
    }

    // Refuse oversized work before any trial runs: one wave of trials
    // never sees the deadline, and a wide bank's uniform buffer stays
    // with the worker thread.
    const auto refuse = [&findings](size_t index, const char *field,
                                    const std::string &what,
                                    const char *hint) {
        findings.add(lint::Code::S011, "McRunRequest", field,
                     "[structure] " + std::to_string(index + 1) + ": " +
                         what,
                     hint);
        return badRequest(findings);
    };
    uint64_t deviceDraws = 0;
    for (size_t index = 0; index < parsed.structures.size(); ++index) {
        const uint64_t n = parsed.structures[index].n;
        if (n > kMcMaxWidth)
            return refuse(index, "spec",
                          "n = " + std::to_string(n) +
                              " exceeds the limit of " +
                              std::to_string(kMcMaxWidth) + " devices",
                          "simulate a narrower bank");
        deviceDraws += request.trials * n;
        if (deviceDraws > kMcMaxDeviceDraws)
            return refuse(index, "trials",
                          "trials x n summed over the sections exceeds "
                          "the limit of " +
                              std::to_string(kMcMaxDeviceDraws) +
                              " device draws",
                          "ask for fewer trials or narrower banks");
    }

    std::vector<McStructureResult> results;
    bool anyInterrupted = false;
    for (size_t index = 0; index < parsed.structures.size(); ++index) {
        const lint::StructureSpec &spec = parsed.structures[index];
        const wearout::DeviceFactory factory(
            spec.device, wearout::ProcessVariation::none());

        sim::McRunOptions options;
        options.trials = request.trials;
        options.threads = request.threads;
        options.keepSamples = false;
        options.cancel = exec.cancel;
        options.deadline = exec.deadline;

        const bool parallel =
            spec.kind == lint::StructureSpec::Kind::Parallel;
        const size_t n = spec.n;
        const size_t k = spec.k;
        const auto metric = [&factory, parallel, n, k](Rng &rng) {
            const uint64_t survived = parallel
                ? arch::sampleParallelSurvivedAccesses(factory, n, k, rng)
                : arch::sampleSeriesSurvivedAccesses(factory, n, rng);
            return static_cast<double>(survived);
        };

        // Distinct seeds per section keep the per-section streams
        // independent while the whole request stays reproducible.
        const sim::MonteCarlo mc(request.seed + index, request.trials);
        const sim::TrialReport report = mc.run(metric, options);

        McStructureResult out;
        out.kind = parallel ? "parallel" : "series";
        out.n = spec.n;
        out.k = parallel ? spec.k : 0;
        out.trials = report.trials;
        out.interrupted = report.interrupted();
        out.meanAccesses = report.stats.mean();
        out.stddevAccesses = report.stats.stddev();
        out.minAccesses = report.stats.min();
        out.maxAccesses = report.stats.max();
        const bool interrupted = out.interrupted;
        anyInterrupted = anyInterrupted || interrupted;
        results.push_back(std::move(out));

        if (interrupted && exec.cancel != nullptr &&
            exec.cancel->cancelled())
            break; // draining: report what ran, skip the rest
    }

    return processed(findings, [&](obs::JsonWriter &json) {
        json.beginObject();
        json.key("trials_requested");
        json.value(request.trials);
        json.key("seed");
        json.value(request.seed);
        json.key("interrupted");
        json.value(anyInterrupted);
        json.key("structures");
        json.beginArray();
        for (const McStructureResult &structure : results)
            writeMcStructureJson(json, structure);
        json.endArray();
        json.endObject();
    });
}

} // namespace lemons::api
