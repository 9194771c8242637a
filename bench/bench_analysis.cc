/**
 * @file
 * Wear-budget analyzer throughput: the full parse -> lower ->
 * capacity/demand dataflow -> A-code pipeline over a spec exercising
 * every analyzer path (design + guessing obligation, structure,
 * shares, workload envelopes, a two-cohort fleet). The analyzer sits
 * on the CI gate for every config in the tree, so its wall time per
 * spec is a budget worth watching.
 */

#include <chrono>

#include "analysis/passes.h"
#include "bench/harness.h"
#include "lint/spec_file.h"
#include "util/table.h"

using namespace lemons;

namespace {

const char *const kSpecText =
    "[design]\n"
    "alpha = 10\nbeta = 12\nlab = 91250\nk_fraction = 0.1\n"
    "guess_space = 1e6\nguess_success_ceiling = 0.5\n"
    "[structure]\n"
    "kind = parallel\nn = 1000\nk = 100\nalpha = 10\nbeta = 12\n"
    "[shares]\n"
    "n = 200\nk = 20\nfield_bits = 8\n"
    "[workload]\n"
    "mean_per_day = 50\nburst_probability = 0.05\nburst_multiplier = 3\n"
    "budget = 91250\nhorizon_days = 1825\n"
    "[fleet]\n"
    "devices = 10000\nhorizon_days = 1825\npremature_days = 365\n"
    "premature_tolerance = 0.05\n"
    "[cohort]\n"
    "name = retail\nweight = 0.7\nstagger_days = 90\n"
    "access_bound = 91250\nmean_per_day = 50\n"
    "infant_fraction = 0.02\ninfant_alpha = 9000\ninfant_beta = 0.8\n"
    "main_alpha = 150000\nmain_beta = 12\n"
    "[cohort]\n"
    "name = secondhand\nweight = 0.3\nstagger_days = 30\n"
    "access_bound = 91250\nmean_per_day = 40\n"
    "infant_fraction = 0.05\ninfant_alpha = 9000\ninfant_beta = 0.8\n"
    "main_alpha = 150000\nmain_beta = 12\n"
    "reprovision_day = 900\nreprovision_scale = 1.5\n";

} // namespace

LEMONS_BENCH(analysisPipeline, "analysis.pipeline")
{
    const uint64_t reps = ctx.scaled(200, 10);

    const auto start = std::chrono::steady_clock::now();
    size_t findings = 0;
    double capacityLo = 0.0;
    for (uint64_t rep = 0; rep < reps; ++rep) {
        lint::Report parseFindings;
        const analysis::FileAnalysis analyzed = analysis::analyzeSpec(
            lint::parseSpec(kSpecText, "bench.lemons", parseFindings));
        findings += analyzed.findings.diagnostics().size();
        for (const analysis::GraphBudget &graph : analyzed.graphs)
            capacityLo += graph.systemCapacity.lo;
        ctx.keep(static_cast<double>(analyzed.cohorts.size()));
    }
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();

    const double perSpecMs = seconds * 1e3 / static_cast<double>(reps);
    ctx.metric("analysis.spec_ms", perSpecMs);
    ctx.metric("analysis.findings_per_spec",
               static_cast<double>(findings) /
                   static_cast<double>(reps));
    ctx.keep(capacityLo);

    if (ctx.reporting()) {
        Table table({"metric", "value"});
        table.addRow({"specs analyzed", formatCount(reps)});
        table.addRow({"ms per spec", formatGeneral(perSpecMs)});
        table.addRow({"findings per spec",
                      formatCount(findings / reps)});
        table.print(ctx.out());
        ctx.out() << "\n";
    }
}
