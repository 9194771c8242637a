/**
 * @file
 * Machine-readable reporting for the wear-budget analyzer.
 *
 * Serializes one analyzed spec file: every finding the run produced
 * (L/V/A merged, in emission order) plus the analyzer's certified
 * brackets — per-graph capacity/demand dataflow results, per-workload
 * demand envelopes, per-cohort premature-lockout brackets, and the
 * guessing-adversary obligations. The `lemons-api/1` analyze result
 * (api::renderAnalysisEnvelope, behind `lemons-lint --json` and
 * lemonsd's POST /v1/analyze) is built from these per-file objects.
 * Unbounded bracket endpoints (the lattice top) serialize as JSON
 * null, matching the obs::JsonWriter convention for non-finite
 * doubles, so consumers can distinguish "certified huge" from
 * "unbounded".
 */

#ifndef LEMONS_ANALYSIS_REPORT_H_
#define LEMONS_ANALYSIS_REPORT_H_


#include "analysis/passes.h"
#include "lint/diagnostics.h"

namespace lemons::obs {
class JsonWriter;
} // namespace lemons::obs

namespace lemons::analysis {

/** One spec file's merged findings plus its analyzer results. */
struct AnalyzedFile
{
    /** All findings for the file (L + optional V + A, merged). */
    lint::Report findings;
    /** The analyzer's brackets (analysis.file names the file). */
    FileAnalysis analysis;
};

/**
 * Write @p findings as a JSON array of diagnostic objects
 * ({code, severity, object, field, message, hint}). Exposed so the
 * lemons::api envelope codec emits byte-identical finding objects.
 */
void writeFindingsJson(obs::JsonWriter &json, const lint::Report &findings);

/**
 * Write one analyzed file as a JSON object ({file, findings, graphs,
 * workloads, cohorts, adversaries}) — the per-file payload of the
 * `lemons-api/1` analyze result.
 */
void writeFileAnalysisJson(obs::JsonWriter &json, const AnalyzedFile &file);

} // namespace lemons::analysis

#endif // LEMONS_ANALYSIS_REPORT_H_
