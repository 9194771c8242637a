/**
 * @file
 * The spec-check pipeline and its machine-readable report.
 *
 * checkSpec is the one L/V/A entry point behind `lemons-lint` and
 * lemonsd's POST /v1/lint, /v1/verify and /v1/analyze, so the CLI and
 * the daemon give one verdict per spec. The report serializes one
 * checked file: every finding the run produced plus the analyzer's
 * certified brackets — per-graph capacity/demand dataflow results,
 * per-workload demand envelopes, per-cohort premature-lockout
 * brackets, and the guessing-adversary obligations. The
 * `lemons-api/1` analyze result (api::renderAnalysisEnvelope, behind
 * `lemons-lint --json` and POST /v1/analyze) is built from these
 * per-file objects. Unbounded bracket endpoints (the lattice top)
 * serialize as JSON null, matching the obs::JsonWriter convention for
 * non-finite doubles, so consumers can distinguish "certified huge"
 * from "unbounded".
 */

#ifndef LEMONS_ANALYSIS_REPORT_H_
#define LEMONS_ANALYSIS_REPORT_H_

#include <string>
#include <string_view>

#include "analysis/passes.h"
#include "lint/diagnostics.h"

namespace lemons::obs {
class JsonWriter;
} // namespace lemons::obs

namespace lemons::analysis {

/** One spec file's merged findings plus its analyzer results. */
struct AnalyzedFile
{
    /** All findings up to the depth checked: L, V901 and V, A. */
    lint::Report findings;
    /** The analyzer's brackets (analysis.file names the file; empty
     *  below CheckDepth::Analyze). */
    FileAnalysis analysis;
};

/** How far checkSpec runs; each depth includes the ones before. */
enum class CheckDepth
{
    Lint,    ///< parse and design rules (L-range)
    Verify,  ///< + lower and run the static verifier (V-range)
    Analyze, ///< + the wear-budget analyzer (A-range)
};

/**
 * Check spec text up to @p depth: parse once, lower once (from
 * Verify on), and merge the findings in L, V, A order. @p filename
 * stamps the findings and names the file in the result.
 */
AnalyzedFile checkSpec(std::string_view text, const std::string &filename,
                       CheckDepth depth);

/** checkSpec on one spec file; an unreadable file yields L901. */
AnalyzedFile checkSpecFile(const std::string &path, CheckDepth depth);

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
