/**
 * @file
 * JSON codec for the lemons-api/1 envelope: typed request parsing
 * with S-code diagnostics on one side, envelope rendering on the
 * other.
 *
 * Parsing is strict and total: every way a request body can be wrong
 * maps to a stable diagnostic (S001 not JSON, S002 schema mismatch —
 * wrong type, unknown member, missing required member — S011 value
 * out of range) rather than an exception, and a parse that reports an
 * error never half-fills the output struct in a way the caller may
 * act on.
 */

#ifndef LEMONS_API_CODEC_H_
#define LEMONS_API_CODEC_H_

#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/report.h"
#include "api/json.h"
#include "api/types.h"
#include "lint/diagnostics.h"

namespace lemons::obs {
class JsonWriter;
} // namespace lemons::obs

namespace lemons::api {

/** Writes the envelope's "result" member; null result when empty. */
using ResultWriter = std::function<void(obs::JsonWriter &)>;

/**
 * Render a complete lemons-api/1 envelope. `ok` is derived:
 * true iff @p diagnostics carries no error-severity finding.
 * Envelope diagnostics carry a "file" member (empty for API-level
 * findings) on top of the finding shape the analyze document uses.
 * The document ends with a newline.
 */
std::string renderEnvelope(const lint::Report &diagnostics,
                           const ResultWriter &result = {});

/**
 * Parse @p body as JSON, reporting S001 with the parser's message and
 * byte offset on failure. Returns false (and an untouched @p out) on
 * failure.
 */
bool parseBody(std::string_view body, JsonValue &out,
               lint::Report &diagnostics);

/**
 * Decode a /v1/solve request ({alpha, beta, lab, k_fraction,
 * min_reliability, max_residual_reliability, upper_bound_target,
 * max_width, max_per_copy_bound} — all optional, solver defaults
 * apply). The members are the [design] request keys of
 * lint::keyTable(core::DesignRequest &), read by the same rows.
 * Returns false after appending S002/S011 findings.
 */
bool parseSolveRequest(const JsonValue &root, SolveRequest &out,
                       lint::Report &diagnostics);

/** Decode a spec-bearing request ({spec, filename?}); spec required. */
bool parseSpecRequest(const JsonValue &root, SpecRequest &out,
                      lint::Report &diagnostics);

/** Decode a /v1/mc/run request ({spec, filename?, trials?, seed?,
 *  threads?}); bounds-checks trials/threads against the api caps. */
bool parseMcRunRequest(const JsonValue &root, McRunRequest &out,
                       lint::Report &diagnostics);

/** Write a solver Design as the current JSON value. */
void writeDesignJson(obs::JsonWriter &json, const core::Design &design);

/** Write a Monte Carlo structure result as the current JSON value. */
void writeMcStructureJson(obs::JsonWriter &json,
                          const McStructureResult &result);

/**
 * The lemons-api/1 rendering of a whole lint/verify/analyze run: the
 * merged findings become the envelope diagnostics, and the result is
 * {files: [<per-file analysis payload>...], errors, warnings}. This
 * is what `lemons-lint --json` emits.
 */
std::string
renderAnalysisEnvelope(const std::vector<analysis::AnalyzedFile> &files);

} // namespace lemons::api

#endif // LEMONS_API_CODEC_H_
