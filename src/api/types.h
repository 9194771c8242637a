/**
 * @file
 * Typed request/response vocabulary of the unified lemons::api facade.
 *
 * Every consumer of the library's analyses — the lemonsd HTTP server,
 * `lemons-lint --json`, `lemons-fleet --json` — speaks one versioned
 * JSON schema, `lemons-api/1`:
 *
 *   {
 *     "schema": "lemons-api/1",
 *     "ok": <bool>,                 // no error-severity diagnostics
 *     "diagnostics": [ {code, severity, object, field, message,
 *                       hint, file}, ... ],
 *     "result": <endpoint-specific object> | null
 *   }
 *
 * Diagnostics reuse the stable code registry (lint/code_registry.h):
 * the S-range names request-level failures (bad JSON, schema
 * mismatch, quota exhaustion), so a client distinguishes "your
 * request is malformed" (S-codes, HTTP 4xx) from "your design is
 * broken" (L/V/A-codes inside a 200 envelope) with the same machinery
 * it already uses for CI lint gating.
 *
 * Versioning contract: fields are append-only within `lemons-api/1`;
 * removing or retyping a field bumps the schema string. Clients must
 * ignore members they do not recognize.
 */

#ifndef LEMONS_API_TYPES_H_
#define LEMONS_API_TYPES_H_

#include <cstdint>
#include <string>

#include "core/design_solver.h"

namespace lemons::api {

/** The envelope schema identifier. */
inline constexpr const char *kApiSchema = "lemons-api/1";

/** POST /v1/solve: one design-solver request. */
struct SolveRequest
{
    core::DesignRequest request{};
};

/**
 * POST /v1/lint, /v1/verify, /v1/analyze: a spec file shipped inline.
 * The body carries the spec *text*, not a path — lemonsd never reads
 * the filesystem on behalf of a client.
 */
struct SpecRequest
{
    std::string spec;
    /** Stamp used on diagnostics (purely cosmetic). */
    std::string filename = "request.lemons";
};

/** Hard ceilings on what one /v1/mc/run request may ask for. */
inline constexpr uint64_t kMcMaxTrials = 1u << 20;
inline constexpr unsigned kMcMaxThreads = 16;
/** Widest [structure] (n): 32 MiB of uniforms in a worker's bank buffer. */
inline constexpr uint64_t kMcMaxWidth = uint64_t{1} << 22;
/**
 * Device draws per request, the sum over its [structure] sections of
 * trials x n. The deadline and drain cancel are polled between waves
 * of trials, so this bounds the work a request can do without seeing
 * them.
 */
inline constexpr uint64_t kMcMaxDeviceDraws = uint64_t{1} << 32;

/**
 * POST /v1/mc/run: Monte Carlo over the [structure] sections of an
 * inline spec. Each section is simulated independently with the
 * engine's reproducible (seed, trial) streams, so re-posting the same
 * request yields bit-identical statistics.
 */
struct McRunRequest
{
    std::string spec;
    std::string filename = "request.lemons";
    /** Trials per structure section, in [1, kMcMaxTrials]. */
    uint64_t trials = 4096;
    /** Master seed for the counter-based trial streams. */
    uint64_t seed = 0;
    /** Executors per section run, in [1, kMcMaxThreads]. */
    unsigned threads = 1;
};

/** Per-[structure] outcome of a /v1/mc/run request. */
struct McStructureResult
{
    std::string kind;   ///< "series" | "parallel"
    uint64_t n = 0;     ///< width / chain length
    uint64_t k = 0;     ///< threshold (parallel; 0 for series)
    uint64_t trials = 0;      ///< trials actually executed
    bool interrupted = false; ///< cancelled or deadline-cut
    double meanAccesses = 0.0;
    double stddevAccesses = 0.0;
    double minAccesses = 0.0;
    double maxAccesses = 0.0;
};

} // namespace lemons::api

#endif // LEMONS_API_TYPES_H_
