/**
 * @file
 * The unified lemons::api service: five endpoint handlers mapping
 * request bodies to lemons-api/1 envelopes.
 *
 * This is the layer lemonsd routes into, but nothing here is
 * HTTP-specific — a handler takes the raw request body and returns
 * the envelope plus a *suggested* transport status, so the same
 * handlers back in-process callers and tests without a socket in
 * sight. Status semantics:
 *
 *   200  the request was understood and processed; "ok" in the
 *        envelope reflects the *analysis* outcome (a spec full of
 *        lint errors is still a successful lint request),
 *   400  the body was not a valid request (S001/S002/S011),
 *   422  the request was well-formed but names nothing the endpoint
 *        can run (S010: e.g. /v1/mc/run on a spec with no
 *        [structure] section).
 *
 * Handlers are const and share no mutable state, so one Service
 * instance serves any number of pool workers concurrently.
 */

#ifndef LEMONS_API_SERVICE_H_
#define LEMONS_API_SERVICE_H_

#include <chrono>
#include <optional>
#include <string>
#include <string_view>

#include "api/types.h"
#include "engine/engine.h"

namespace lemons::api {

/** A handler's outcome: envelope body plus suggested HTTP status. */
struct ServiceResult
{
    int status = 200;
    /** Envelope "ok" flag (also encoded in the body). */
    bool ok = true;
    /** Complete lemons-api/1 JSON document, newline-terminated. */
    std::string body;
};

/**
 * Execution policy the *server* injects into long-running handlers:
 * the drain cancel token and per-request deadline ride through here,
 * so an in-flight Monte Carlo run ends promptly (with a partial,
 * interrupted-flagged result) when lemonsd is asked to shut down.
 */
struct McExecution
{
    /** Observed at wave boundaries; not owned, may be null. */
    const engine::CancelToken *cancel = nullptr;
    /** Wall-clock cutoff for the whole request, when set. */
    std::optional<std::chrono::steady_clock::time_point> deadline;
};

class Service
{
  public:
    /** POST /v1/solve: run the design solver on one request. */
    ServiceResult solve(std::string_view body) const;

    /** POST /v1/lint: design-rule findings for an inline spec. */
    ServiceResult lint(std::string_view body) const;

    /** POST /v1/verify: lint and static-verifier findings (L+V). */
    ServiceResult verify(std::string_view body) const;

    /** POST /v1/analyze: L+V+A findings and the analyzer's brackets,
     *  the document `lemons-lint --json` prints for the same spec. */
    ServiceResult analyze(std::string_view body) const;

    /** POST /v1/mc/run: Monte Carlo over [structure] sections. */
    ServiceResult mcRun(std::string_view body,
                        const McExecution &exec = {}) const;
};

} // namespace lemons::api

#endif // LEMONS_API_SERVICE_H_
