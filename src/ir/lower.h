/**
 * @file
 * Lowering: from the library's architecture descriptions into the IR.
 *
 * Three entry points mirror the three ways a design reaches the
 * toolchain: a solved `core::Design`, a hand-written `StructureSpec`
 * (or share/OTP layout), and a parsed `.lemons` spec file. All produce
 * the same graph language, with proof obligations attached wherever
 * the source carried degradation criteria, so the verifier never
 * needs to know where a graph came from.
 *
 * Lowering is total for well-formed inputs and *graceful* for
 * questionable ones (a share layout with more unguarded shares than
 * shares still lowers, with the guarded bank clamped to zero — the
 * secret-flow pass will then condemn it). Only inputs that cannot
 * express an architecture at all (an infeasible design request) are
 * rejected, via V901 from lowerSpec.
 */

#ifndef LEMONS_IR_LOWER_H_
#define LEMONS_IR_LOWER_H_

#include <optional>
#include <vector>

#include "core/decision_tree.h"
#include "core/design_solver.h"
#include "ir/graph.h"
#include "lint/diagnostics.h"
#include "lint/rules.h"
#include "lint/spec_file.h"

namespace lemons::ir {

/**
 * Lower a solved design: SecretSource -> Device bank -> k-of-n
 * Parallel -> Replicate(N) -> Sink, with the request's degradation
 * criteria as obligations, plus a GuessSuccess obligation when
 * @p options declares a guess space. @p design must be feasible.
 */
Graph lowerDesign(const core::DesignRequest &request,
                  const core::Design &design,
                  const lint::DesignLintOptions &options = {});

/**
 * Lower a series/parallel structure spec; optional accessBound /
 * criteria fields become obligations.
 */
Graph lowerStructure(const lint::StructureSpec &spec);

/**
 * Lower a share layout: guarded shares behind a Device bank, any
 * unguarded shares through a bare Store branch (the secret-flow
 * pass's prey).
 */
Graph lowerShares(const lint::ShareSpec &spec);

/**
 * Lower an OTP architecture: per-copy path of H series switches, a
 * k-of-n Parallel over the copies, and an OtpBounds obligation
 * (receiver floor defaults to 0.99, adversary ceiling to 1e-6).
 */
Graph lowerOtp(const core::OtpParams &params,
               std::optional<double> receiverFloor = {},
               std::optional<double> adversaryCeiling = {});

/**
 * Lower every architecture-bearing section of a parsed spec file.
 * [design] sections are solved here, and only here: an infeasible or
 * rejected request emits V901 and lowers to no graph, so every design
 * graph (and its guess space) is a solved section. A [fault] section
 * attaches its plan to every
 * Device node of the file's graphs. Lint-only sections ([mway],
 * [workload], [mixture]) do not lower.
 */
std::vector<Graph> lowerSpec(const lint::ParsedSpec &spec,
                             lint::Report &report);

} // namespace lemons::ir

#endif // LEMONS_IR_LOWER_H_
