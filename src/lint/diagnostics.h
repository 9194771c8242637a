/**
 * @file
 * Diagnostic engine for the lemons::lint design-rule checker.
 *
 * The paper's security guarantees are statistical statements about
 * carefully constrained designs (k-out-of-n share structures, positive
 * Weibull shape/scale, access bounds sized against attack budgets). A
 * misconfigured spec does not fail loudly — it silently weakens the
 * architecture, which is exactly the misconfiguration class targeted-
 * wearout attackers exploit. The lint layer rejects inconsistent
 * specs *before* any simulation runs.
 *
 * Every finding carries a stable diagnostic code (L001, L002, ...)
 * with a fixed default severity, the object/field it refers to, a
 * human message, and an optional fix-hint. Codes are append-only: a
 * published code never changes meaning, so tests, CI greps, and
 * suppression lists stay valid across releases.
 *
 * Code ranges:
 *   L0xx  DesignRequest / solver inputs
 *   L1xx  secret-sharing share counts vs. field size
 *   L2xx  series / parallel structure composition
 *   L3xx  one-time-pad tree configurations
 *   L4xx  fault-injection plans
 *   L5xx  M-way replication composition
 *   L6xx  usage-workload profiles
 *   L7xx  lifetime-mixture (bathtub) models
 *   L8xx  fleet lifecycle campaigns
 *   L9xx  spec-file parsing (CLI)
 *
 * The V range belongs to the whole-design static verifier
 * (lemons::verify over the lemons::ir architecture IR):
 *   V0xx  analytic bound propagation (certified [lo, hi] brackets)
 *   V1xx  structural rules (reachability, redundancy waste)
 *   V2xx  secret-flow analysis (taint from share sources to sinks)
 *   V9xx  IR lowering problems
 *
 * The C range names the fleet checkpoint failure modes (C101-C107,
 * raised as fleet::CheckpointError rather than Report findings), and
 * the A range belongs to the wear-budget analyzer (lemons::analysis):
 *   A0xx  access-budget dataflow (exhaustion, premature lockout,
 *         dead wear, certified consumption brackets)
 *   A1xx  adversary-success obligations (guessing, unbounded wearout)
 *
 * All four families share one registry (lint/code_registry.h) whose
 * id strings are compile-time checked for uniqueness.
 */

#ifndef LEMONS_LINT_DIAGNOSTICS_H_
#define LEMONS_LINT_DIAGNOSTICS_H_

#include <cstddef>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "lint/code_registry.h"

namespace lemons::lint {

/** How bad a finding is. Only Error makes checkOrThrow throw. */
enum class Severity {
    Note,    ///< informational context
    Warning, ///< legal but probably not what the designer meant
    Error,   ///< the spec violates a hard design rule
};

/** Lowercase severity name ("note" / "warning" / "error"). */
const char *severityName(Severity severity);

/*
 * The code table itself lives in lint/code_registry.h, shared with
 * the verify, fleet, and analysis families so ids cannot collide.
 */

/** Stable diagnostic identifiers. */
enum class Code {
#define LEMONS_LINT_ENUM(code, id, severity, title) code,
    LEMONS_CODE_TABLE(LEMONS_LINT_ENUM)
#undef LEMONS_LINT_ENUM
};

/** Catalog entry for one diagnostic code. */
struct CodeInfo
{
    Code code;
    const char *id;    ///< "L001"
    Severity severity; ///< default severity
    const char *title; ///< one-line rule statement
};

/** Catalog row for @p code. */
const CodeInfo &codeInfo(Code code);

/** The full append-only catalog, in code order (for --codes / docs). */
const std::vector<CodeInfo> &codeCatalog();

/**
 * @p text with C0 control bytes and DEL written as \xNN: spec bytes
 * and file names reach the text report verbatim otherwise, and an ESC
 * among them would drive the reader's terminal.
 */
std::string printable(std::string_view text);

/** One finding. */
struct Diagnostic
{
    Code code;
    Severity severity; ///< copied from the catalog at creation
    std::string object; ///< e.g. "DesignRequest"
    std::string field;  ///< e.g. "device.alpha"; may be empty
    std::string message;
    std::string hint;   ///< optional fix-hint; may be empty
    std::string file;   ///< spec file (CLI runs); empty for API checks

    /** "L001". */
    const char *id() const { return codeInfo(code).id; }

    /** One-line rendering: file: [code] severity object.field: msg.
     *  Control bytes (below 0x20, and 0x7f) render as \xNN. */
    std::string format() const;
};

/** An ordered collection of findings from one or more rule passes. */
class Report
{
  public:
    /** Append a finding; severity comes from the catalog. */
    void add(Code code, std::string object, std::string field,
             std::string message, std::string hint = "");

    /** Append every finding of @p other. */
    void merge(Report other);

    /** Stamp every un-stamped finding with the source file @p name. */
    void setFile(const std::string &name);

    /** All findings in emission order. */
    const std::vector<Diagnostic> &diagnostics() const { return items; }

    bool empty() const { return items.empty(); }
    /** Any error-severity finding? */
    bool hasErrors() const;
    size_t errorCount() const;
    size_t warningCount() const;
    /** Whether a finding with @p code is present. */
    bool hasCode(Code code) const;

    /** All findings rendered one per line. */
    std::string format() const;

  private:
    std::vector<Diagnostic> items;
};

/**
 * Thrown by the checkOrThrow wrappers. Derives from
 * std::invalid_argument so call sites (and tests) that predate the
 * lint layer keep catching what requireArg used to throw.
 */
class LintError : public std::invalid_argument
{
  public:
    explicit LintError(Report findings);

    /** The full report behind the exception message. */
    const Report &report() const { return findings; }

  private:
    Report findings;
};

/** Throw LintError when @p report contains error-severity findings. */
void throwOnErrors(const Report &report);

} // namespace lemons::lint

#endif // LEMONS_LINT_DIAGNOSTICS_H_
