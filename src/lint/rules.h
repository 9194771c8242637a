/**
 * @file
 * Static design-rule passes over the library's spec structs.
 *
 * Every pass is a pure function from a spec to a Report — no
 * simulation, no RNG, no device fabrication. The passes validate the
 * same contracts the constructors enforce (as errors) plus
 * plausibility rules the constructors cannot reject without breaking
 * legitimate exotic uses (as warnings): a stuck-closed rate of 30 %
 * is a legal FaultPlan but almost certainly a typo, and a design
 * whose guess space is below its access bound is secure hardware
 * wrapped around a brute-forceable passcode.
 *
 * The checkOrThrow wrappers are the constructor-facing fast path:
 * they test the error conditions with zero allocation and only build
 * a full Report when something is actually wrong, so hot paths
 * (ParallelStructure is constructed inside solver loops) pay a few
 * comparisons, not string formatting.
 */

#ifndef LEMONS_LINT_RULES_H_
#define LEMONS_LINT_RULES_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/decision_tree.h"
#include "core/design_solver.h"
#include "fault/fault_plan.h"
#include "lint/diagnostics.h"
#include "wearout/device.h"

namespace lemons::lint {

/** Context for design-level security rules that need attack inputs. */
struct DesignLintOptions
{
    /**
     * Size of the passcode/key guess space the design protects (e.g.
     * 1e4 for a 4-digit PIN). When set, the L010 feasibility rule
     * compares it against the attack budget the hardware concedes
     * (the upper-bound target if present, else the LAB).
     */
    std::optional<double> guessSpace{};

    /**
     * Acceptable probability that a guessing adversary who spends the
     * whole conceded attack budget recovers the secret. When set (with
     * guessSpace), the wear-budget analyzer (lemons::analysis) must
     * discharge the A101 obligation: certified success bracket below
     * this ceiling. Must lie in (0, 1) — rule L014.
     */
    std::optional<double> guessSuccessCeiling{};
};

/** A series/parallel structure described statically (pre-construction). */
struct StructureSpec
{
    enum class Kind { Series, Parallel };

    Kind kind = Kind::Parallel;
    uint64_t n = 1; ///< width (parallel) or chain length (series)
    uint64_t k = 1; ///< reconstruction threshold (parallel only)
    wearout::DeviceSpec device{10.0, 12.0};

    // Optional verification obligations. When present, the static
    // verifier (lemons::verify) certifies analytic brackets against
    // them; the plain lint pass only range-checks the values.
    std::optional<uint64_t> accessBound{}; ///< per-copy bound t to certify
    std::optional<uint64_t> copies{};      ///< serially consumed copies N
    std::optional<double> minReliability{}; ///< floor for R(t)
    std::optional<double> maxResidual{};    ///< ceiling for R(t + 1)
};

/** A secret-sharing layout: n shares, threshold k, field width. */
struct ShareSpec
{
    uint64_t shares = 1;
    uint64_t threshold = 1;
    unsigned fieldBits = 8; ///< 8 = GF(256) Shamir, 16 = GF(65536)
    /**
     * Shares stored outside the wearout fabric (no NEMS guard in
     * front of them). Zero in every sane deployment; the secret-flow
     * verifier pass (V2xx) flags designs where shares bypass the
     * wearout gates.
     */
    uint64_t unguarded = 0;
};

/** A stochastic usage-workload profile (sim/workload.h counterpart). */
struct WorkloadSpec
{
    double meanPerDay = 50.0;     ///< Poisson rate on ordinary days
    double burstProbability = 0.0; ///< P(a day is a burst day)
    double burstMultiplier = 1.0;  ///< rate multiplier on burst days
    /** Total access budget the profile draws down, when known. */
    std::optional<uint64_t> budgetAccesses{};
    /** Calendar horizon in days, when known. */
    std::optional<uint64_t> horizonDays{};
};

/** A bathtub lifetime mixture (wearout/mixture.h counterpart). */
struct MixtureSpec
{
    double infantFraction = 0.0; ///< weight of the early-life leg
    wearout::DeviceSpec infant{1.0, 0.8}; ///< early-failure component
    wearout::DeviceSpec main{10.0, 12.0}; ///< designed wearout component
};

/** An M-way replication layout. */
struct MwaySpec
{
    uint64_t m = 1;
    /** Devices per module, when known (for the L504 total-cost rule). */
    std::optional<uint64_t> moduleDevices{};
    /** Whether the per-module design solved feasibly, when known. */
    std::optional<bool> moduleFeasible{};
};

/**
 * One cohort of a fleet lifecycle campaign ([cohort] counterpart):
 * a homogeneous slice of the population sharing a lot (lifetime
 * mixture), a usage profile, a provisioning stagger window, and an
 * optional mid-life re-provisioning event (secondhand reuse).
 */
struct FleetCohortSpec
{
    std::string name = "cohort";
    /** Fraction of the fleet in this cohort, in (0, 1]. */
    double weight = 1.0;
    /** Provisioning stagger window in days (devices enter service
     *  uniformly over [0, staggerDays]). */
    double staggerDays = 0.0;
    /** Per-device access budget (the design's LAB). */
    uint64_t accessBound = 91250;
    /** Daily usage profile. */
    WorkloadSpec usage{};
    /** Lot lifetime model (bathtub mixture; infantFraction 0 = pure
     *  designed wearout). */
    MixtureSpec lifetime{};
    /** Day surviving devices are re-provisioned to a second owner. */
    std::optional<double> reprovisionDay{};
    /** Usage-rate multiplier after re-provisioning (>= 0). */
    double reprovisionUsageScale = 1.0;
};

/**
 * A fleet lifecycle campaign ([fleet] + [cohort] counterpart):
 * population size, horizon, checkpoint cadence, and the cohorts the
 * population is partitioned into.
 */
struct FleetSpec
{
    /** Total devices across all cohorts. */
    uint64_t devices = 10000;
    /** Campaign RNG seed. */
    uint64_t seed = 0;
    /** Engine chunk size; 0 = the engine default. */
    uint64_t chunkSize = 0;
    /** Chunks between checkpoints (must be positive). */
    uint64_t checkpointEveryChunks = 8;
    /** Calendar horizon in days. */
    uint64_t horizonDays = 1825;
    /** A lockout earlier than this many absolute days is premature. */
    uint64_t prematureDays = 365;
    /**
     * Acceptable per-device premature-lockout probability. When set,
     * the wear-budget analyzer raises A002 if a cohort's certified
     * premature bracket provably exceeds it. Must lie in (0, 1] —
     * rule L812. Absent means no declared tolerance (brackets are
     * still reported as A004 notes).
     */
    std::optional<double> prematureTolerance{};
    /** Population partition; weights must sum to 1. */
    std::vector<FleetCohortSpec> cohorts;
};

/**
 * Most designSolveWork a solve may take (L015; the solver constructor
 * checks it too). On a 4-vCPU AVX2 host (GCC 12.2, Release) a solve at
 * the limit takes at most ~0.15 s, or with an upper-bound target ~0.3 s
 * (0.55 s at max_width 1e18). Shipped inputs stay below 1e4.
 */
inline constexpr double kMaxDesignSolveWork = 1e6;

/**
 * The per-copy bounds solve() scans, min(maxPerCopyBound or 3 alpha +
 * 16, LAB), times, under an upper-bound target, the accesses each
 * overshoot sum may visit. Meaningful for positive, finite alpha, beta.
 */
double designSolveWork(const core::DesignRequest &request);

/** L0xx: solver input rules (bounds, criteria, attack feasibility). */
Report checkDesign(const core::DesignRequest &request,
                   const DesignLintOptions &options = {});

/** L2xx (+ L1xx for parallel k-out-of-n): structure composition. */
Report checkStructure(const StructureSpec &spec);

/** L1xx: share counts vs. field capacity. */
Report checkShares(const ShareSpec &spec);

/** L3xx: one-time-pad tree configuration. */
Report checkOtp(const core::OtpParams &params);

/** L4xx: fault-plan ranges and plausibility. */
Report checkFaultPlan(const fault::FaultPlan &plan);

/** L5xx: M-way replication composition limits. */
Report checkMway(const MwaySpec &spec);

/** L6xx: usage-workload profile rules. */
Report checkWorkload(const WorkloadSpec &spec);

/** L7xx: bathtub-mixture model rules. */
Report checkMixture(const MixtureSpec &spec);

/**
 * L8xx: fleet campaign composition (weights, stagger, cadence),
 * including the L6xx/L7xx passes over every cohort's profile.
 * @param cohortsComplete false when a cohort of this fleet was dropped
 *     by a parse error: the remaining weights cannot sum to 1, so the
 *     L805 partition check is skipped and the parse error stands alone.
 */
Report checkFleet(const FleetSpec &spec, bool cohortsComplete = true);

/** Constructor fast paths: throw LintError on error-severity findings. */
void checkDesignOrThrow(const core::DesignRequest &request);
void checkSeriesOrThrow(uint64_t n);
void checkParallelOrThrow(uint64_t n, uint64_t k);
void checkOtpOrThrow(const core::OtpParams &params);
void checkFaultPlanOrThrow(const fault::FaultPlan &plan);
void checkMwayOrThrow(uint64_t m);

} // namespace lemons::lint

#endif // LEMONS_LINT_RULES_H_
