/**
 * @file
 * Spec-file front end for the lemons-lint CLI.
 *
 * A spec file is a tiny INI dialect describing the configurations a
 * deployment intends to fabricate, so they can be design-rule-checked
 * without compiling anything or running a simulator:
 *
 *     # smartphone unlock, paper Section 5
 *     [design]
 *     alpha = 10
 *     beta = 12
 *     lab = 91250
 *     k_fraction = 0.2
 *     guess_space = 1e6
 *
 *     [fault]
 *     stuck_closed_rate = 0.001
 *
 * Sections may repeat; each is linted independently with the rule
 * passes from rules.h. Parsing problems are themselves diagnostics
 * (L9xx), so a CI run gets one uniform report for "the spec is
 * malformed" and "the spec describes an insecure design".
 *
 * Sections and keys:
 *   [design]    alpha beta lab k_fraction min_reliability
 *               max_residual_reliability upper_bound_target
 *               guess_space guess_success_ceiling max_width
 *               max_per_copy_bound
 *   [structure] kind (series|parallel) n k alpha beta
 *               access_bound copies min_reliability max_residual
 *   [shares]    n k field_bits unguarded
 *   [otp]       height copies threshold alpha beta
 *               receiver_floor adversary_ceiling
 *   [fault]     stuck_closed_rate infant_fraction
 *               infant_scale_fraction infant_shape glitch_rate
 *               alpha_drift_sigma beta_drift_sigma
 *   [mway]      m module_devices
 *   [workload]  mean_per_day burst_probability burst_multiplier
 *               budget horizon_days
 *   [mixture]   infant_fraction infant_alpha infant_beta
 *               main_alpha main_beta
 *   [fleet]     devices seed chunk_size checkpoint_interval
 *               horizon_days premature_days premature_tolerance
 *   [cohort]    name weight stagger_days access_bound mean_per_day
 *               burst_probability burst_multiplier infant_fraction
 *               infant_alpha infant_beta main_alpha main_beta
 *               reprovision_day reprovision_scale
 *
 * A [cohort] section attaches to the most recent [fleet] section;
 * the fleet's cross-cohort rules (L8xx) run once the whole file is
 * parsed, so weight-sum checks see every cohort.
 *
 * Beyond linting, parseSpec() exposes the parsed sections as typed
 * structs so the static verifier (lemons::verify) can lower the same
 * file into the architecture IR without re-implementing the parser.
 */

#ifndef LEMONS_LINT_SPEC_FILE_H_
#define LEMONS_LINT_SPEC_FILE_H_

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/decision_tree.h"
#include "core/design_solver.h"
#include "fault/fault_plan.h"
#include "lint/diagnostics.h"
#include "lint/rules.h"

namespace lemons::lint {

/** A parsed [design] section: solver request plus lint context. */
struct DesignSection
{
    core::DesignRequest request;
    DesignLintOptions options;
};

/** A parsed [otp] section: tree params plus verify criteria. */
struct OtpSection
{
    core::OtpParams params;
    /** Floor for P(receiver reconstructs the pad); verify default 0.99. */
    std::optional<double> receiverFloor{};
    /** Ceiling for P(path-guessing adversary wins); default 1e-6. */
    std::optional<double> adversaryCeiling{};
};

/**
 * Every section of a spec file, parsed into the library's typed spec
 * structs. Sections whose values failed to parse (L905/L902) are
 * reported and omitted; sections that parse but violate design rules
 * are still included, so the verifier can analyse them anyway.
 */
struct ParsedSpec
{
    std::vector<DesignSection> designs;
    std::vector<StructureSpec> structures;
    std::vector<ShareSpec> shares;
    std::vector<OtpSection> otps;
    std::vector<fault::FaultPlan> faults;
    std::vector<MwaySpec> mways;
    std::vector<WorkloadSpec> workloads;
    std::vector<MixtureSpec> mixtures;
    std::vector<FleetSpec> fleets;

    bool empty() const
    {
        return designs.empty() && structures.empty() && shares.empty() &&
               otps.empty() && faults.empty() && mways.empty() &&
               workloads.empty() && mixtures.empty() && fleets.empty();
    }
};

/**
 * Parse spec text into typed sections, appending parse *and* rule
 * diagnostics to @p report. @p filename only stamps diagnostics.
 */
ParsedSpec parseSpec(std::string_view text, const std::string &filename,
                     Report &report);

/**
 * Read one spec file into typed sections (diagnostics into @p report;
 * an unreadable file yields L901 and an empty spec).
 */
ParsedSpec parseSpecFile(const std::string &path, Report &report);

} // namespace lemons::lint

#endif // LEMONS_LINT_SPEC_FILE_H_
