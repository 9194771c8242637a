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
 * One reader serves every section through its key table (keyTable
 * below), so an unknown key is L904, a bad value L905 and a key given
 * twice in one section L907 everywhere.
 *
 * Beyond linting, parseSpec() exposes the parsed sections as typed
 * structs so the static verifier (lemons::verify) can lower the same
 * file into the architecture IR without re-implementing the parser.
 */

#ifndef LEMONS_LINT_SPEC_FILE_H_
#define LEMONS_LINT_SPEC_FILE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <variant>
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
 * The field one spec key writes; its type picks the value parser.
 * unsigned is an integer clamped at 2^16, std::string the value as is.
 */
using KeyField =
    std::variant<double *, uint64_t *, std::optional<double> *,
                 std::optional<uint64_t> *, unsigned *, std::string *,
                 StructureSpec::Kind *>;

/** One row of a section's key table: a key and the field it writes. */
struct KeyRow
{
    std::string_view key;
    KeyField field;
};

/**
 * Each section's key table, bound to the fields of @p spec. The nine
 * solver-request rows (core::DesignRequest) also decode POST /v1/solve;
 * [design] adds guess_space and guess_success_ceiling, and [cohort]
 * reuses the [workload] usage-profile rows and the [mixture] rows.
 */
std::vector<KeyRow> keyTable(core::DesignRequest &spec);
std::vector<KeyRow> keyTable(DesignSection &spec);
std::vector<KeyRow> keyTable(StructureSpec &spec);
std::vector<KeyRow> keyTable(ShareSpec &spec);
std::vector<KeyRow> keyTable(OtpSection &spec);
std::vector<KeyRow> keyTable(fault::FaultPlan &spec);
std::vector<KeyRow> keyTable(MwaySpec &spec);
std::vector<KeyRow> keyTable(WorkloadSpec &spec);
std::vector<KeyRow> keyTable(MixtureSpec &spec);
std::vector<KeyRow> keyTable(FleetSpec &spec);
std::vector<KeyRow> keyTable(FleetCohortSpec &spec);

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
