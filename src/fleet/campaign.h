/**
 * @file
 * Streaming fleet lifecycle campaigns with crash-safe checkpointing.
 *
 * The paper's deployment story (Section 5) provisions limited-use
 * devices by the million; what an operator actually wants to know is a
 * fleet-level question: across a heterogeneous population — lots with
 * different bathtub lifetime mixtures, staggered provisioning windows,
 * varied usage profiles, mid-life re-provisioning to second owners —
 * what is the replacement rate over the horizon, and what is the tail
 * risk of a *premature* lockout (a device exhausting its budget while
 * the owner still expected service)?
 *
 * FleetCampaign answers that by sharding the population across the
 * engine's deterministic chunked Monte Carlo: each cohort is one
 * engine::runTrials call whose per-device metric samples a lifetime in
 * closed form (sampleDeviceLifetime: the burst days from geometric
 * gaps, then the exhaustion day by inverting the exact Poisson tail of
 * the cumulative demand), and whose results stream through
 * RunningStats in fixed memory. Lifecycle tallies (replacements, premature lockouts,
 * re-provisionings) are order-independent atomic sums, so every number
 * the campaign reports is bit-identical at any thread count.
 *
 * Campaigns are resumable: when a checkpoint path is configured, the
 * engine's checkpoint hook persists a fleet-ckpt/1 file (see
 * checkpoint.h) at every wave boundary, and CampaignOptions::resume
 * picks the run back up from the last good checkpoint — bit-identical
 * to the uninterrupted run, which tests/test_chaos.cc enforces by
 * SIGKILLing campaigns at random points and comparing digests.
 */

#ifndef LEMONS_FLEET_CAMPAIGN_H_
#define LEMONS_FLEET_CAMPAIGN_H_

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "engine/engine.h"
#include "fleet/checkpoint.h"
#include "lint/rules.h"
#include "util/rng.h"
#include "util/stats.h"
#include "wearout/mixture.h"

namespace lemons::fleet {

/** One device's lifecycle within a campaign horizon. */
struct DeviceLifetime
{
    /** Days from entry into service to lockout or the horizon. */
    double serviceDays = 0.0;
    /** Locked out (budget exhausted) within the horizon. */
    bool replaced = false;
    /** Locked out before FleetSpec::prematureDays absolute days. */
    bool premature = false;
    /** Alive at the start of its re-provisioning day, within the
     *  horizon. */
    bool reprovisioned = false;
};

/**
 * Sample one @p cohort device's lifetime, exactly in distribution as a
 * day-by-day simulation that draws each day's burst Bernoulli and
 * Poisson demand. The entry day (uniform over the stagger window) and
 * the access budget (min of the LAB and a @p lifetime draw) come first;
 * the burst days follow from geometric gaps, one uniform each; one more
 * uniform v picks the exhaustion day D as the first day d with
 * P(Poisson(Lambda_d) < budget) <= v, where Lambda_d sums the daily
 * means from the entry day through d. A search on the normal
 * approximation of that tail guesses D, and a bisection on the exact
 * tail that probes the guess first confirms it. A device costs
 * O(1 + bursts) draws and O(log horizon) Poisson CDF evaluations, two
 * when the guess is right.
 *
 * A budget of 0 locks out on the entry day; a device entering service
 * at or after the horizon serves 0 days and counts nowhere. Every draw
 * comes from @p rng in a fixed order, so the result is a pure function
 * of the stream (the campaign's bit-identity contract rests on this).
 */
DeviceLifetime sampleDeviceLifetime(Rng &rng, const lint::FleetSpec &spec,
                                    const lint::FleetCohortSpec &cohort,
                                    const wearout::BathtubModel &lifetime);

/** Final results of one cohort's device-lifetime trials. */
struct CohortResult
{
    std::string name;
    /** Devices simulated in this cohort. */
    uint64_t devices = 0;
    /** Days of service delivered per device (streamed). */
    RunningStats serviceDays;
    /** Devices that locked out (budget exhausted) within the horizon. */
    uint64_t replaced = 0;
    /** Lockouts before FleetSpec::prematureDays absolute days. */
    uint64_t premature = 0;
    /** Devices that reached their re-provisioning day alive. */
    uint64_t reprovisioned = 0;

    /** Fraction of the cohort needing replacement within the horizon. */
    double replacementRate() const
    {
        return devices == 0
                   ? 0.0
                   : static_cast<double>(replaced) /
                         static_cast<double>(devices);
    }

    /** Wilson 95 % interval on the replacement rate. */
    ProportionInterval replacementInterval() const;

    /** Wilson 95 % interval on premature lockouts — the tail risk. */
    ProportionInterval prematureInterval() const;
};

/** Aggregate outcome of a fleet campaign. */
struct FleetSummary
{
    /** Per-cohort results, in spec order (partial when interrupted). */
    std::vector<CohortResult> cohorts;
    /** Devices simulated across completed cohorts. */
    uint64_t devices = 0;
    /** Why the campaign returned early, if it did. */
    engine::InterruptReason interrupt = engine::InterruptReason::None;
    /** Whether this run restored state from a checkpoint. */
    bool resumed = false;
    /** Whether a corrupt primary checkpoint forced a fallback load. */
    bool fellBack = false;
    /** Recovery note from the checkpoint loader; empty when clean. */
    std::string warning;

    /** Whether every cohort ran to completion. */
    bool complete() const
    {
        return interrupt == engine::InterruptReason::None;
    }

    /**
     * Order-sensitive FNV-1a fingerprint of the scientific results
     * (cohort names, counts, and exact statistic bit patterns).
     * Runtime circumstances — resumed, fellBack, warnings — are
     * excluded, so digest equality is exactly the
     * "resume-equals-uninterrupted" contract the chaos harness checks.
     */
    uint64_t digest() const;
};

/** Execution knobs for one campaign run. */
struct CampaignOptions
{
    /** Worker threads (engine semantics: 1 = inline, 0 = hardware). */
    unsigned threads = 1;
    /** Checkpoint file path; empty disables checkpointing. */
    std::string checkpointPath;
    /** Resume from checkpointPath's last good checkpoint if present. */
    bool resume = false;
    /** Cooperative cancellation; not owned, may be null. */
    const engine::CancelToken *cancel = nullptr;
    /** Wall-clock deadline for the whole campaign. */
    std::optional<std::chrono::steady_clock::time_point> deadline;
};

/**
 * One fleet lifecycle campaign over a lint::FleetSpec population.
 * Construction validates the spec with lint::checkFleet and throws
 * std::invalid_argument (with the formatted diagnostics) on any error,
 * so a campaign that constructs is a campaign that can run.
 */
class FleetCampaign
{
  public:
    explicit FleetCampaign(const lint::FleetSpec &spec);

    /** The validated specification this campaign runs. */
    const lint::FleetSpec &spec() const { return fleetSpec; }

    /**
     * FNV-1a fingerprint of the configuration (exact field bits).
     * Stored in checkpoints; a resume whose fingerprint differs fails
     * with CheckpointError C105 instead of silently mixing results
     * from two different experiments.
     */
    uint64_t configFingerprint() const { return fingerprint; }

    /**
     * Device counts per cohort (largest-remainder apportionment of
     * FleetSpec::devices by cohort weight; sums exactly to devices).
     */
    const std::vector<uint64_t> &cohortTrials() const { return trials; }

    /**
     * Run (or resume) the campaign. Interruption by cancellation or
     * deadline returns a partial summary whose completed cohorts are
     * final; the in-progress cohort's state lives in the checkpoint.
     */
    FleetSummary run(const CampaignOptions &options = {}) const;

  private:
    lint::FleetSpec fleetSpec;
    uint64_t fingerprint = 0;
    std::vector<uint64_t> trials;
};

} // namespace lemons::fleet

#endif // LEMONS_FLEET_CAMPAIGN_H_
