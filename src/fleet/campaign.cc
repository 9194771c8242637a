#include "fleet/campaign.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "lint/diagnostics.h"
#include "obs/metrics.h"
#include "util/checksum.h"
#include "util/math.h"
#include "util/rng.h"
#include "wearout/mixture.h"
#include "wearout/weibull.h"

namespace lemons::fleet {

namespace {

/** Canonical byte stream for fingerprinting and digests. */
class HashStream
{
  public:
    void u64(uint64_t value)
    {
        for (int shift = 0; shift < 64; shift += 8)
            bytes.push_back(
                static_cast<uint8_t>((value >> shift) & 0xFFu));
    }

    void f64(double value) { u64(std::bit_cast<uint64_t>(value)); }

    void str(const std::string &value)
    {
        u64(value.size());
        bytes.insert(bytes.end(), value.begin(), value.end());
    }

    uint64_t fnv() const { return fnv1a64(bytes.data(), bytes.size()); }

  private:
    std::vector<uint8_t> bytes;
};

uint64_t
fingerprintSpec(const lint::FleetSpec &spec)
{
    HashStream h;
    h.u64(spec.devices);
    h.u64(spec.seed);
    h.u64(spec.chunkSize);
    h.u64(spec.checkpointEveryChunks);
    h.u64(spec.horizonDays);
    h.u64(spec.prematureDays);
    h.u64(spec.cohorts.size());
    for (const lint::FleetCohortSpec &cohort : spec.cohorts) {
        h.str(cohort.name);
        h.f64(cohort.weight);
        h.f64(cohort.staggerDays);
        h.u64(cohort.accessBound);
        h.f64(cohort.usage.meanPerDay);
        h.f64(cohort.usage.burstProbability);
        h.f64(cohort.usage.burstMultiplier);
        h.f64(cohort.lifetime.infantFraction);
        h.f64(cohort.lifetime.infant.alpha);
        h.f64(cohort.lifetime.infant.beta);
        h.f64(cohort.lifetime.main.alpha);
        h.f64(cohort.lifetime.main.beta);
        h.f64(cohort.reprovisionDay.value_or(-1.0));
        h.f64(cohort.reprovisionUsageScale);
    }
    return h.fnv();
}

/**
 * Largest-remainder apportionment of @p devices by cohort weight:
 * every cohort gets floor(weight * devices), then the leftover units
 * go to the largest fractional remainders (ties to the earlier
 * cohort). Sums exactly to devices, deterministically.
 */
std::vector<uint64_t>
apportion(const lint::FleetSpec &spec)
{
    const size_t n = spec.cohorts.size();
    std::vector<uint64_t> counts(n, 0);
    std::vector<std::pair<double, size_t>> remainders;
    remainders.reserve(n);
    uint64_t assigned = 0;
    for (size_t i = 0; i < n; ++i) {
        const double exact =
            spec.cohorts[i].weight * static_cast<double>(spec.devices);
        const double floored = std::floor(exact);
        counts[i] = static_cast<uint64_t>(floored);
        assigned += counts[i];
        remainders.emplace_back(exact - floored, i);
    }
    std::sort(remainders.begin(), remainders.end(),
              [](const auto &a, const auto &b) {
                  if (a.first != b.first)
                      return a.first > b.first;
                  return a.second < b.second;
              });
    uint64_t leftover = spec.devices - assigned;
    for (size_t i = 0; leftover > 0 && i < remainders.size(); ++i) {
        ++counts[remainders[i].second];
        --leftover;
    }
    return counts;
}

/** Order-independent lifecycle tallies one cohort's trials feed. */
struct LifecycleCounters
{
    std::atomic<uint64_t> replaced{0};
    std::atomic<uint64_t> premature{0};
    std::atomic<uint64_t> reprovisioned{0};
};

CohortRecord
toRecord(const CohortResult &result)
{
    CohortRecord record;
    record.name = result.name;
    record.devices = result.devices;
    record.serviceDays = result.serviceDays.state();
    record.replaced = result.replaced;
    record.premature = result.premature;
    record.reprovisioned = result.reprovisioned;
    return record;
}

CohortResult
fromRecord(const CohortRecord &record)
{
    CohortResult result;
    result.name = record.name;
    result.devices = record.devices;
    result.serviceDays = RunningStats::fromState(record.serviceDays);
    result.replaced = record.replaced;
    result.premature = record.premature;
    result.reprovisioned = record.reprovisioned;
    return result;
}

engine::EngineCheckpoint
toEngineCheckpoint(const EngineCursorRecord &cursor)
{
    engine::EngineCheckpoint checkpoint;
    checkpoint.seed = cursor.seed;
    checkpoint.requestedTrials = cursor.requestedTrials;
    checkpoint.chunkSize = cursor.chunkSize;
    checkpoint.executedChunks = cursor.executedChunks;
    checkpoint.streaming = RunningStats::fromState(cursor.streaming);
    checkpoint.failures = cursor.failures;
    checkpoint.nonFiniteTrials = cursor.nonFiniteTrials;
    return checkpoint;
}

EngineCursorRecord
fromEngineCheckpoint(const engine::EngineCheckpoint &checkpoint)
{
    EngineCursorRecord cursor;
    cursor.seed = checkpoint.seed;
    cursor.requestedTrials = checkpoint.requestedTrials;
    cursor.chunkSize = checkpoint.chunkSize;
    cursor.executedChunks = checkpoint.executedChunks;
    cursor.streaming = checkpoint.streaming.state();
    cursor.failures = checkpoint.failures;
    cursor.nonFiniteTrials = checkpoint.nonFiniteTrials;
    return cursor;
}

/**
 * The first day d in [@p lo, @p hi) with @p pred(d), or @p hi when there
 * is none; @p pred must be monotone (false, then true). A bisection
 * whose first two probes are @p guess (in [lo, hi]) and the day before
 * it, so a right guess costs two probes and a wrong one
 * O(log(hi - lo)).
 */
template <typename Pred>
uint64_t
firstDayWhere(uint64_t lo, uint64_t hi, uint64_t guess, Pred pred)
{
    const auto probe = [&](uint64_t day) {
        if (pred(day))
            hi = day;
        else
            lo = day + 1;
    };
    if (guess < hi)
        probe(guess);
    if (lo < guess)
        probe(guess - 1);
    while (lo < hi)
        probe(lo + (hi - lo) / 2);
    return lo;
}

} // namespace

DeviceLifetime
sampleDeviceLifetime(Rng &rng, const lint::FleetSpec &spec,
                     const lint::FleetCohortSpec &cohort,
                     const wearout::BathtubModel &lifetime)
{
    // Provisioning stagger: the device enters service on a uniform day
    // within the cohort's rollout window.
    const double entryDay = cohort.staggerDays > 0.0
                                ? rng.nextDouble() * cohort.staggerDays
                                : 0.0;
    // The device dies at whichever comes first: the architecture's
    // limited-use bound, or physical wearout of the lot it came from.
    const double wearLife = lifetime.sample(rng);
    const double bound = static_cast<double>(cohort.accessBound);
    const uint64_t budget = static_cast<uint64_t>(
        std::max(0.0, std::min(bound, wearLife)));

    DeviceLifetime device;
    const uint64_t horizon = spec.horizonDays;
    // Entering service at or after the horizon delivers nothing (and
    // keeps the day cast below in range).
    if (!(entryDay < static_cast<double>(horizon)))
        return device;
    const uint64_t firstDay = static_cast<uint64_t>(entryDay);

    // The daily Poisson mean m(j): `early` before the re-provisioning
    // day, `late` from it on, times burstMultiplier on burst days. An
    // every-day burst folds the multiplier in and draws nothing.
    const lint::WorkloadSpec &usage = cohort.usage;
    const double burstP = usage.burstProbability;
    const double early =
        usage.meanPerDay * (burstP >= 1.0 ? usage.burstMultiplier : 1.0);
    const double late = early * cohort.reprovisionUsageScale;
    // R: the first day with day >= reprovisionDay; horizon if none.
    uint64_t reprovisionStart = horizon;
    if (cohort.reprovisionDay) {
        const double day = *cohort.reprovisionDay;
        if (day <= static_cast<double>(firstDay))
            reprovisionStart = firstDay;
        else if (day < static_cast<double>(horizon))
            reprovisionStart = static_cast<uint64_t>(std::ceil(day));
    }

    uint64_t death = horizon; // horizon = reached it alive
    if (budget == 0) {
        death = firstDay;
    } else {
        // Burst days in [firstDay, horizon), one geometric gap (one
        // uniform) each; `extraThrough` is the burst mass
        // (multiplier - 1) * m(j) summed over bursts up to this one.
        struct Burst
        {
            uint64_t day;
            double extraThrough;
        };
        thread_local std::vector<Burst> bursts;
        bursts.clear();
        if (burstP > 0.0 && burstP < 1.0) {
            const double logMiss = std::log1p(-burstP);
            double extra = 0.0;
            for (uint64_t day = firstDay; day < horizon; ++day) {
                const double gap =
                    std::floor(std::log(rng.nextDoubleOpenLow()) / logMiss);
                if (!(gap < static_cast<double>(horizon - day)))
                    break;
                day += static_cast<uint64_t>(gap);
                extra += (usage.burstMultiplier - 1.0) *
                         (day < reprovisionStart ? early : late);
                bursts.push_back({day, extra});
            }
        }
        // Lambda_d = sum of m(j) over j in [firstDay, d]: linear in d
        // apart from the slope change at R, plus the burst mass so far.
        const auto meanThrough = [&](uint64_t d) {
            double total =
                d < reprovisionStart
                    ? early * static_cast<double>(d - firstDay + 1)
                    : early * static_cast<double>(reprovisionStart -
                                                  firstDay) +
                          late * static_cast<double>(d - reprovisionStart +
                                                     1);
            const auto after = std::upper_bound(
                bursts.begin(), bursts.end(), d,
                [](uint64_t day, const Burst &b) { return day < b.day; });
            if (after != bursts.begin())
                total += std::prev(after)->extraThrough;
            return total;
        };
        // Given the burst days the daily counts are independent
        // Poissons, so P(D <= d) = P(Poisson(Lambda_d) >= budget). The
        // device dies on the first day whose lower tail falls to v
        // (v = 1 - u, which sidesteps the 1 - CDF cancellation). A
        // search on the normal approximation of that tail (continuity
        // corrected) guesses the day for free; the exact search then
        // usually needs two CDF evaluations to confirm it.
        const double v = rng.nextDouble();
        const double below = static_cast<double>(budget) - 0.5;
        const auto roughlyDead = [&](uint64_t d) {
            const double lambda = meanThrough(d);
            return lambda > 0.0 &&
                   0.5 * std::erfc((lambda - below) /
                                   std::sqrt(2.0 * lambda)) <= v;
        };
        const auto dead = [&](uint64_t d) {
            return poissonCdf(budget - 1, meanThrough(d)) <= v;
        };
        const uint64_t guess = firstDayWhere(
            firstDay, horizon, firstDay + (horizon - firstDay) / 2,
            roughlyDead);
        death = firstDayWhere(firstDay, horizon, guess, dead);
    }

    device.serviceDays = static_cast<double>(death - firstDay);
    device.replaced = death < horizon;
    device.premature = device.replaced && death < spec.prematureDays;
    device.reprovisioned =
        reprovisionStart < horizon && death >= reprovisionStart;
    return device;
}

ProportionInterval
CohortResult::replacementInterval() const
{
    if (devices == 0)
        return {0.0, 0.0, 0.0};
    return wilsonInterval(replaced, devices);
}

ProportionInterval
CohortResult::prematureInterval() const
{
    if (devices == 0)
        return {0.0, 0.0, 0.0};
    return wilsonInterval(premature, devices);
}

uint64_t
FleetSummary::digest() const
{
    HashStream h;
    h.u64(cohorts.size());
    for (const CohortResult &cohort : cohorts) {
        h.str(cohort.name);
        h.u64(cohort.devices);
        const RunningStats::State state = cohort.serviceDays.state();
        h.u64(state.count);
        h.u64(state.nonFiniteCount);
        h.f64(state.mean);
        h.f64(state.m2);
        h.f64(state.min);
        h.f64(state.max);
        h.u64(cohort.replaced);
        h.u64(cohort.premature);
        h.u64(cohort.reprovisioned);
    }
    return h.fnv();
}

FleetCampaign::FleetCampaign(const lint::FleetSpec &spec) : fleetSpec(spec)
{
    const lint::Report report = lint::checkFleet(spec);
    if (report.hasErrors())
        throw std::invalid_argument("invalid fleet spec:\n" +
                                    report.format());
    fingerprint = fingerprintSpec(spec);
    trials = apportion(spec);
}

FleetSummary
FleetCampaign::run(const CampaignOptions &options) const
{
    LEMONS_OBS_SCOPED_TIMER("fleet.campaign.run");
    FleetSummary summary;

    // Resume state: which cohort to start at, and — when the
    // checkpoint caught a cohort mid-flight — its engine cursor and
    // lifecycle tallies at the cursor.
    size_t startCohort = 0;
    std::optional<engine::EngineCheckpoint> resumeCursor;
    uint64_t resumeReplaced = 0;
    uint64_t resumePremature = 0;
    uint64_t resumeReprovisioned = 0;

    if (options.resume && !options.checkpointPath.empty()) {
        const CheckpointLoadOutcome loaded =
            loadWithFallback(options.checkpointPath);
        summary.fellBack = loaded.fellBack;
        summary.warning = loaded.warning;
        if (loaded.checkpoint) {
            const FleetCheckpoint &checkpoint = *loaded.checkpoint;
            if (checkpoint.configFingerprint != fingerprint)
                throw CheckpointError(
                    options.checkpointPath + ": " +
                    lint::codeInfo(lint::Code::C105).id +
                    " config mismatch: checkpoint was written "
                    "by a campaign with a different configuration");
            for (const CohortRecord &record : checkpoint.completed)
                summary.cohorts.push_back(fromRecord(record));
            startCohort = checkpoint.completed.size();
            if (checkpoint.hasCursor) {
                resumeCursor = toEngineCheckpoint(checkpoint.cursor);
                resumeReplaced = checkpoint.partialReplaced;
                resumePremature = checkpoint.partialPremature;
                resumeReprovisioned = checkpoint.partialReprovisioned;
            }
            summary.resumed = true;
            LEMONS_OBS_INCREMENT("fleet.campaign.resumes");
        }
    }

    const Rng seedSource(fleetSpec.seed);
    for (size_t c = startCohort; c < fleetSpec.cohorts.size(); ++c) {
        const lint::FleetCohortSpec &cohortSpec = fleetSpec.cohorts[c];
        const uint64_t cohortDevices = trials[c];
        if (cohortDevices == 0) {
            CohortResult empty;
            empty.name = cohortSpec.name;
            summary.cohorts.push_back(empty);
            continue;
        }

        const wearout::BathtubModel lifetime(
            cohortSpec.lifetime.infantFraction,
            wearout::Weibull(cohortSpec.lifetime.infant.alpha,
                             cohortSpec.lifetime.infant.beta),
            wearout::Weibull(cohortSpec.lifetime.main.alpha,
                             cohortSpec.lifetime.main.beta));
        LifecycleCounters counters;
        const bool resumingThisCohort =
            c == startCohort && resumeCursor.has_value();
        if (resumingThisCohort) {
            counters.replaced.store(resumeReplaced,
                                    std::memory_order_relaxed);
            counters.premature.store(resumePremature,
                                     std::memory_order_relaxed);
            counters.reprovisioned.store(resumeReprovisioned,
                                         std::memory_order_relaxed);
        }

        // Cohort c's trial stream is independent of every other
        // cohort's: derived from the campaign seed, not shared.
        const uint64_t cohortSeed = seedSource.split(c).next();

        engine::McRunOptions runOptions;
        runOptions.trials = cohortDevices;
        runOptions.threads = options.threads;
        runOptions.chunkSize = fleetSpec.chunkSize;
        runOptions.keepSamples = false;
        runOptions.cancel = options.cancel;
        runOptions.deadline = options.deadline;
        runOptions.checkpointEveryChunks =
            fleetSpec.checkpointEveryChunks;
        if (resumingThisCohort)
            runOptions.resumeFrom = &*resumeCursor;
        if (!options.checkpointPath.empty()) {
            // The hook runs on the driving thread after the wave's
            // join, so the atomic tallies it reads are exactly the
            // executed chunks' — snapshot-consistent with the cursor.
            runOptions.checkpoint =
                [&](const engine::EngineCheckpoint &engineCheckpoint) {
                    FleetCheckpoint checkpoint;
                    checkpoint.configFingerprint = fingerprint;
                    for (const CohortResult &done : summary.cohorts)
                        checkpoint.completed.push_back(toRecord(done));
                    checkpoint.hasCursor = true;
                    checkpoint.cursor =
                        fromEngineCheckpoint(engineCheckpoint);
                    checkpoint.partialReplaced = counters.replaced.load(
                        std::memory_order_relaxed);
                    checkpoint.partialPremature =
                        counters.premature.load(
                            std::memory_order_relaxed);
                    checkpoint.partialReprovisioned =
                        counters.reprovisioned.load(
                            std::memory_order_relaxed);
                    writeCheckpointAtomic(options.checkpointPath,
                                          checkpoint);
                };
        }

        const engine::TrialReport report = engine::runTrials(
            cohortSeed, runOptions,
            [&](Rng &rng, uint64_t) {
                const DeviceLifetime device = sampleDeviceLifetime(
                    rng, fleetSpec, cohortSpec, lifetime);
                if (device.replaced)
                    counters.replaced.fetch_add(
                        1, std::memory_order_relaxed);
                if (device.premature)
                    counters.premature.fetch_add(
                        1, std::memory_order_relaxed);
                if (device.reprovisioned)
                    counters.reprovisioned.fetch_add(
                        1, std::memory_order_relaxed);
                return device.serviceDays;
            });

        if (report.interrupted()) {
            // The engine already checkpointed at the interrupt
            // boundary (when a hook is configured); completed cohorts
            // stay final, the cursor lives on disk.
            summary.interrupt = report.interrupt;
            LEMONS_OBS_INCREMENT("fleet.campaign.interrupted");
            return summary;
        }

        CohortResult result;
        result.name = cohortSpec.name;
        result.devices = report.trials;
        result.serviceDays = report.stats;
        result.replaced =
            counters.replaced.load(std::memory_order_relaxed);
        result.premature =
            counters.premature.load(std::memory_order_relaxed);
        result.reprovisioned =
            counters.reprovisioned.load(std::memory_order_relaxed);
        summary.cohorts.push_back(result);
        LEMONS_OBS_COUNT("fleet.campaign.devices", result.devices);

        if (!options.checkpointPath.empty()) {
            // Cursor-less checkpoint: this cohort is sealed, a resume
            // starts cleanly at the next one.
            FleetCheckpoint checkpoint;
            checkpoint.configFingerprint = fingerprint;
            for (const CohortResult &done : summary.cohorts)
                checkpoint.completed.push_back(toRecord(done));
            writeCheckpointAtomic(options.checkpointPath, checkpoint);
        }
    }

    // Cohorts restored from the checkpoint never went through the
    // per-cohort accounting above.
    summary.devices = 0;
    for (const CohortResult &cohort : summary.cohorts)
        summary.devices += cohort.devices;
    LEMONS_OBS_INCREMENT("fleet.campaign.completed");
    return summary;
}

} // namespace lemons::fleet
