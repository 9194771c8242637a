/**
 * @file
 * `fleet`: a lemons-fleet campaign over the smartphone cohorts of
 * examples/configs/fleet_smartphone.lemons, with checkpointing on, at
 * benchThreads() threads. The workload seed becomes the campaign seed;
 * the population is scaled to kFleetDevices so that one run holds
 * several campaigns plus the single-thread digest check. One more
 * campaign at the spec's own population, after the window, gives the
 * premature-lockout check its power (see README.md).
 */

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "analysis/passes.h"
#include "fleet/campaign.h"
#include "lint/spec_file.h"
#include "reference.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {

namespace {

using namespace lemons;

constexpr uint64_t kFleetDevices = 3000;

struct Campaign
{
    double wallSeconds = 0.0;
    double cpuSeconds = 0.0;
    double stolenShare = 0.0;
    uint64_t digest = 0;
    fleet::FleetSummary summary;
    /** Passed the correctness checks. */
    bool good = false;
};

Campaign
runCampaign(const fleet::FleetCampaign &campaign,
            const fleet::CampaignOptions &options)
{
    Tracer &tracer = Tracer::global();
    const Span span("fleet.campaign", tracer.newTrace(), 0);
    Campaign out;
    const uint64_t start = nowNs();
    const double cpuStart = processCpuSeconds();
    const HostTicks ticksStart = hostTicks();
    out.summary = campaign.run(options);
    out.wallSeconds = secondsSince(start);
    out.cpuSeconds = processCpuSeconds() - cpuStart;
    out.stolenShare = stolenShare(ticksStart, hostTicks());
    out.digest = out.summary.digest();
    return out;
}

std::vector<WorkUnit>
campaignUnits(const std::vector<Campaign> &window)
{
    std::vector<WorkUnit> units;
    for (const Campaign &run : window)
        units.push_back({run.wallSeconds, run.cpuSeconds, run.stolenShare});
    return units;
}

/** End-to-end metrics of the least-stolen campaigns of a window; one
 *  campaign is one operation, its latency the campaign's wall time. */
std::map<std::string, double>
campaignMetrics(const std::vector<Campaign> &window)
{
    const std::vector<WorkUnit> all = campaignUnits(window);
    std::vector<WorkUnit> units;
    std::vector<double> latencyMs;
    uint64_t good = 0;
    double seconds = 0.0;
    for (const size_t c : leastStolen(all)) {
        const Campaign &run = window[c];
        units.push_back(all[c]);
        latencyMs.push_back(run.wallSeconds * 1e3);
        good += run.good ? 1 : 0;
        seconds += run.wallSeconds;
    }
    return windowMetrics(units, latencyMs, good, seconds);
}

} // namespace

RunResult
runFleet(const Options &options)
{
    RunResult result;
    const unsigned threads = benchThreads();
    const std::string checkpoint = options.workDir + "/fleet-" +
                                   std::to_string(options.seed) + ".ckpt";
    lint::ParsedSpec parsed;
    std::unique_ptr<fleet::FleetCampaign> campaign;
    uint64_t specDevices = 0;
    const bool setupOnly = runSetup(options, [&] {
        lint::Report report;
        parsed = lint::parseSpecFile(
            options.root + "/examples/configs/fleet_smartphone.lemons",
            report);
        if (report.hasErrors() || parsed.fleets.size() != 1)
            throw std::runtime_error("fleet_smartphone.lemons did not parse");
        lint::FleetSpec &spec = parsed.fleets.front();
        specDevices = spec.devices;
        spec.devices = kFleetDevices;
        spec.seed = options.seed;
        campaign = std::make_unique<fleet::FleetCampaign>(spec);

        // Warm the engine pool with a small campaign of the same shape.
        warmEnginePool(threads);
        lint::FleetSpec small = spec;
        small.devices = 256;
        fleet::FleetCampaign(small).run({.threads = threads});
    });
    if (setupOnly)
        return result;

    const fleet::CampaignOptions measured{.threads = threads,
                                          .checkpointPath = checkpoint};
    const lemons::obs::Snapshot afterSetup = obsSnapshot();
    std::vector<Campaign> untraced, traced;
    // A traced run alternates untraced and traced campaigns, so their
    // difference is the tracing overhead, not warm-up or drift.
    const uint64_t windowStart = nowNs();
    do {
        const bool tracing = options.trace && untraced.size() > traced.size();
        Tracer::global().setEnabled(tracing);
        (tracing ? traced : untraced)
            .push_back(runCampaign(*campaign, measured));
        std::remove(checkpoint.c_str());
    } while (secondsSince(windowStart) < options.seconds ||
             (options.trace && traced.empty()));
    Tracer::global().setEnabled(options.trace);
    const ObsDelta windowDelta = obsSince(afterSetup);
    // Read before the reference campaigns below allocate.
    result.endToEnd["peak_rss_mb"] = peakRssMb();

    // Correctness: the campaign digest at one thread must equal every
    // measured campaign's, and each cohort's premature-lockout interval
    // must overlap the analyzer's certified bracket, on every measured
    // campaign and on one campaign at the spec's own population.
    const Campaign single = runCampaign(*campaign, {.threads = 1});
    analysis::FileAnalysis analysis;
    {
        const Span span("analysis.analyze_spec");
        analysis = analysis::analyzeSpec(parsed);
    }
    const auto checkLockout = [&](const Campaign &run) {
        std::string why;
        if (run.summary.cohorts.size() != analysis.cohorts.size())
            why += "cohort count differs from the analyzer's; ";
        for (size_t c = 0;
             c < run.summary.cohorts.size() && c < analysis.cohorts.size();
             ++c) {
            const fleet::CohortResult &cohort = run.summary.cohorts[c];
            const auto [low, high] =
                wilsonInterval(cohort.premature, cohort.devices, kPrematureZ);
            why += checkOverlap(low, high, analysis.cohorts[c].premature.lo,
                                analysis.cohorts[c].premature.hi,
                                cohort.name + " premature lockout");
        }
        if (!run.summary.complete())
            why += "campaign interrupted";
        return why;
    };
    for (std::vector<Campaign> *runs : {&untraced, &traced}) {
        for (Campaign &run : *runs) {
            ++result.attempted;
            const std::string why =
                checkSameDigest(single.digest, run.digest,
                                "1-thread vs " + std::to_string(threads) +
                                    "-thread campaign") +
                checkLockout(run);
            run.good = why.empty();
            if (!why.empty())
                result.fail(why);
        }
    }
    lint::FleetSpec fullSpec = parsed.fleets.front();
    fullSpec.devices = specDevices;
    const Campaign full =
        runCampaign(fleet::FleetCampaign(fullSpec), {.threads = threads});
    ++result.attempted;
    if (const std::string why = checkLockout(full); !why.empty())
        result.fail(std::to_string(specDevices) + "-device campaign: " + why);

    const auto tracedMetrics = campaignMetrics(traced);
    reportWindows(result, campaignMetrics(untraced),
                  options.trace ? &tracedMetrics : nullptr);
    result.note("campaigns", static_cast<double>(untraced.size()));
    result.note("latency_samples",
                static_cast<double>(
                    noteStolen(result, campaignUnits(untraced), "campaigns")));
    result.note("devices", static_cast<double>(kFleetDevices));
    result.note("check_devices", static_cast<double>(specDevices));
    result.note("digest", jsonString(std::to_string(single.digest)));
    result.perLayer["engine.threads_created_after_warmup"] =
        static_cast<double>(
            windowDelta.counter("sim.mc.pool.threads_created"));

    if (options.trace) {
        // Every campaign does identical work: counters cover them all.
        const double runs =
            static_cast<double>(untraced.size() + traced.size());
        std::vector<double> tracedWall;
        for (const Campaign &run : traced)
            tracedWall.push_back(run.wallSeconds);
        const double withCheckpoints = median(tracedWall);
        const Campaign bare = runCampaign(*campaign, {.threads = threads});
        const double draws =
            static_cast<double>(windowDelta.counter("sim.poisson.samples")) /
            runs;
        result.perLayer["sim.poisson_samples"] = draws;
        result.perLayer["sim.mc_runs"] =
            static_cast<double>(windowDelta.timerCount("sim.mc.run")) / runs;
        result.perLayer["arch.device_samples"] =
            static_cast<double>(
                windowDelta.counter("arch.sim.device_samples")) /
            runs;
        // One Poisson draw per simulated device-day.
        result.perLayer["fleet.device_days_per_s"] = draws / withCheckpoints;
        const uint64_t writes = windowDelta.timerCount("fleet.checkpoint.write");
        result.perLayer["fleet.checkpoint_write_ms"] =
            writes == 0 ? 0.0
                        : static_cast<double>(
                              windowDelta.timerNs("fleet.checkpoint.write")) *
                              1e-6 / static_cast<double>(writes);
        result.perLayer["fleet.checkpoint_bytes"] =
            static_cast<double>(windowDelta.counter("fleet.checkpoint.bytes")) /
            runs;
        result.perLayer["fleet.checkpoint_share"] =
            (withCheckpoints - bare.wallSeconds) / withCheckpoints;
        result.perLayer["engine.parallel_efficiency"] =
            single.wallSeconds /
            (static_cast<double>(threads) * bare.wallSeconds);
        result.note("traced_campaigns", static_cast<double>(traced.size()));
    }
    return result;
}

} // namespace perfbench
