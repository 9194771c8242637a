/**
 * @file
 * lemons-fleet — fleet lifecycle campaign runner CLI.
 *
 * Runs the [fleet]/[cohort] sections of a spec file (lint/spec_file.h
 * documents the format) as crash-safe Monte Carlo campaigns:
 *
 *     lemons-fleet run examples/configs/fleet_smartphone.lemons \
 *         --threads 8 --checkpoint /var/tmp/fleet.ckpt --resume
 *
 * With --checkpoint the campaign persists a fleet-ckpt/1 file at every
 * wave boundary; --resume picks an interrupted run back up from the
 * last good checkpoint, bit-identical to the uninterrupted run.
 * --deadline-ms bounds the wall clock (the run checkpoints and exits
 * with code 3 when the deadline fires, so a scheduler can re-invoke
 * with --resume).
 *
 * --chaos runs the crash-injection harness instead: fork a campaign,
 * SIGKILL/SIGABRT it at random points, resume, corrupt a checkpoint
 * once, and verify the final digest equals an uninterrupted run's.
 *
 * --json emits one `lemons-api/1` envelope for the whole invocation
 * ({schema, ok, diagnostics[], result: {fleets: [...]}} for run mode,
 * result: {chaos: {...}} for --chaos), matching lemonsd and
 * `lemons-lint --json`.
 *
 * Exit codes: 0 success, 1 contract failure (chaos digest mismatch),
 * 2 usage/spec error, 3 interrupted by deadline (resumable).
 */

#include <chrono>
#include <cstdint>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "api/codec.h"
#include "fleet/campaign.h"
#include "fleet/chaos.h"
#include "lint/diagnostics.h"
#include "lint/spec_file.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "util/argparse.h"

namespace {

struct Args
{
    bool chaos = false;
    std::string specFile;
    unsigned threads = 1;
    std::string checkpointPath;
    bool resume = false;
    std::optional<uint64_t> deadlineMs;
    bool json = false;
    bool metrics = false;
    uint64_t rounds = 6;
    std::string dir = ".";
    uint64_t seed = 1;
};

void
printCohort(const lemons::fleet::CohortResult &cohort)
{
    const lemons::ProportionInterval replacement =
        cohort.replacementInterval();
    const lemons::ProportionInterval premature =
        cohort.prematureInterval();
    std::cout << "  " << cohort.name << ": " << cohort.devices
              << " devices, replacement " << replacement.estimate
              << " [" << replacement.low << ", " << replacement.high
              << "], premature " << premature.estimate << " ["
              << premature.low << ", " << premature.high
              << "], reprovisioned " << cohort.reprovisioned
              << ", mean service days " << cohort.serviceDays.mean()
              << "\n";
}

void
printCohortJson(lemons::obs::JsonWriter &json,
                const lemons::fleet::CohortResult &cohort)
{
    const lemons::ProportionInterval replacement =
        cohort.replacementInterval();
    const lemons::ProportionInterval premature =
        cohort.prematureInterval();
    json.beginObject();
    json.key("name");
    json.value(cohort.name);
    json.key("devices");
    json.value(cohort.devices);
    json.key("replaced");
    json.value(cohort.replaced);
    json.key("replacement_rate");
    json.value(replacement.estimate);
    json.key("replacement_low");
    json.value(replacement.low);
    json.key("replacement_high");
    json.value(replacement.high);
    json.key("premature");
    json.value(cohort.premature);
    json.key("premature_rate");
    json.value(premature.estimate);
    json.key("premature_low");
    json.value(premature.low);
    json.key("premature_high");
    json.value(premature.high);
    json.key("reprovisioned");
    json.value(cohort.reprovisioned);
    json.key("mean_service_days");
    json.value(cohort.serviceDays.mean());
    json.endObject();
}

void
writeSummaryJson(lemons::obs::JsonWriter &json, uint64_t index,
                 const lemons::fleet::FleetSummary &summary)
{
    json.beginObject();
    json.key("fleet");
    json.value(index);
    json.key("devices");
    json.value(summary.devices);
    json.key("complete");
    json.value(summary.complete());
    json.key("resumed");
    json.value(summary.resumed);
    json.key("fell_back");
    json.value(summary.fellBack);
    json.key("digest");
    json.value(summary.digest());
    json.key("cohorts");
    json.beginArray();
    for (const lemons::fleet::CohortResult &cohort : summary.cohorts)
        printCohortJson(json, cohort);
    json.endArray();
    json.endObject();
}

int
runCampaigns(const Args &args)
{
    lemons::lint::Report report;
    const lemons::lint::ParsedSpec spec =
        lemons::lint::parseSpecFile(args.specFile, report);
    if (report.hasErrors()) {
        if (args.json)
            std::cout << lemons::api::renderEnvelope(report);
        else
            std::cerr << report.format();
        return 2;
    }
    if (spec.fleets.empty()) {
        std::cerr << "lemons-fleet: " << args.specFile
                  << " has no [fleet] section\n";
        return 2;
    }

    lemons::fleet::CampaignOptions options;
    options.threads = args.threads;
    options.checkpointPath = args.checkpointPath;
    options.resume = args.resume;
    if (args.deadlineMs)
        // LEMONS-TIDY-ALLOW(T002): anchors the --deadline-ms wall-clock
        // budget; campaign results never depend on it
        options.deadline = std::chrono::steady_clock::now() +
                           std::chrono::milliseconds(*args.deadlineMs);

    bool interrupted = false;
    std::vector<lemons::fleet::FleetSummary> summaries;
    for (size_t i = 0; i < spec.fleets.size(); ++i) {
        const lemons::fleet::FleetCampaign campaign(spec.fleets[i]);
        lemons::fleet::FleetSummary summary = campaign.run(options);
        if (!summary.warning.empty())
            std::cerr << "lemons-fleet: warning: " << summary.warning
                      << "\n";
        interrupted |= !summary.complete();
        if (args.json) {
            summaries.push_back(std::move(summary));
            continue;
        }
        std::cout << "fleet " << i << ": " << summary.devices
                  << " devices" << (summary.resumed ? " (resumed)" : "")
                  << (summary.complete() ? "" : " [interrupted]")
                  << "\n";
        for (const lemons::fleet::CohortResult &cohort : summary.cohorts)
            printCohort(cohort);
    }
    if (args.json) {
        std::cout << lemons::api::renderEnvelope(
            report, [&](lemons::obs::JsonWriter &json) {
                json.beginObject();
                json.key("interrupted");
                json.value(interrupted);
                json.key("fleets");
                json.beginArray();
                for (size_t i = 0; i < summaries.size(); ++i)
                    writeSummaryJson(json, static_cast<uint64_t>(i),
                                     summaries[i]);
                json.endArray();
                json.endObject();
            });
    }
    if (args.metrics)
        std::cerr << lemons::obs::Registry::global().toJson() << "\n";
    return interrupted ? 3 : 0;
}

int
runChaos(const Args &args)
{
    lemons::fleet::ChaosOptions options;
    options.threads = args.threads;
    options.seed = args.seed;
    options.maxKillRounds = static_cast<int>(args.rounds);
    options.workDir = args.dir;
    const lemons::fleet::ChaosResult result =
        lemons::fleet::runChaosCampaign(
            lemons::fleet::chaosDefaultSpec(), options);
    if (!args.json) {
        std::cout << result.log;
        return result.passed() ? 0 : 1;
    }
    const lemons::lint::Report empty;
    std::cout << lemons::api::renderEnvelope(
        empty, [&result](lemons::obs::JsonWriter &json) {
            json.beginObject();
            json.key("chaos");
            json.beginObject();
            json.key("passed");
            json.value(result.passed());
            json.key("reference_digest");
            json.value(result.referenceDigest);
            json.key("resumed_digest");
            json.value(result.resumedDigest);
            json.key("kills");
            json.value(static_cast<uint64_t>(result.kills));
            json.key("resume_observed");
            json.value(result.resumeObserved);
            json.key("fallback_exercised");
            json.value(result.fallbackExercised);
            json.key("checkpoint_path");
            json.value(result.checkpointPath);
            json.endObject();
            json.endObject();
        });
    return result.passed() ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    Args args;
    std::vector<std::string> positional;

    lemons::ArgParser parser(
        "lemons-fleet",
        "Runs [fleet]/[cohort] campaigns from a spec file through the\n"
        "Monte Carlo engine with crash-safe checkpointing.");
    parser.flag("--chaos", &args.chaos,
                "run the crash-injection harness on a built-in spec "
                "instead of a campaign");
    parser.value("--threads", &args.threads, "N",
                 "worker threads (default 1; 0 = all)");
    parser.value("--checkpoint", &args.checkpointPath, "PATH",
                 "write fleet-ckpt/1 checkpoints to PATH");
    parser.flag("--resume", &args.resume,
                "resume from the last good checkpoint");
    parser.value("--deadline-ms", &args.deadlineMs, "N",
                 "stop (checkpointed) after N ms; exit 3");
    parser.flag("--json", &args.json,
                "emit one lemons-api/1 envelope for the invocation");
    parser.flag("--metrics", &args.metrics,
                "also dump the obs registry as JSON to stderr");
    parser.value("--rounds", &args.rounds, "N",
                 "chaos: kill/resume rounds (default 6)");
    parser.value("--dir", &args.dir, "PATH",
                 "chaos: working directory (default .)");
    parser.value("--seed", &args.seed, "N",
                 "chaos: kill-point randomization seed");
    parser.positionals("run <spec-file>", &positional,
                       "campaign subcommand and its spec file");
    parser.epilog("examples:\n"
                  "  lemons-fleet run fleet.lemons --threads 8 --json\n"
                  "  lemons-fleet --chaos --rounds 4 --dir /tmp");

    switch (parser.parse(argc, argv)) {
    case lemons::ArgParser::Outcome::Ok:
        break;
    case lemons::ArgParser::Outcome::Help:
        return 0;
    case lemons::ArgParser::Outcome::Error:
        std::cerr << parser.error() << '\n' << parser.helpText();
        return 2;
    }

    try {
        if (args.chaos) {
            if (!positional.empty()) {
                std::cerr << "lemons-fleet: --chaos takes no spec "
                             "file (it uses a built-in one)\n";
                return 2;
            }
            return runChaos(args);
        }
        if (positional.size() != 2 || positional[0] != "run") {
            std::cerr << parser.helpText();
            return 2;
        }
        args.specFile = positional[1];
        return runCampaigns(args);
    } catch (const std::exception &error) {
        std::cerr << "lemons-fleet: " << error.what() << "\n";
        return 2;
    }
}
