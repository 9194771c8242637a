#include "fleet/chaos.h"

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include <sys/resource.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include "fleet/campaign.h"
#include "util/rng.h"

namespace lemons::fleet {

namespace {

/** Child-side fields the parent needs, written as key=value lines. */
struct ChildOutcome
{
    uint64_t digest = 0;
    bool resumed = false;
    bool fellBack = false;
    bool ok = false;
};

void
writeOutcome(const std::string &path, const FleetSummary &summary)
{
    // tmp+rename so a kill mid-write never leaves a half result the
    // parent could mistake for a finished run.
    const std::string temp = path + ".tmp";
    {
        std::ofstream out(temp, std::ios::trunc);
        out << "digest=" << summary.digest() << "\n"
            << "resumed=" << (summary.resumed ? 1 : 0) << "\n"
            << "fellback=" << (summary.fellBack ? 1 : 0) << "\n"
            << "complete=" << (summary.complete() ? 1 : 0) << "\n";
    }
    std::error_code ignored;
    std::filesystem::rename(temp, path, ignored);
}

ChildOutcome
readOutcome(const std::string &path)
{
    ChildOutcome outcome;
    std::ifstream in(path);
    if (!in)
        return outcome;
    std::string line;
    while (std::getline(in, line)) {
        const size_t eq = line.find('=');
        if (eq == std::string::npos)
            continue;
        const std::string key = line.substr(0, eq);
        const std::string value = line.substr(eq + 1);
        if (key == "digest")
            outcome.digest = std::stoull(value);
        else if (key == "resumed")
            outcome.resumed = value == "1";
        else if (key == "fellback")
            outcome.fellBack = value == "1";
        else if (key == "complete")
            outcome.ok = value == "1";
    }
    return outcome;
}

/**
 * Fork a child that runs the campaign (resuming from @p checkpointPath
 * when non-empty) and writes its outcome to @p resultPath. Returns the
 * child pid. The child never returns: it _exit()s.
 */
pid_t
spawnCampaignChild(const lint::FleetSpec &spec, unsigned threads,
                   const std::string &checkpointPath,
                   const std::string &resultPath)
{
    const pid_t pid = ::fork();
    if (pid < 0)
        throw std::runtime_error(std::string("chaos: fork failed: ") +
                                 std::strerror(errno));
    if (pid != 0)
        return pid;

    // Child. SIGABRT rounds must not litter (or wait on) core dumps.
    struct rlimit noCore = {0, 0};
    ::setrlimit(RLIMIT_CORE, &noCore);
    try {
        const FleetCampaign campaign(spec);
        CampaignOptions options;
        options.threads = threads;
        options.checkpointPath = checkpointPath;
        options.resume = !checkpointPath.empty();
        const FleetSummary summary = campaign.run(options);
        writeOutcome(resultPath, summary);
        ::_exit(0);
    } catch (...) {
        ::_exit(3);
    }
}

void
logLine(std::string &log, const std::string &line)
{
    log += line;
    log += '\n';
}

} // namespace

lint::FleetSpec
chaosDefaultSpec()
{
    lint::FleetSpec spec;
    spec.devices = 6000;
    spec.seed = 20170624; // ISCA'17 talk date, arbitrary but stable
    // Checkpoint every 32-trial chunk: the first checkpoint lands
    // within milliseconds, so nearly every kill leaves resumable
    // state for the next round to pick up.
    spec.chunkSize = 32;
    spec.checkpointEveryChunks = 1;
    spec.horizonDays = 1825;
    spec.prematureDays = 365;

    // Unit-scale lifetime mixtures: the main leg outlives the 91,250
    // LAB, the infant leg dies within the first ~months of use.
    lint::FleetCohortSpec retail;
    retail.name = "retail";
    retail.weight = 0.7;
    retail.staggerDays = 90.0;
    retail.accessBound = 91250;
    retail.usage.meanPerDay = 50.0;
    retail.usage.burstProbability = 0.05;
    retail.usage.burstMultiplier = 3.0;
    retail.lifetime.infantFraction = 0.02;
    retail.lifetime.infant = {9000.0, 0.8};
    retail.lifetime.main = {150000.0, 12.0};

    lint::FleetCohortSpec secondhand;
    secondhand.name = "secondhand";
    secondhand.weight = 0.3;
    secondhand.staggerDays = 30.0;
    secondhand.accessBound = 91250;
    secondhand.usage.meanPerDay = 40.0;
    secondhand.lifetime.infantFraction = 0.05;
    secondhand.lifetime.infant = {9000.0, 0.8};
    secondhand.lifetime.main = {150000.0, 12.0};
    secondhand.reprovisionDay = 900.0;
    secondhand.reprovisionUsageScale = 1.5;

    spec.cohorts = {retail, secondhand};
    return spec;
}

ChaosResult
runChaosCampaign(const lint::FleetSpec &spec, const ChaosOptions &options)
{
    namespace fs = std::filesystem;
    ChaosResult result;
    const std::string dir = options.workDir.empty() ? "." : options.workDir;
    const std::string referenceResult = dir + "/chaos-reference.result";
    const std::string chaosResult = dir + "/chaos-run.result";
    result.checkpointPath = dir + "/chaos-run.ckpt";

    std::error_code ignored;
    fs::remove(referenceResult, ignored);
    fs::remove(chaosResult, ignored);
    fs::remove(result.checkpointPath, ignored);
    fs::remove(result.checkpointPath + ".prev", ignored);

    const auto await = [](pid_t pid) {
        int status = 0;
        while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
        }
        return status;
    };

    // Uninterrupted reference, in a child (fork-safety contract: the
    // parent never runs a campaign, so it never warms a thread pool).
    // Its wall time scales the kill delays below.
    double referenceUs = 0.0;
    {
        const auto started = std::chrono::steady_clock::now();
        const pid_t pid = spawnCampaignChild(spec, options.threads,
                                             /*checkpointPath=*/"",
                                             referenceResult);
        const int status = await(pid);
        referenceUs = std::chrono::duration<double, std::micro>(
                          std::chrono::steady_clock::now() - started)
                          .count();
        const ChildOutcome reference = readOutcome(referenceResult);
        if (!WIFEXITED(status) || WEXITSTATUS(status) != 0 ||
            !reference.ok)
            throw std::runtime_error(
                "chaos: uninterrupted reference run failed");
        result.referenceDigest = reference.digest;
        logLine(result.log, "reference digest " +
                                std::to_string(reference.digest) +
                                " in " +
                                std::to_string(referenceUs / 1e3) + " ms");
    }

    Rng rng(options.seed);
    for (int round = 0; round < options.maxKillRounds; ++round) {
        const pid_t pid =
            spawnCampaignChild(spec, options.threads,
                               result.checkpointPath, chaosResult);
        // A uniform fraction in (0, 1) of the reference's wall time: a
        // checkpointing child does at least the reference's work, so
        // a fresh child is still running when the signal lands.
        double fraction = 0.0;
        while (fraction == 0.0)
            fraction = rng.nextDouble();
        const auto delayUs = static_cast<useconds_t>(fraction * referenceUs);
        ::usleep(delayUs);
        const int signo = round % 2 == 0 ? SIGKILL : SIGABRT;
        ::kill(pid, signo);
        const int status = await(pid);

        const ChildOutcome outcome = readOutcome(chaosResult);
        if (outcome.ok) {
            // The child outran the killer: campaign already complete.
            result.resumedDigest = outcome.digest;
            result.resumeObserved |= outcome.resumed;
            result.fallbackExercised |= outcome.fellBack;
            logLine(result.log,
                    "round " + std::to_string(round) +
                        ": child finished before the kill landed");
            break;
        }
        ++result.kills;
        logLine(result.log,
                "round " + std::to_string(round) + ": killed with " +
                    (signo == SIGKILL ? "SIGKILL" : "SIGABRT") +
                    " after " + std::to_string(delayUs / 1e3) +
                    " ms (status " + std::to_string(status) + ")");
    }

    // One uninterrupted resume to completion, recording what it saw.
    const auto resumeToCompletion = [&](const std::string &label) {
        const pid_t pid =
            spawnCampaignChild(spec, options.threads,
                               result.checkpointPath, chaosResult);
        const int status = await(pid);
        const ChildOutcome outcome = readOutcome(chaosResult);
        if (!WIFEXITED(status) || WEXITSTATUS(status) != 0 || !outcome.ok)
            throw std::runtime_error(
                "chaos: " + label + " run failed (checkpoint kept at " +
                result.checkpointPath + ")");
        result.resumedDigest = outcome.digest;
        result.resumeObserved |= outcome.resumed;
        result.fallbackExercised |= outcome.fellBack;
        logLine(result.log,
                label + " digest " + std::to_string(outcome.digest));
    };
    const auto primaryAndFallbackExist = [&] {
        return fs::exists(result.checkpointPath, ignored) &&
               fs::exists(result.checkpointPath + ".prev", ignored);
    };

    bool finalRunNeeded = result.resumedDigest == 0;
    if (options.corruptPrimaryOnce && !primaryAndFallbackExist()) {
        // The kills left nothing to corrupt with a fallback beside it:
        // e.g. a kill between the rotate (primary -> .prev) and the
        // final rename leaves .prev and .tmp but no primary. Resuming
        // to completion recovers from that state and writes the pair.
        const auto present = [&](const std::string &suffix) {
            return fs::exists(result.checkpointPath + suffix, ignored)
                       ? std::string("1")
                       : std::string("0");
        };
        logLine(result.log, "no checkpoint pair after the kills: primary=" +
                                present("") + " prev=" + present(".prev") +
                                " tmp=" + present(".tmp"));
        resumeToCompletion("recovery resume");
    }

    // Corrupt the primary *after* the kill rounds, so the resume that
    // detects it (C104) and falls back to the .prev file is the one
    // guaranteed to run to completion and report the observation.
    if (options.corruptPrimaryOnce && primaryAndFallbackExist()) {
        std::fstream file(result.checkpointPath,
                          std::ios::in | std::ios::out |
                              std::ios::binary);
        file.seekg(0, std::ios::end);
        const std::streamoff size = file.tellg();
        if (file && size > 32) {
            const std::streamoff target = static_cast<std::streamoff>(
                rng.nextBelow(static_cast<uint64_t>(size)));
            file.seekg(target);
            char byte = 0;
            file.read(&byte, 1);
            byte = static_cast<char>(byte ^ 0x5A);
            file.seekp(target);
            file.write(&byte, 1);
            finalRunNeeded = true;
            logLine(result.log, "flipped checkpoint byte at offset " +
                                    std::to_string(target));
        }
    }

    // The final resume runs through the corruption fallback when a
    // byte was flipped above.
    if (finalRunNeeded)
        resumeToCompletion("final resume");

    logLine(result.log,
            std::string("verdict: ") +
                (result.passed() ? "resume == uninterrupted"
                                 : "DIGEST MISMATCH"));
    return result;
}

} // namespace lemons::fleet
