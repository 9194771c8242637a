/**
 * @file
 * lemons-perfbench: the repository's end-to-end benchmark program.
 *
 *   lemons-perfbench --workload <figures|fleet|serve|serve_slow>
 *                    --seed <n> --seconds <s> --trace <0|1>
 *                    [--root <checkout>] [--work-dir <dir>]
 *   lemons-perfbench --self-test [--root <checkout>]
 *
 * A run prints a context line (workload, seed, host fingerprint and
 * notes such as sample counts) and then, as its last line, one JSON
 * object: {"correct", "attempted", "failed", "metrics"}. The metrics
 * are the end-to-end set without --trace and the per-layer set with
 * it. Failures and diagnostics go to stderr.
 *
 * --setup-only runs the workload's set-up and prints the monotonic
 * clock at its end; an untraced run starts itself that way to time
 * setup_s.
 */

#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <exception>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "common.h"
#include "trace.h"
#include "workloads.h"

using namespace perfbench;

namespace perfbench {

bool
runSetup(const Options &options, const std::function<void()> &setup)
{
    setup();
    if (options.setupOnly)
        std::cout << nowNs() << std::endl;
    return options.setupOnly;
}

} // namespace perfbench

namespace {

/** Cold set-ups per untraced run; setup_s reports their median. */
constexpr int kSetupRepetitions = 3;

/** One cold set-up: start this program with --setup-only and time it
 *  from just before the spawn to the end of its set-up, as the child
 *  read the same monotonic clock. */
double
coldSetupSeconds(const Options &options)
{
    const std::vector<std::string> args = {
        "lemons-perfbench", "--setup-only", "--workload", options.workload,
        "--seed", std::to_string(options.seed), "--root", options.root,
        "--work-dir", options.workDir};
    std::vector<char *> argv;
    for (const std::string &arg : args)
        argv.push_back(const_cast<char *>(arg.c_str()));
    argv.push_back(nullptr);

    int out[2];
    if (::pipe(out) != 0)
        throw std::runtime_error("set-up run: pipe failed");
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, out[1], STDOUT_FILENO);
    posix_spawn_file_actions_addclose(&actions, out[0]);
    posix_spawn_file_actions_addclose(&actions, out[1]);
    const uint64_t spawnNs = nowNs();
    pid_t pid = 0;
    const int spawned = ::posix_spawn(&pid, "/proc/self/exe", &actions,
                                      nullptr, argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    ::close(out[1]);
    std::string text;
    char chunk[256];
    for (ssize_t got; spawned == 0 &&
                      (got = ::read(out[0], chunk, sizeof(chunk))) > 0;)
        text.append(chunk, static_cast<size_t>(got));
    ::close(out[0]);
    int status = 0;
    if (spawned != 0 || ::waitpid(pid, &status, 0) != pid ||
        !WIFEXITED(status) || WEXITSTATUS(status) != 0 || text.empty())
        throw std::runtime_error("set-up run failed");
    return static_cast<double>(std::stoull(text) - spawnNs) * 1e-9;
}

int
usage(const char *why)
{
    std::cerr << "lemons-perfbench: " << why
              << "\nusage: lemons-perfbench --workload <figures|fleet|serve|"
                 "serve_slow> --seed <n> --seconds <s> --trace <0|1> "
                 "[--root <dir>] [--work-dir <dir>]\n"
                 "       lemons-perfbench --self-test [--root <dir>]\n";
    return 2;
}

std::string
metricsJson(const std::map<std::string, double> &values,
            const std::vector<MetricDef> &declared)
{
    std::ostringstream out;
    out << "{";
    bool first = true;
    for (const MetricDef &metric : declared) {
        const auto found = values.find(metric.name);
        const double value = found == values.end() ? 0.0 : found->second;
        out << (first ? "" : ", ") << jsonString(metric.name)
            << ": {\"value\": " << jsonNumber(value)
            << ", \"unit\": " << jsonString(metric.unit) << "}";
        first = false;
    }
    out << "}";
    return out.str();
}

} // namespace

int
main(int argc, char **argv)
{
    Options options;
    bool selfTest = false;
    bool haveSeed = false, haveSeconds = false, haveTrace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                throw std::invalid_argument(arg + " needs a value");
            return argv[++i];
        };
        try {
            if (arg == "--workload") {
                options.workload = value();
            } else if (arg == "--seed") {
                options.seed = std::stoull(value());
                haveSeed = true;
            } else if (arg == "--seconds") {
                options.seconds = std::stod(value());
                haveSeconds = true;
            } else if (arg == "--trace") {
                const std::string flag = value();
                if (flag != "0" && flag != "1")
                    return usage("--trace takes 0 or 1");
                options.trace = flag == "1";
                haveTrace = true;
            } else if (arg == "--root") {
                options.root = value();
            } else if (arg == "--work-dir") {
                options.workDir = value();
            } else if (arg == "--setup-only") {
                options.setupOnly = true;
            } else if (arg == "--self-test") {
                selfTest = true;
            } else {
                return usage(("unknown argument " + arg).c_str());
            }
        } catch (const std::exception &error) {
            return usage(error.what());
        }
    }
    if (selfTest)
        return runSelfTest(options);
    if (options.setupOnly)
        haveSeconds = haveTrace = true;
    if (!haveSeed || !haveSeconds || !haveTrace || options.workload.empty())
        return usage("--workload, --seed, --seconds and --trace are required");
    if (!(options.seconds > 0.0))
        return usage("--seconds must be positive");

    RunResult result;
    try {
        if (options.workload == "figures")
            result = runFigures(options);
        else if (options.workload == "fleet")
            result = runFleet(options);
        else if (options.workload == "serve")
            result = runServe(options, false);
        else if (options.workload == "serve_slow")
            result = runServe(options, true);
        else
            return usage(("unknown workload " + options.workload).c_str());
        if (options.setupOnly)
            return 0;
        if (!options.trace) {
            // After the run has torn down, so the set-ups run alone.
            std::vector<double> setups;
            for (int rep = 0; rep < kSetupRepetitions; ++rep)
                setups.push_back(coldSetupSeconds(options));
            result.endToEnd["setup_s"] = median(setups);
            std::ostringstream list;
            for (const double seconds : setups)
                list << (list.tellp() == 0 ? "[" : ", ") << jsonNumber(seconds);
            result.note("setup_runs_s", list.str() + "]");
        }
    } catch (const std::exception &error) {
        std::cerr << "lemons-perfbench: " << options.workload
                  << " aborted: " << error.what() << "\n";
        return 1;
    }

    if (options.trace) {
        const std::string path = options.workDir + "/trace-" +
                                 options.workload + "-" +
                                 std::to_string(options.seed) + ".jsonl";
        if (!Tracer::global().write(path))
            std::cerr << "lemons-perfbench: cannot write " << path << "\n";
        else
            result.note("trace_file", jsonString(path));
        std::ostringstream selfTimes;
        selfTimes << "{";
        bool first = true;
        for (const auto &[name, totals] : Tracer::global().totals()) {
            selfTimes << (first ? "" : ", ") << jsonString(name)
                      << ": {\"count\": " << totals.count
                      << ", \"total_s\": " << jsonNumber(totals.totalSeconds)
                      << ", \"self_s\": " << jsonNumber(totals.selfSeconds)
                      << "}";
            first = false;
        }
        selfTimes << "}";
        result.note("span_self_times", selfTimes.str());
    }

    for (const std::string &failure : result.failures)
        std::cerr << "FAILED: " << failure << "\n";

    const double errorRatio =
        result.attempted == 0 ? 1.0
                              : static_cast<double>(result.failed) /
                                    static_cast<double>(result.attempted);
    std::cout << "{\"workload\": " << jsonString(options.workload)
              << ", \"seed\": " << options.seed
              << ", \"seconds\": " << jsonNumber(options.seconds)
              << ", \"trace\": " << (options.trace ? 1 : 0)
              << ", \"host\": " << hostFingerprintJson()
              << ", \"error_ratio\": {\"value\": " << jsonNumber(errorRatio)
              << ", \"unit\": \"ratio\"}";
    for (const MetricDef &metric : ungatedMetrics())
        std::cout << ", " << jsonString(metric.name) << ": {\"value\": "
                  << jsonNumber(result.endToEnd[metric.name])
                  << ", \"unit\": " << jsonString(metric.unit) << "}";
    for (const auto &[key, json] : result.notes)
        std::cout << ", " << jsonString(key) << ": " << json;
    std::cout << "}\n";

    const bool correct = result.failed == 0 && result.attempted > 0;
    std::cout << "{\"correct\": " << (correct ? "true" : "false")
              << ", \"attempted\": " << std::max<uint64_t>(result.attempted, 1)
              << ", \"failed\": " << result.failed << ", \"metrics\": "
              << (options.trace
                      ? metricsJson(result.perLayer, perLayerMetrics())
                      : metricsJson(result.endToEnd, endToEndMetrics()))
              << "}" << std::endl;
    return 0;
}
