#include "common.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "engine/batch.h"
#include "engine/engine.h"
#include "trace.h"
#include "util/simd.h"

namespace perfbench {

const std::vector<MetricDef> &
endToEndMetrics()
{
    static const std::vector<MetricDef> metrics = {
        {"setup_s", "s"},
        {"wall_s", "s"},
        {"cpu_s", "s"},
        {"goodput_rps", "req/s"},
        {"latency_p99_ms", "ms"},
        {"peak_rss_mb", "MB"},
    };
    return metrics;
}

const std::vector<MetricDef> &
ungatedMetrics()
{
    static const std::vector<MetricDef> metrics = {
        {"latency_p50_ms", "ms"},
    };
    return metrics;
}

const std::vector<MetricDef> &
perLayerMetrics()
{
    static const std::vector<MetricDef> metrics = {
        {"sim.usage_s", "s"},
        {"sim.poisson_samples", "count"},
        {"sim.mc_runs", "count"},
        {"wearout.mixture_s", "s"},
        {"fault.ablation_s", "s"},
        {"arch.device_samples", "count"},
        {"arch.ns_per_device_sample", "ns"},
        {"core.solve_ms", "ms"},
        {"core.usage_bounds_s", "s"},
        {"engine.kernel_ns_per_device", "ns"},
        {"engine.dispatch_overhead_ratio", "ratio"},
        {"engine.parallel_efficiency", "ratio"},
        {"engine.cache_hit_ratio", "ratio"},
        {"engine.threads_created_after_warmup", "count"},
        {"fleet.device_days_per_s", "1/s"},
        {"fleet.checkpoint_write_ms", "ms"},
        {"fleet.checkpoint_bytes", "bytes"},
        {"fleet.checkpoint_share", "ratio"},
        {"api.solve_ms", "ms"},
        {"api.lint_ms", "ms"},
        {"api.verify_ms", "ms"},
        {"api.analyze_ms", "ms"},
        {"api.mc_run_ms", "ms"},
        {"api.json_parse_us", "us"},
        {"serve.connect_ms", "ms"},
        {"serve.parse_us", "us"},
        {"serve.render_us", "us"},
        {"serve.worker_hold_ms", "ms"},
        {"serve.queue_wait_ms", "ms"},
        {"serve.rejected", "count"},
        {"trace.overhead_wall_s", "s"},
        {"trace.overhead_p50_ms", "ms"},
    };
    return metrics;
}

void
RunResult::fail(const std::string &why)
{
    ++failed;
    if (failures.size() < 20)
        failures.push_back(why);
}

void
RunResult::note(const std::string &key, const std::string &json)
{
    notes.emplace_back(key, json);
}

void
RunResult::note(const std::string &key, double value)
{
    notes.emplace_back(key, jsonNumber(value));
}

uint64_t
ObsDelta::counter(std::string_view name) const
{
    for (const auto &sample : counters)
        if (sample.name == name)
            return sample.value;
    return 0;
}

uint64_t
ObsDelta::counterPrefix(std::string_view prefix) const
{
    uint64_t sum = 0;
    for (const auto &sample : counters)
        if (std::string_view(sample.name).substr(0, prefix.size()) == prefix)
            sum += sample.value;
    return sum;
}

uint64_t
ObsDelta::timerCount(std::string_view name) const
{
    for (const auto &sample : timers)
        if (sample.name == name)
            return sample.count;
    return 0;
}

uint64_t
ObsDelta::timerNs(std::string_view name) const
{
    for (const auto &sample : timers)
        if (sample.name == name)
            return sample.totalNs;
    return 0;
}

lemons::obs::Snapshot
obsSnapshot()
{
    return lemons::obs::Registry::global().snapshot();
}

ObsDelta
obsSince(const lemons::obs::Snapshot &base)
{
    const lemons::obs::Snapshot now = obsSnapshot();
    return {now.countersSince(base), now.timersSince(base)};
}

double
cacheHitRatio(const ObsDelta &delta)
{
    uint64_t hits = 0;
    uint64_t lookups = 0;
    for (const char *cache :
         {"binomial_tail", "weibull_log_survival", "weibull_quantile"}) {
        const std::string base = std::string("sim.mc.cache.") + cache;
        hits += delta.counter(base + ".hits");
        lookups += delta.counter(base + ".hits") +
                   delta.counter(base + ".misses");
    }
    return lookups == 0 ? 0.0
                        : static_cast<double>(hits) /
                              static_cast<double>(lookups);
}

std::map<std::string, double>
windowMetrics(const std::vector<WorkUnit> &units,
              const std::vector<double> &latencyMs, uint64_t good,
              double windowSeconds)
{
    std::vector<double> wall, cpu;
    for (const WorkUnit &unit : units) {
        wall.push_back(unit.wallSeconds);
        cpu.push_back(unit.cpuSeconds);
    }
    return {
        {"wall_s", median(wall)},
        {"cpu_s", median(cpu)},
        {"goodput_rps", windowSeconds > 0.0
                            ? static_cast<double>(good) / windowSeconds
                            : 0.0},
        {"latency_p50_ms", percentile(latencyMs, 0.50)},
        {"latency_p99_ms", percentile(latencyMs, 0.99)},
    };
}

void
reportWindows(RunResult &result,
              const std::map<std::string, double> &untraced,
              const std::map<std::string, double> *traced)
{
    for (const auto &[name, value] : untraced)
        result.endToEnd[name] = value;
    if (traced == nullptr)
        return;
    std::string overhead = "{";
    for (const auto &[name, value] : untraced) {
        overhead += (overhead.size() > 1 ? ", " : "") + jsonString(name) +
                    ": " + jsonNumber(traced->at(name) - value);
    }
    result.note("trace_overhead", overhead + "}");
    result.perLayer["trace.overhead_wall_s"] =
        traced->at("wall_s") - untraced.at("wall_s");
    result.perLayer["trace.overhead_p50_ms"] =
        traced->at("latency_p50_ms") - untraced.at("latency_p50_ms");
}

void
probeBankKernel(RunResult &result, double alpha, double beta, size_t n,
                size_t k, uint64_t trials, uint64_t seed)
{
    const lemons::wearout::Weibull model(alpha, beta);
    std::vector<uint64_t> out(trials);
    // A counter-based stream, as runTrials hands each trial.
    lemons::Rng rng = lemons::Rng::trialStream(seed, 0);
    uint64_t start = nowNs();
    {
        const Span span("engine.kernel");
        lemons::engine::sampleParallelBankSurvivalMany(model, n, k, rng,
                                                       out.data(), trials);
    }
    const double kernelSeconds = secondsSince(start);
    result.perLayer["engine.kernel_ns_per_device"] =
        kernelSeconds * 1e9 / static_cast<double>(trials * n);

    start = nowNs();
    {
        const Span span("engine.run_trials");
        lemons::engine::runTrials(
            seed, {.trials = trials, .threads = 1, .keepSamples = false},
            [&](lemons::Rng &trialRng, uint64_t) {
                return static_cast<double>(
                    lemons::engine::sampleParallelBankSurvival(model, n, k,
                                                               trialRng));
            });
    }
    const double runSeconds = secondsSince(start);
    result.perLayer["engine.dispatch_overhead_ratio"] =
        (runSeconds - kernelSeconds) / runSeconds;
}

uint64_t
nowNs()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

double
secondsSince(uint64_t startNs)
{
    return static_cast<double>(nowNs() - startNs) * 1e-9;
}

double
processCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

HostTicks
hostTicks()
{
    // cpu user nice system idle iowait irq softirq steal ...
    std::ifstream in("/proc/stat");
    std::string label;
    uint64_t field[8] = {};
    in >> label;
    for (uint64_t &value : field)
        in >> value;
    if (!in || label != "cpu")
        return {};
    const uint64_t stolen = field[7];
    return {stolen,
            field[0] + field[1] + field[2] + field[5] + field[6] + stolen};
}

double
stolenShare(const HostTicks &from, const HostTicks &to)
{
    const uint64_t busy = to.busy - from.busy;
    return busy == 0 ? 0.0
                     : static_cast<double>(to.stolen - from.stolen) /
                           static_cast<double>(busy);
}

std::vector<size_t>
leastStolen(const std::vector<WorkUnit> &units)
{
    std::vector<double> shares;
    for (const WorkUnit &unit : units)
        shares.push_back(unit.stolenShare);
    const double limit = median(shares);
    std::vector<size_t> kept;
    for (size_t i = 0; i < units.size(); ++i)
        if (units[i].stolenShare <= limit)
            kept.push_back(i);
    return kept;
}

size_t
noteStolen(RunResult &result, const std::vector<WorkUnit> &units,
           const std::string &kind)
{
    std::vector<double> shares;
    for (const WorkUnit &unit : units)
        shares.push_back(unit.stolenShare);
    const size_t kept = leastStolen(units).size();
    result.note(kind + "_kept", static_cast<double>(kept));
    result.note("stolen_share_median", median(shares));
    return kept;
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    // Linux reports ru_maxrss in kilobytes.
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

unsigned
benchThreads()
{
    // One hardware thread stays free for the load generator, the
    // kernel and the rest of the host: a benchmark that saturates every
    // CPU measures the scheduler as much as the library.
    const unsigned hardware = std::thread::hardware_concurrency();
    return std::clamp(hardware > 1 ? hardware - 1 : 1u, 1u, 4u);
}

void
warmEnginePool(unsigned threads)
{
    lemons::engine::runTrials(
        1, {.trials = threads, .threads = threads, .chunkSize = 1,
            .keepSamples = false},
        [](lemons::Rng &rng, uint64_t) { return rng.nextDouble(); });
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const size_t mid = values.size() / 2;
    return values.size() % 2 == 1 ? values[mid]
                                  : 0.5 * (values[mid - 1] + values[mid]);
}

double
percentile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double rank = std::ceil(q * static_cast<double>(values.size()));
    const size_t index =
        rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
    return values[std::min(index, values.size() - 1)];
}

double
mean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double sum = 0.0;
    for (double v : values)
        sum += v;
    return sum / static_cast<double>(values.size());
}

std::string
jsonString(const std::string &text)
{
    std::string out = "\"";
    for (char c : text) {
        switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\t': out += "\\t"; break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(c));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    out += "\"";
    return out;
}

std::string
jsonNumber(double value)
{
    if (!std::isfinite(value))
        return "null";
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    return buf;
}

std::string
hostFingerprintJson()
{
    std::ostringstream out;
    out << "{\"nproc\": " << std::thread::hardware_concurrency()
        << ", \"online_cpus\": " << sysconf(_SC_NPROCESSORS_ONLN)
        << ", \"simd\": "
        << jsonString(lemons::simd::levelName(lemons::simd::activeLevel()))
        << ", \"compiler\": " << jsonString(PERFBENCH_COMPILER)
        << ", \"build_type\": " << jsonString(PERFBENCH_BUILD_TYPE) << "}";
    return out.str();
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw std::runtime_error("cannot read " + path);
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

uint64_t
InputRng::next()
{
    uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

uint64_t
InputRng::below(uint64_t bound)
{
    return bound == 0 ? 0 : next() % bound;
}

double
InputRng::unit()
{
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

} // namespace perfbench
