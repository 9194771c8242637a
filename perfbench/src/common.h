/**
 * @file
 * Shared plumbing of the end-to-end benchmark: run options, clocks,
 * process resource readings, seeded input generation, percentile
 * helpers and the result record every workload fills in.
 */

#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/metrics.h"

namespace perfbench {

/** Command-line options of one benchmark run. */
struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Root of the checkout (holds src/, examples/ and perfbench/). */
    std::string root = ".";
    /** Scratch directory for checkpoints and the trace file. */
    std::string workDir = ".bench_build/perfbench/run";
    /** Run the workload's set-up only and print when it ended. */
    bool setupOnly = false;
};

/** A metric the benchmark declares: name and unit. */
struct MetricDef
{
    const char *name;
    const char *unit;
};

/** End-to-end metrics, printed by every untraced run. */
const std::vector<MetricDef> &endToEndMetrics();
/**
 * End-to-end metrics every run prints on its context line instead:
 * measured like the others but too host-sensitive to gate (see
 * README.md, "End-to-end metrics").
 */
const std::vector<MetricDef> &ungatedMetrics();
/** Per-layer metrics, printed by every traced run. A layer a workload
 *  never reaches reads 0 there. */
const std::vector<MetricDef> &perLayerMetrics();

/** Everything one workload run reports. */
struct RunResult
{
    /** Operations the workload attempted and those that failed. */
    uint64_t attempted = 0;
    uint64_t failed = 0;
    /** First few correctness or transport failures, for stderr. */
    std::vector<std::string> failures;
    /** End-to-end metric values by name (printed with --trace 0). */
    std::map<std::string, double> endToEnd;
    /** Per-layer metric values by name (printed with --trace 1). */
    std::map<std::string, double> perLayer;
    /** Free-form key/value notes for the context line (JSON values). */
    std::vector<std::pair<std::string, std::string>> notes;

    /** Record a failed operation with its reason. */
    void fail(const std::string &why);
    /** Add a note whose value is already JSON. */
    void note(const std::string &key, const std::string &json);
    void note(const std::string &key, double value);
};

/** Library counter and timer activity since a registry snapshot. */
struct ObsDelta
{
    std::vector<lemons::obs::CounterSample> counters;
    std::vector<lemons::obs::TimerSample> timers;

    uint64_t counter(std::string_view name) const;
    /** Sum of every counter whose name starts with @p prefix. */
    uint64_t counterPrefix(std::string_view prefix) const;
    uint64_t timerCount(std::string_view name) const;
    uint64_t timerNs(std::string_view name) const;
};

/** Snapshot of the library's global metrics registry. */
lemons::obs::Snapshot obsSnapshot();
/** Activity since @p base. */
ObsDelta obsSince(const lemons::obs::Snapshot &base);

/** engine.cache_hit_ratio: hits over lookups of the engine caches. */
double cacheHitRatio(const ObsDelta &delta);

/** One unit of a workload's fixed work: a figure pass, a campaign, or
 *  a batch of prompt requests. */
struct WorkUnit
{
    double wallSeconds = 0.0;
    double cpuSeconds = 0.0;
    /** stolenShare() of the host over the unit. */
    double stolenShare = 0.0;
};

/** Host CPU time in clock ticks, from the first line of /proc/stat. */
struct HostTicks
{
    /** Ticks the hypervisor gave to other guests while a virtual CPU
     *  of this machine was ready to run. */
    uint64_t stolen = 0;
    /** Every tick in which a virtual CPU ran or was ready to run:
     *  user, nice, system, irq, softirq and steal. */
    uint64_t busy = 0;
};

/** The host's tick counters now (zeros when /proc/stat is unreadable). */
HostTicks hostTicks();
/** Share of the busy ticks between @p from and @p to that were stolen
 *  (0 when there were none). */
double stolenShare(const HostTicks &from, const HostTicks &to);
/**
 * Indices of the units measured on the least-stolen host time: every
 * unit whose stolenShare is at most the median over @p units. When
 * nothing was stolen that is every unit.
 */
std::vector<size_t> leastStolen(const std::vector<WorkUnit> &units);
/** Note how many of @p units leastStolen keeps, as "<kind>_kept", and
 *  their median stolen share on the context line; returns the count. */
size_t noteStolen(RunResult &result, const std::vector<WorkUnit> &units,
                  const std::string &kind);

/**
 * End-to-end metrics of one measured window, apart from setup_s and
 * peak_rss_mb: wall_s and cpu_s are medians over @p units, goodput is
 * @p good operations over @p windowSeconds, and the latencies are
 * nearest-rank percentiles of @p latencyMs.
 */
std::map<std::string, double>
windowMetrics(const std::vector<WorkUnit> &units,
              const std::vector<double> &latencyMs, uint64_t good,
              double windowSeconds);

/**
 * Store @p untraced as the run's end-to-end metrics and, for a traced
 * run, the tracing overhead: traced minus untraced for every metric
 * (context note) and the trace.overhead_* per-layer metrics.
 */
void reportWindows(RunResult &result,
                   const std::map<std::string, double> &untraced,
                   const std::map<std::string, double> *traced);

/**
 * engine.kernel_ns_per_device and engine.dispatch_overhead_ratio for a
 * k-of-n bank of Weibull(@p alpha, @p beta) devices: the bank kernel on
 * @p trials banks, then runTrials over the same banks one per trial.
 */
void probeBankKernel(RunResult &result, double alpha, double beta, size_t n,
                     size_t k, uint64_t trials, uint64_t seed);

/** Monotonic clock in nanoseconds. */
uint64_t nowNs();
/** Seconds since @p startNs on the monotonic clock. */
double secondsSince(uint64_t startNs);
/** CPU time consumed by the whole process, in seconds. */
double processCpuSeconds();
/** Peak resident set size of the process, in MB. */
double peakRssMb();
/** Executors the workloads use: hardware threads less one, in [1, 4]. */
unsigned benchThreads();

/** Grow the library's shared engine pool to @p threads executors, so
 *  the measured window creates no threads. */
void warmEnginePool(unsigned threads);

/** Median of @p values (0 when empty). */
double median(std::vector<double> values);
/** Nearest-rank percentile, @p q in (0, 1] (0 when empty). */
double percentile(std::vector<double> values, double q);
/** Mean of @p values (0 when empty). */
double mean(const std::vector<double> &values);

/** Host fingerprint as a JSON object: nproc, SIMD level, compiler,
 *  build type. */
std::string hostFingerprintJson();

/** Quote @p text as a JSON string. */
std::string jsonString(const std::string &text);
/** Format @p value as a JSON number with full precision. */
std::string jsonNumber(double value);

/** Read a whole file; throws std::runtime_error when unreadable. */
std::string readFile(const std::string &path);

/**
 * SplitMix64: the benchmark's own seeded generator for inputs, so the
 * inputs depend only on --seed and not on the library under test.
 */
class InputRng
{
  public:
    explicit InputRng(uint64_t seed) : state(seed) {}
    uint64_t next();
    /** Uniform integer in [0, bound). */
    uint64_t below(uint64_t bound);
    /** Uniform double in [0, 1). */
    double unit();

  private:
    uint64_t state;
};

} // namespace perfbench

#endif // PERFBENCH_COMMON_H_
