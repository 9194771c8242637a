/**
 * @file
 * Low-overhead metrics registry: counters and timers.
 *
 * Every hot path in the library (Monte Carlo trials, device sampling,
 * the design solver, the coding substrates) reports into a global
 * Registry through the LEMONS_OBS_* macros. A macro call site resolves
 * its metric once (a function-local static reference, one registry
 * lookup for the lifetime of the process) and then costs a single
 * relaxed atomic add — cheap enough to leave on in Release builds.
 * Counters are striped per thread, so that add does not contend even
 * where a counter sees every single event of a sampling path
 * (Weibull::sample, BathtubModel::sample, poissonSample) on several
 * executor threads at once.
 *
 * Defining LEMONS_OBS_DISABLED (per translation unit, or build-wide
 * via -DLEMONS_OBS_DISABLE=ON) compiles every macro to nothing, so the
 * instrumentation can be proven free when it matters. The classes
 * below remain available either way; only the macros disappear.
 *
 * Snapshots are name-sorted and JSON-serializable (registry design and
 * schema documented in docs/ARCHITECTURE.md, "Observability").
 */

#ifndef LEMONS_OBS_METRICS_H_
#define LEMONS_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace lemons::obs {

namespace detail {

/**
 * The calling thread's counter shard plus one; 0 until the thread's
 * first add. Constant-initialized, so reading it needs no TLS guard.
 */
inline thread_local uint32_t counterShardSlot = 0;

/** Assign the calling thread its shard (round-robin); returns slot. */
uint32_t assignCounterShard();

} // namespace detail

/**
 * Monotonically increasing event count, striped per thread: add() is
 * one relaxed fetch_add on the calling thread's own cache line, so
 * threads counting the same event do not contend. Each thread takes a
 * shard round-robin on its first add and keeps it for every counter.
 * get() sums the shards; counts are exact, and reads may observe a
 * slightly stale total while writers are active, which is fine for
 * telemetry.
 */
class Counter
{
  public:
    /** Shards per counter; threads beyond this share shards. */
    static constexpr size_t kShards = 16;

    /** Add @p delta events. */
    void add(uint64_t delta = 1)
    {
        uint32_t slot = detail::counterShardSlot;
        if (slot == 0) [[unlikely]]
            slot = detail::assignCounterShard();
        shards[slot - 1].value.fetch_add(delta, std::memory_order_relaxed);
    }

    /** Current count: the sum over all shards. */
    uint64_t get() const
    {
        uint64_t total = 0;
        for (const Shard &shard : shards)
            total += shard.value.load(std::memory_order_relaxed);
        return total;
    }

    /** Reset every shard to zero (between benchmark repetitions). */
    void reset()
    {
        for (Shard &shard : shards)
            shard.value.store(0, std::memory_order_relaxed);
    }

  private:
    /** One cache line per shard: no false sharing between threads. */
    struct alignas(64) Shard
    {
        std::atomic<uint64_t> value{0};
    };
    std::array<Shard, kShards> shards;
};

/**
 * Accumulated wall time of a scoped code region: total nanoseconds and
 * invocation count, both relaxed atomics.
 */
class Timer
{
  public:
    /** Record one invocation lasting @p ns nanoseconds. */
    void record(uint64_t ns)
    {
        totalNanos.fetch_add(ns, std::memory_order_relaxed);
        invocations.fetch_add(1, std::memory_order_relaxed);
    }

    /** Total accumulated nanoseconds. */
    uint64_t totalNs() const
    {
        return totalNanos.load(std::memory_order_relaxed);
    }

    /** Number of recorded invocations. */
    uint64_t count() const
    {
        return invocations.load(std::memory_order_relaxed);
    }

    /** Mean nanoseconds per invocation; 0 when never invoked. */
    double meanNs() const;

    /** Reset both accumulators. */
    void reset()
    {
        totalNanos.store(0, std::memory_order_relaxed);
        invocations.store(0, std::memory_order_relaxed);
    }

  private:
    std::atomic<uint64_t> totalNanos{0};
    std::atomic<uint64_t> invocations{0};
};

/** RAII guard that records its own lifetime into a Timer. */
class ScopedTimer
{
  public:
    explicit ScopedTimer(Timer &target)
        : timer(target), start(std::chrono::steady_clock::now())
    {
    }

    ~ScopedTimer()
    {
        const auto elapsed = std::chrono::steady_clock::now() - start;
        const auto ns =
            std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed)
                .count();
        timer.record(ns < 0 ? 0 : static_cast<uint64_t>(ns));
    }

    ScopedTimer(const ScopedTimer &) = delete;
    ScopedTimer &operator=(const ScopedTimer &) = delete;

  private:
    Timer &timer;
    std::chrono::steady_clock::time_point start;
};

/** Name/value pair of one counter at snapshot time. */
struct CounterSample
{
    std::string name;
    uint64_t value;
};

/** One timer at snapshot time. */
struct TimerSample
{
    std::string name;
    uint64_t count;
    uint64_t totalNs;
};

/** Name-sorted, point-in-time view of a Registry. */
struct Snapshot
{
    std::vector<CounterSample> counters;
    std::vector<TimerSample> timers;

    /**
     * Counters as (name, this.value - base.value), for metrics that
     * only exist in @p base with equal value the entry is dropped.
     * Used by the benchmark harness to report per-run activity.
     */
    std::vector<CounterSample> countersSince(const Snapshot &base) const;

    /** Timers as deltas against @p base (same convention). */
    std::vector<TimerSample> timersSince(const Snapshot &base) const;
};

/**
 * Registry of named metrics. Lookup-or-create is guarded by a mutex;
 * the returned references stay valid for the registry's lifetime, so
 * call sites resolve once and then touch only their own atomics.
 *
 * Names are dotted paths by convention ("sim.mc.trials"); the JSON
 * serialization keeps them flat.
 */
class Registry
{
  public:
    /** The process-wide registry the LEMONS_OBS_* macros use. */
    static Registry &global();

    Registry() = default;
    Registry(const Registry &) = delete;
    Registry &operator=(const Registry &) = delete;

    /** Find or create the counter @p name. */
    Counter &counter(std::string_view name) LEMONS_EXCLUDES(mu);

    /** Find or create the timer @p name. */
    Timer &timer(std::string_view name) LEMONS_EXCLUDES(mu);

    /** Number of registered metrics (counters + timers). */
    size_t size() const LEMONS_EXCLUDES(mu);

    /** Whether a metric of any kind named @p name exists. */
    bool contains(std::string_view name) const LEMONS_EXCLUDES(mu);

    /** Name-sorted copy of every metric's current value. */
    Snapshot snapshot() const LEMONS_EXCLUDES(mu);

    /**
     * Zero every metric (registrations are kept, so cached references
     * at call sites stay valid). Benchmark repetitions use this to
     * start from a clean slate.
     */
    void resetAll() LEMONS_EXCLUDES(mu);

    /**
     * Serialize the registry as a JSON object:
     * {"counters":{name:value},
     *  "timers":{name:{"count":c,"total_ns":t}}}
     */
    std::string toJson() const LEMONS_EXCLUDES(mu);

    /**
     * Serialize the registry in the Prometheus text exposition format
     * (see obs/prometheus.h for the mapping and sanitization rules).
     * Backs lemonsd's GET /metrics endpoint.
     */
    std::string toPrometheus() const LEMONS_EXCLUDES(mu);

  private:
    mutable Mutex mu;
    // std::map: stable addresses are provided by unique_ptr; ordered
    // iteration gives deterministic snapshots and JSON.
    std::map<std::string, std::unique_ptr<Counter>, std::less<>>
        counters LEMONS_GUARDED_BY(mu);
    std::map<std::string, std::unique_ptr<Timer>, std::less<>>
        timers LEMONS_GUARDED_BY(mu);
};

} // namespace lemons::obs

/*
 * Instrumentation macros. Discipline (docs/ARCHITECTURE.md):
 *  - call sites live in .cc files, never in public headers;
 *  - names are compile-time string literals, dotted, lowercase;
 *  - counters for events, timers for regions >= ~1 us (steady_clock
 *    reads are not free);
 *  - counters may sit on per-event sampling paths (Weibull::sample,
 *    BathtubModel::sample, poissonSample count every draw): the add is
 *    uncontended on the thread's own shard. Batched kernels still
 *    count once per batch with the bulk delta.
 */
#if defined(LEMONS_OBS_DISABLED)

#define LEMONS_OBS_COUNT(name, delta) static_cast<void>(0)
#define LEMONS_OBS_INCREMENT(name) static_cast<void>(0)
#define LEMONS_OBS_SCOPED_TIMER(name) static_cast<void>(0)

#else

/** Add @p delta to the counter @p name (string literal). */
#define LEMONS_OBS_COUNT(name, delta)                                      \
    do {                                                                   \
        static ::lemons::obs::Counter &lemonsObsCounter =                  \
            ::lemons::obs::Registry::global().counter(name);               \
        lemonsObsCounter.add(delta);                                       \
    } while (false)

/** Count one event on the counter @p name. */
#define LEMONS_OBS_INCREMENT(name) LEMONS_OBS_COUNT(name, 1)

#define LEMONS_OBS_CONCAT_INNER(a, b) a##b
#define LEMONS_OBS_CONCAT(a, b) LEMONS_OBS_CONCAT_INNER(a, b)

/** Time the rest of the enclosing scope into the timer @p name. */
#define LEMONS_OBS_SCOPED_TIMER(name)                                      \
    static ::lemons::obs::Timer &LEMONS_OBS_CONCAT(lemonsObsTimer,         \
                                                   __LINE__) =             \
        ::lemons::obs::Registry::global().timer(name);                     \
    const ::lemons::obs::ScopedTimer LEMONS_OBS_CONCAT(                    \
        lemonsObsTimerGuard, __LINE__)(                                    \
        LEMONS_OBS_CONCAT(lemonsObsTimer, __LINE__))

#endif // LEMONS_OBS_DISABLED

#endif // LEMONS_OBS_METRICS_H_
