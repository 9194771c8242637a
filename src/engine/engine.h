/**
 * @file
 * Batched, cache-aware Monte Carlo execution engine.
 *
 * One entry point — runTrials — is the execution substrate behind
 * every simulation in the library (sim::MonteCarlo::run delegates
 * here). Trials are processed in contiguous chunks whose boundaries
 * depend only on the chunk size, never on the thread count, and trial
 * i always uses the counter-based stream Rng::trialStream(seed, i)
 * (Philox keyed on (seed, trial, draw)): per-trial results are
 * bit-identical at any parallelism and SIMD dispatch level, and the
 * streaming statistics are merged in chunk order so even the
 * reassociation-sensitive moments are reproducible at any thread
 * count.
 *
 * Execution runs on the persistent ThreadPool (no thread creation
 * after warmup), in waves of chunks; checkpoints, cancellation and
 * deadlines act only at wave boundaries.
 */

#ifndef LEMONS_ENGINE_ENGINE_H_
#define LEMONS_ENGINE_ENGINE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "util/rng.h"
#include "util/stats.h"

namespace lemons::engine {

/** Chunk size used when McRunOptions::chunkSize is 0. */
constexpr uint64_t kDefaultChunkSize = 1024;

/** Checkpoint period used when McRunOptions::checkpointEveryChunks is
 *  0, and the interrupt-poll granularity when only cancellation or a
 *  deadline asks for wave boundaries. */
constexpr uint64_t kDefaultCheckpointChunks = 8;

/**
 * Cooperative cancellation flag shared between a run and its owner.
 * cancel() may be called from any thread (a signal-adjacent watchdog,
 * a server shutdown path); the engine observes it at wave boundaries,
 * finishes the in-flight wave, and returns a partial TrialReport
 * flagged InterruptReason::Cancelled. Cancellation never tears state:
 * every chunk either fully ran or never started, so a checkpoint taken
 * at the preceding boundary resumes bit-identically.
 */
class CancelToken
{
  public:
    /** Request cancellation (idempotent, thread-safe). */
    void cancel() { flag.store(true, std::memory_order_release); }

    /** Whether cancellation has been requested. */
    bool cancelled() const
    {
        return flag.load(std::memory_order_acquire);
    }

  private:
    std::atomic<bool> flag{false};
};

/** Why a run returned before executing its requested trials. */
enum class InterruptReason {
    None,             ///< ran to completion
    Cancelled,        ///< CancelToken fired
    DeadlineExceeded, ///< wall-clock deadline passed
};

/**
 * Wave-boundary snapshot of a run's resumable state. Everything a
 * bit-identical continuation needs is here: the RNG "position" is just
 * (seed, executedChunks) because trial i always draws from
 * Rng::trialStream(seed, i), and the streaming statistics carry the exact
 * chunk-ordered merge prefix. Consumed by lemons::fleet checkpoints
 * (and later by lemonsd request draining).
 */
struct EngineCheckpoint
{
    /** Seed the run was started with. */
    uint64_t seed = 0;
    /** Trials the run was asked for. */
    uint64_t requestedTrials = 0;
    /** Resolved chunk size (boundaries depend on it). */
    uint64_t chunkSize = 0;
    /** Chunks fully executed and merged, in chunk order. */
    uint64_t executedChunks = 0;
    /** Chunk-ordered streaming statistics over executed chunks. */
    RunningStats streaming;
    /** Capture-mode failure log so far: (trial, what()), ascending. */
    std::vector<std::pair<uint64_t, std::string>> failures;
    /** Trials that returned non-finite samples so far, ascending. */
    std::vector<uint64_t> nonFiniteTrials;
};

/**
 * Called at checkpoint boundaries with the resumable state. The hook
 * runs on the driving thread between waves (never concurrently with
 * trial execution), so it may do IO; keep it fast anyway — the run is
 * stalled while it executes.
 */
using CheckpointHook = std::function<void(const EngineCheckpoint &)>;

/** What to do with trials whose metric throws. */
enum class FaultPolicy {
    /** Record the trial in the report (NaN sample) and keep going. */
    Capture,
    /**
     * Finish in-flight chunks, then rethrow the exception of the
     * lowest-indexed failing trial on the caller — deterministic at
     * any thread count.
     */
    Rethrow,
};

/**
 * One options struct instead of an overload family: every knob of a
 * Monte Carlo run in a single place, with zero-means-default
 * semantics so call sites only spell what they change.
 */
struct McRunOptions
{
    /** Trial count; 0 = the caller's configured default. */
    uint64_t trials = 0;
    /** Executor count; 1 = inline on the caller, 0 = all hardware. */
    unsigned threads = 1;
    /** Trials per chunk; 0 = kDefaultChunkSize. Chunking changes only
     *  scheduling granularity and streaming-merge order — per-trial
     *  samples are bit-identical for any value. */
    uint64_t chunkSize = 0;
    /** Keep every sample (O(trials) memory, quantile-ready) or stream
     *  statistics only (constant memory). */
    bool keepSamples = true;
    /** Throwing-trial handling. */
    FaultPolicy faults = FaultPolicy::Capture;

    /**
     * Cooperative cancellation. Checked at wave boundaries; when it
     * fires the run returns a partial report (interrupt ==
     * Cancelled). Not owned; must outlive the run. May be null.
     */
    const CancelToken *cancel = nullptr;

    /**
     * Wall-clock deadline. Checked at wave boundaries; once passed the
     * run returns a partial report (interrupt == DeadlineExceeded).
     * Deadlines are a robustness device, not a determinism one — where
     * the run stops depends on machine speed, which is why resumable
     * checkpoints exist.
     */
    std::optional<std::chrono::steady_clock::time_point> deadline;

    /**
     * Invoked every checkpointEveryChunks executed chunks (and never
     * mid-wave) with the resumable state. Null disables checkpointing.
     */
    CheckpointHook checkpoint;

    /** Chunks between checkpoint-hook invocations; 0 = every 8. */
    uint64_t checkpointEveryChunks = 0;

    /**
     * Resume a previous run from its checkpoint instead of starting at
     * chunk 0. The checkpoint's seed/trials/chunkSize must match this
     * call's, and resuming requires keepSamples == false (streaming
     * statistics are the resumable representation). A resumed run is
     * bit-identical to the uninterrupted one at any thread count. Not
     * owned; must outlive the call. May be null.
     */
    const EngineCheckpoint *resumeFrom = nullptr;
};

/**
 * Outcome of a Monte Carlo run. One bad trial out of a million yields
 * a degraded-but-complete report instead of a crash: throwing trials
 * are recorded (index + first error message) and non-finite samples
 * are quarantined rather than poisoning the aggregate statistics.
 */
struct TrialReport
{
    /**
     * One sample per executed trial, in trial order (empty when the
     * run streamed with keepSamples = false). Failed (throwing) trials
     * hold NaN; quarantined trials hold the non-finite value the
     * metric actually returned.
     */
    std::vector<double> samples;

    /** Indices of trials whose metric threw, ascending. */
    std::vector<uint64_t> failedTrials;

    /** Indices of trials whose metric returned NaN/Inf, ascending. */
    std::vector<uint64_t> nonFiniteTrials;

    /**
     * what() of the exception from the lowest-indexed failed trial
     * (deterministic regardless of thread interleaving); empty when no
     * trial failed.
     */
    std::string firstError;

    /** Streaming statistics over clean (finite, non-throwing) samples. */
    RunningStats stats;

    /** Trials actually executed (== requestedTrials unless stopped). */
    uint64_t trials = 0;

    /** Trials the run was asked for. */
    uint64_t requestedTrials = 0;

    /** Why the run returned before its requested trials, if it did. */
    InterruptReason interrupt = InterruptReason::None;

    /** Whether cancellation or a deadline cut the run short. */
    bool interrupted() const
    {
        return interrupt != InterruptReason::None;
    }

    /** Whether every executed trial produced a clean sample. */
    bool complete() const
    {
        return failedTrials.empty() && nonFiniteTrials.empty();
    }

    /** Executed trials that produced a clean sample. */
    uint64_t cleanTrials() const
    {
        return trials - failedTrials.size() - nonFiniteTrials.size();
    }
};

/** Per-trial metric: (trial's own Rng, trial index) -> sample. */
using TrialMetric = std::function<double(Rng &, uint64_t)>;

/**
 * Run @p metric for trials [0, options.trials) with trial i on the
 * counter-based stream Rng::trialStream(@p seed, i), under the
 * execution policy in @p options.
 * @pre options.trials > 0 (callers resolve their own defaults).
 */
TrialReport runTrials(uint64_t seed, const McRunOptions &options,
                      const TrialMetric &metric);

} // namespace lemons::engine

#endif // LEMONS_ENGINE_ENGINE_H_
