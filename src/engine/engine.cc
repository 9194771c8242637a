#include "engine/engine.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <exception>
#include <limits>
#include <stdexcept>
#include <thread>
#include <utility>

#include "engine/thread_pool.h"
#include "obs/metrics.h"
#include "util/math.h"
#include "util/mutex.h"
#include "util/require.h"
#include "util/thread_annotations.h"

namespace lemons::engine {

namespace {

/**
 * Lock-protected "lowest-indexed failure wins" cell shared by the
 * chunk executors in rethrow mode. Keeping only the minimum under the
 * lock makes the rethrown exception deterministic at any thread count.
 */
class FirstErrorCell
{
  public:
    explicit FirstErrorCell(uint64_t sentinel) : trial(sentinel) {}

    /** Record trial @p i's exception if it is the earliest so far. */
    void record(uint64_t i, std::exception_ptr e) LEMONS_EXCLUDES(mu)
    {
        const MutexLock lock(mu);
        if (i < trial) {
            trial = i;
            error = std::move(e);
        }
    }

    /** The winning exception, or null when no trial failed. */
    std::exception_ptr take() const LEMONS_EXCLUDES(mu)
    {
        const MutexLock lock(mu);
        return error;
    }

  private:
    mutable Mutex mu;
    uint64_t trial LEMONS_GUARDED_BY(mu);
    std::exception_ptr error LEMONS_GUARDED_BY(mu);
};

/**
 * Shared failure/quarantine log for capture mode. Executors append
 * under the lock; the driver sorts by trial index after the run so the
 * report is deterministic regardless of interleaving.
 */
class ReportCollector
{
  public:
    /** Record that trial @p i threw with message @p what. */
    void recordFailure(uint64_t i, std::string what) LEMONS_EXCLUDES(mu)
    {
        const MutexLock lock(mu);
        failures.emplace_back(i, std::move(what));
    }

    /** Record that trial @p i returned a non-finite sample. */
    void recordNonFinite(uint64_t i) LEMONS_EXCLUDES(mu)
    {
        const MutexLock lock(mu);
        nonFinite.push_back(i);
    }

    /** Move the sorted logs into @p report (call after the run). */
    void drainInto(TrialReport &report) LEMONS_EXCLUDES(mu)
    {
        const MutexLock lock(mu);
        std::sort(failures.begin(), failures.end());
        std::sort(nonFinite.begin(), nonFinite.end());
        report.failedTrials.reserve(failures.size());
        for (const auto &[trial, message] : failures)
            report.failedTrials.push_back(trial);
        if (!failures.empty())
            report.firstError = failures.front().second;
        report.nonFiniteTrials = std::move(nonFinite);
    }

    /** Sorted copies of both logs into @p checkpoint (wave boundary:
     *  no executors are running, but take the lock anyway). */
    void snapshotInto(EngineCheckpoint &checkpoint) LEMONS_EXCLUDES(mu)
    {
        const MutexLock lock(mu);
        checkpoint.failures = failures;
        checkpoint.nonFiniteTrials = nonFinite;
        std::sort(checkpoint.failures.begin(), checkpoint.failures.end());
        std::sort(checkpoint.nonFiniteTrials.begin(),
                  checkpoint.nonFiniteTrials.end());
    }

    /** Seed both logs from a checkpoint before a resumed run. */
    void restoreFrom(const EngineCheckpoint &checkpoint)
        LEMONS_EXCLUDES(mu)
    {
        const MutexLock lock(mu);
        failures = checkpoint.failures;
        nonFinite = checkpoint.nonFiniteTrials;
    }

  private:
    Mutex mu;
    std::vector<std::pair<uint64_t, std::string>>
        failures LEMONS_GUARDED_BY(mu);
    std::vector<uint64_t> nonFinite LEMONS_GUARDED_BY(mu);
};

/** Lower @p cell to @p chunk if it is smaller (atomic fetch-min). */
void
lowerToChunk(std::atomic<uint64_t> &cell, uint64_t chunk)
{
    uint64_t seen = cell.load(std::memory_order_relaxed);
    while (chunk < seen &&
           !cell.compare_exchange_weak(seen, chunk,
                                       std::memory_order_acq_rel)) {
    }
}

unsigned
resolveThreads(unsigned requested, uint64_t chunkCount)
{
    if (requested == 0)
        requested = std::max(1u, std::thread::hardware_concurrency());
    // More executors than chunks would only idle.
    return static_cast<unsigned>(
        std::min<uint64_t>(requested, chunkCount));
}

} // namespace

TrialReport
runTrials(uint64_t seed, const McRunOptions &options,
          const TrialMetric &metric)
{
    requireArg(options.trials > 0,
               "engine::runTrials: need at least one trial");
    LEMONS_OBS_SCOPED_TIMER("sim.mc.run");

    const uint64_t trials = options.trials;
    const uint64_t chunkSize =
        options.chunkSize != 0 ? options.chunkSize : kDefaultChunkSize;
    const uint64_t chunkCount = ceilDiv(trials, chunkSize);
    const unsigned threads = resolveThreads(options.threads, chunkCount);
    const bool rethrow = options.faults == FaultPolicy::Rethrow;
    const double nan = std::numeric_limits<double>::quiet_NaN();

    if (options.resumeFrom != nullptr) {
        const EngineCheckpoint &resume = *options.resumeFrom;
        requireArg(!options.keepSamples,
                   "engine::runTrials: resuming requires keepSamples == "
                   "false (streaming statistics are the resumable "
                   "representation)");
        requireArg(resume.seed == seed &&
                       resume.requestedTrials == trials &&
                       resume.chunkSize == chunkSize,
                   "engine::runTrials: checkpoint does not belong to "
                   "this run (seed/trials/chunkSize mismatch)");
        requireArg(resume.executedChunks <= chunkCount,
                   "engine::runTrials: checkpoint cursor beyond the "
                   "chunk count");
    }

    TrialReport report;
    report.requestedTrials = trials;
    if (options.keepSamples)
        report.samples.assign(trials, nan);

    // Per-chunk partial statistics, merged in chunk order after each
    // wave: the merge sequence (hence the floating-point rounding) is
    // a function of the chunk layout alone, never the thread count.
    std::vector<RunningStats> chunkStats(chunkCount);
    ReportCollector collector;
    FirstErrorCell firstError(trials);
    std::atomic<uint64_t> firstFailingChunk{chunkCount};

    const auto runChunk = [&](uint64_t c) {
        // In rethrow mode chunks strictly after the earliest failing
        // chunk are dead work — their results get discarded when the
        // failure is rethrown — so skip them. Chunks at or before it
        // still run, which keeps the winning (lowest-indexed) failure
        // deterministic at any thread count.
        if (rethrow &&
            c > firstFailingChunk.load(std::memory_order_acquire))
            return;
        const uint64_t begin = c * chunkSize;
        const uint64_t end = std::min(trials, begin + chunkSize);
        RunningStats &local = chunkStats[c];
        for (uint64_t i = begin; i < end; ++i) {
            // The definitional trial stream: Philox keyed on
            // (seed, i, draw), so trial i's randomness is a pure
            // function of (seed, i) — independent of threads, chunks,
            // SIMD dispatch and resume cursors.
            Rng rng = Rng::trialStream(seed, i);
            try {
                const double sample = metric(rng, i);
                // Any non-finite RETURN is quarantined; a throwing
                // trial instead keeps its NaN placeholder and is
                // recorded as failed, never as quarantined.
                if (!std::isfinite(sample))
                    collector.recordNonFinite(i);
                if (options.keepSamples)
                    report.samples[i] = sample;
                local.add(sample); // RunningStats skips non-finite
            } catch (const std::exception &e) {
                if (rethrow) {
                    firstError.record(i, std::current_exception());
                    lowerToChunk(firstFailingChunk, c);
                    return; // abandon the chunk, like the legacy worker
                }
                collector.recordFailure(i, e.what());
            } catch (...) {
                if (rethrow) {
                    firstError.record(i, std::current_exception());
                    lowerToChunk(firstFailingChunk, c);
                    return;
                }
                collector.recordFailure(i, "unknown exception");
            }
        }
    };

    ThreadPool &pool = ThreadPool::global();
    RunningStats streaming;
    uint64_t executedChunks = 0;
    InterruptReason interrupt = InterruptReason::None;

    // Waves end at multiples of the checkpoint period, so every
    // checkpoint lands on an actual boundary.
    const uint64_t checkpointEvery =
        options.checkpoint ? (options.checkpointEveryChunks != 0
                                  ? options.checkpointEveryChunks
                                  : kDefaultCheckpointChunks)
                           : 0;
    uint64_t wave = checkpointEvery;
    if (wave == 0 &&
        (options.cancel != nullptr || options.deadline.has_value()))
        wave = kDefaultCheckpointChunks; // interrupt-poll granularity
    if (wave == 0)
        wave = chunkCount; // one uninterrupted wave

    if (options.resumeFrom != nullptr) {
        executedChunks = options.resumeFrom->executedChunks;
        streaming = options.resumeFrom->streaming;
        collector.restoreFrom(*options.resumeFrom);
        LEMONS_OBS_INCREMENT("sim.mc.resumes");
    }

    const auto takeCheckpoint = [&] {
        EngineCheckpoint snapshot;
        snapshot.seed = seed;
        snapshot.requestedTrials = trials;
        snapshot.chunkSize = chunkSize;
        snapshot.executedChunks = executedChunks;
        snapshot.streaming = streaming;
        collector.snapshotInto(snapshot);
        LEMONS_OBS_INCREMENT("sim.mc.checkpoints");
        options.checkpoint(snapshot);
    };

    while (executedChunks < chunkCount) {
        // Interrupt checks happen before dispatching a wave: a run
        // whose token is already cancelled (or whose deadline already
        // passed) does no further trial work.
        if (options.cancel != nullptr && options.cancel->cancelled()) {
            interrupt = InterruptReason::Cancelled;
            LEMONS_OBS_INCREMENT("sim.mc.cancelled");
        } else if (options.deadline.has_value() &&
                   // LEMONS-TIDY-ALLOW(T002): wall-clock deadline gate;
                   // never feeds trial state
                   std::chrono::steady_clock::now() >=
                       *options.deadline) {
            interrupt = InterruptReason::DeadlineExceeded;
            LEMONS_OBS_INCREMENT("sim.mc.deadline_exceeded");
        }
        if (interrupt != InterruptReason::None) {
            // Persist the freshest resumable state so the owner loses
            // at most the not-yet-run wave, then stop cleanly.
            if (options.checkpoint)
                takeCheckpoint();
            break;
        }

        const uint64_t waveBase = executedChunks;
        const uint64_t waveEnd =
            std::min(chunkCount, waveBase + wave);
        pool.parallelFor(waveEnd - waveBase, threads,
                         [&runChunk, waveBase](uint64_t offset) {
                             runChunk(waveBase + offset);
                         });
        for (uint64_t c = waveBase; c < waveEnd; ++c)
            streaming.merge(chunkStats[c]);
        executedChunks = waveEnd;
        LEMONS_OBS_COUNT("sim.mc.chunks", waveEnd - waveBase);

        if (rethrow && firstError.take())
            break; // rethrown below, after bookkeeping
        if (checkpointEvery != 0 &&
            executedChunks % checkpointEvery == 0)
            takeCheckpoint();
    }

    const uint64_t trialsRun =
        std::min(trials, executedChunks * chunkSize);
    report.trials = trialsRun;
    report.interrupt = interrupt;
    LEMONS_OBS_COUNT("sim.mc.trials", trialsRun);

    if (std::exception_ptr error = firstError.take())
        std::rethrow_exception(error);

    if (options.keepSamples) {
        if (trialsRun < trials)
            report.samples.resize(trialsRun);
        // Trial-order accumulation over the kept samples: bit-identical
        // to the legacy serial fold (RunningStats quarantines the NaN
        // placeholders of failed trials itself).
        for (double sample : report.samples)
            report.stats.add(sample);
    } else {
        report.stats = streaming;
    }

    collector.drainInto(report);
    LEMONS_OBS_COUNT("sim.mc.failed_trials", report.failedTrials.size());
    LEMONS_OBS_COUNT("sim.mc.quarantined_trials",
                     report.nonFiniteTrials.size());
    return report;
}

} // namespace lemons::engine
