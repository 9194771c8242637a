/**
 * @file
 * Unit tests for the lemons::engine execution substrate: the
 * persistent thread pool (no thread creation after warmup), the
 * batched trial kernels (bit-equal to the per-device sampling path),
 * and the chunked runTrials driver (chunk-size invariance,
 * streaming/keepSamples agreement, interrupts and resume).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <thread>
#include <vector>

#include "arch/structures.h"
#include "arch/structures_sim.h"
#include "engine/batch.h"
#include "engine/engine.h"
#include "engine/thread_pool.h"
#include "obs/metrics.h"
#include "util/rng.h"
#include "util/simd.h"
#include "wearout/weibull.h"

namespace lemons::engine {
namespace {

double
uniformMetric(Rng &rng, uint64_t)
{
    return rng.nextDouble();
}

TEST(ThreadPool, NoThreadCreationAfterWarmup)
{
    ThreadPool &pool = ThreadPool::global();
    obs::Counter &created =
        obs::Registry::global().counter("sim.mc.pool.threads_created");

    // Warmup: force the pool to the worker count the rest of the test
    // needs.
    pool.parallelFor(64, 8, [](uint64_t) {});
    EXPECT_GE(pool.workerCount(), 7u);

    const uint64_t createdAfterWarmup = created.get();
    for (int round = 0; round < 50; ++round)
        pool.parallelFor(32, 8, [](uint64_t) {});
    const McRunOptions options{
        .trials = 500, .threads = 8, .chunkSize = 16};
    static_cast<void>(runTrials(1, options, uniformMetric));
    EXPECT_EQ(created.get(), createdAfterWarmup)
        << "pooled execution must reuse warm workers";
}

TEST(ThreadPool, InlineRunsForSingleParallelism)
{
    obs::Counter &created =
        obs::Registry::global().counter("sim.mc.pool.threads_created");
    obs::Counter &inlineRuns =
        obs::Registry::global().counter("sim.mc.pool.inline_runs");
    const uint64_t createdBefore = created.get();
    const uint64_t inlineBefore = inlineRuns.get();
    uint64_t sum = 0;
    ThreadPool::global().parallelFor(100, 1,
                                     [&sum](uint64_t i) { sum += i; });
    EXPECT_EQ(sum, 4950u);
    EXPECT_EQ(created.get(), createdBefore);
    EXPECT_EQ(inlineRuns.get(), inlineBefore + 1);
}

TEST(ThreadPool, CoversEveryIndexExactlyOnce)
{
    std::vector<std::atomic<uint32_t>> touched(1000);
    ThreadPool::global().parallelFor(
        touched.size(), 8, [&touched](uint64_t i) {
            touched[i].fetch_add(1, std::memory_order_relaxed);
        });
    for (size_t i = 0; i < touched.size(); ++i)
        EXPECT_EQ(touched[i].load(), 1u) << "index " << i;
}

TEST(BatchKernel, ParallelSurvivalBitEqualToPerDevicePath)
{
    // The u-select kernel must consume the same uniform stream and
    // return the same order statistic as per-device sampling.
    const wearout::Weibull model(14.0, 8.0);
    const struct
    {
        size_t n, k;
    } points[] = {{1, 1},     {40, 1},     {60, 30},  {175, 18},
                  {175, 175}, {1000, 100}, {1000, 900}};
    for (const auto &point : points) {
        Rng kernelRng(9000);
        Rng referenceRng(9000);
        const arch::LifetimeSampler sampler = [&model](Rng &r) {
            return model.sample(r);
        };
        for (int trial = 0; trial < 50; ++trial) {
            const uint64_t got = sampleParallelBankSurvival(
                model, point.n, point.k, kernelRng);
            const uint64_t want = arch::sampleParallelSurvivedAccesses(
                sampler, point.n, point.k, referenceRng);
            ASSERT_EQ(got, want) << "n=" << point.n << " k=" << point.k
                                 << " trial=" << trial;
        }
    }
}

TEST(BatchKernel, SeriesSurvivalBitEqualToMinLoop)
{
    const wearout::Weibull model(10.0, 6.0);
    Rng kernelRng(77);
    Rng referenceRng(77);
    for (int trial = 0; trial < 200; ++trial) {
        const uint64_t got = sampleSeriesBankSurvival(model, 12, kernelRng);
        double minLifetime = std::numeric_limits<double>::infinity();
        for (int i = 0; i < 12; ++i)
            minLifetime = std::min(minLifetime, model.sample(referenceRng));
        EXPECT_EQ(got, floorToAccesses(minLifetime)) << trial;
    }
}

TEST(BatchKernel, FloorToAccessesRejectsNan)
{
    EXPECT_EQ(floorToAccesses(3.9), 3u);
    EXPECT_EQ(floorToAccesses(-1.0), 0u);
    EXPECT_THROW(floorToAccesses(std::numeric_limits<double>::quiet_NaN()),
                 std::invalid_argument);
}

TEST(BatchKernel, ManyFillsInTrialOrder)
{
    const wearout::Weibull model(14.0, 8.0);
    Rng batchRng(5);
    Rng loopRng(5);
    uint64_t batch[32];
    sampleParallelBankSurvivalMany(model, 20, 3, batchRng, batch, 32);
    for (uint64_t &value : batch) {
        const uint64_t want =
            sampleParallelBankSurvival(model, 20, 3, loopRng);
        EXPECT_EQ(value, want);
        static_cast<void>(value);
    }
}

TEST(BatchKernel, SimdAndScalarKernelsBitIdentical)
{
    // The AVX2 fill/extremum paths mirror the scalar code op-for-op,
    // so forcing either dispatch tier over counter-mode trial streams
    // must yield identical survival counts and identical post-call
    // stream positions.
    if (simd::detectedLevel() == simd::Level::Scalar)
        GTEST_SKIP() << "host has no AVX2; scalar-vs-scalar is vacuous";
    const wearout::Weibull model(9.3, 12.0);
    const struct
    {
        size_t n, k;
    } points[] = {{1, 1},    {40, 1},  {60, 30},
                  {175, 175}, {512, 7}, {1000, 100}};
    for (const auto &point : points) {
        for (uint64_t trial = 0; trial < 16; ++trial) {
            Rng vectorRng = Rng::trialStream(20170624, trial);
            Rng scalarRng = Rng::trialStream(20170624, trial);
            simd::setLevelForTesting(simd::Level::Avx2);
            const uint64_t parallelVec = sampleParallelBankSurvival(
                model, point.n, point.k, vectorRng);
            const uint64_t seriesVec =
                sampleSeriesBankSurvival(model, point.n, vectorRng);
            const uint64_t tailVec = vectorRng.next();
            simd::setLevelForTesting(simd::Level::Scalar);
            const uint64_t parallelScalar = sampleParallelBankSurvival(
                model, point.n, point.k, scalarRng);
            const uint64_t seriesScalar =
                sampleSeriesBankSurvival(model, point.n, scalarRng);
            const uint64_t tailScalar = scalarRng.next();
            simd::clearLevelForTesting();
            ASSERT_EQ(parallelVec, parallelScalar)
                << "n=" << point.n << " k=" << point.k
                << " trial=" << trial;
            ASSERT_EQ(seriesVec, seriesScalar)
                << "n=" << point.n << " trial=" << trial;
            ASSERT_EQ(tailVec, tailScalar)
                << "stream position diverged: n=" << point.n
                << " trial=" << trial;
        }
    }
}

/**
 * selectKthSmallestUniform against nth_element over the whole array:
 * the same value, and the nth_element post-condition (the k smallest
 * in front, the k-th at k - 1). Returns false after the first
 * mismatch so a caller can stop.
 */
bool
expectSelectsLikeNthElement(std::vector<double> values, size_t k,
                            const char *label)
{
    std::vector<double> reference = values;
    std::nth_element(reference.begin(),
                     reference.begin() + static_cast<std::ptrdiff_t>(k - 1),
                     reference.end());
    const double want = reference[k - 1];
    const double got =
        selectKthSmallestUniform(values.data(), values.size(), k);
    const size_t n = values.size();
    EXPECT_EQ(std::bit_cast<uint64_t>(got), std::bit_cast<uint64_t>(want))
        << label << " n=" << n << " k=" << k;
    if (k < n) {
        EXPECT_EQ(values[k - 1], want) << label << " n=" << n << " k=" << k;
        std::vector<double> front(values.begin(),
                                  values.begin() +
                                      static_cast<std::ptrdiff_t>(k));
        std::vector<double> smallest = reference;
        std::sort(front.begin(), front.end());
        std::sort(smallest.begin(), smallest.end());
        smallest.resize(k);
        EXPECT_EQ(front, smallest)
            << label << ": the k smallest must end up in front, n=" << n
            << " k=" << k;
    }
    // Every value is kept: the array is a permutation of its input.
    std::sort(values.begin(), values.end());
    std::sort(reference.begin(), reference.end());
    EXPECT_EQ(values, reference) << label << " n=" << n << " k=" << k;
    return !::testing::Test::HasFailure();
}

TEST(SelectUniform, MatchesNthElementOnUniformBanks)
{
    // n on both sides of the small-bank cutoff and of the point where
    // the predicted side would cover half the bank; k from both ends.
    Rng rng(4242);
    for (size_t n : {size_t{2}, size_t{63}, size_t{64}, size_t{65},
                     size_t{175}, size_t{1000}}) {
        for (size_t k : {size_t{1}, size_t{2}, n / 10 + 1, n / 2,
                         n / 2 + 1, n - n / 10, n - 1, n}) {
            if (k < 1 || k > n)
                continue;
            for (int trial = 0; trial < 20; ++trial) {
                std::vector<double> values(n);
                rng.fillUniformOpenLow(values.data(), n);
                ASSERT_TRUE(expectSelectsLikeNthElement(values, k, "uniform"));
            }
        }
    }
}

TEST(SelectUniform, SelectsOnTheFarSideWhenThePivotMisses)
{
    // Pivot for n = 1000, k = 100 lies near 0.144, for k = 900 near
    // 0.855. A bank with no value at or below the low pivot (or none
    // above the high one) puts rank k on the far side.
    const size_t n = 1000;
    std::vector<double> high(n);
    std::vector<double> low(n);
    for (size_t i = 0; i < n; ++i) {
        high[i] = 0.5 + 0.5 * static_cast<double>((i * 7919) % n) /
                            static_cast<double>(n);
        low[i] = 0.5 * static_cast<double>((i * 7919) % n + 1) /
                 static_cast<double>(n);
    }
    EXPECT_TRUE(expectSelectsLikeNthElement(high, 100, "all above pivot"));
    EXPECT_TRUE(expectSelectsLikeNthElement(low, 900, "all below pivot"));
    // A near side that holds some values, but fewer than k.
    std::vector<double> sparse = high;
    for (size_t i = 0; i < 50; ++i)
        sparse[i * 20] = 0.001 * static_cast<double>(i + 1);
    EXPECT_TRUE(expectSelectsLikeNthElement(sparse, 100, "sparse near side"));
}

TEST(SelectUniform, HandlesValuesEqualToThePivotAndDuplicates)
{
    // The n = 1000, k = 100 pivot, computed as the routine does.
    const size_t n = 1000;
    const double rank = 100.0;
    const double pivot =
        (rank + 4.0 * std::sqrt(rank) + 4.0) / static_cast<double>(n);
    Rng rng(99);
    std::vector<double> atPivot(n);
    rng.fillUniformOpenLow(atPivot.data(), n);
    for (size_t i = 0; i < n; i += 3)
        atPivot[i] = pivot;
    for (size_t k : {size_t{2}, size_t{100}, size_t{400}, size_t{900}})
        EXPECT_TRUE(expectSelectsLikeNthElement(atPivot, k, "at pivot"));

    // Few distinct values, many repeats of each.
    std::vector<double> duplicates(n);
    for (size_t i = 0; i < n; ++i)
        duplicates[i] = 0.05 * static_cast<double>(1 + (i * 31) % 20);
    for (size_t k : {size_t{2}, size_t{100}, size_t{500}, size_t{900},
                     size_t{999}})
        EXPECT_TRUE(expectSelectsLikeNthElement(duplicates, k, "duplicates"));

    // Every value the same.
    const std::vector<double> constant(n, 0.25);
    for (size_t k : {size_t{2}, size_t{100}, size_t{900}})
        EXPECT_TRUE(expectSelectsLikeNthElement(constant, k, "constant"));
}

TEST(RunTrials, ChunkSizeDoesNotChangeSamples)
{
    const auto metric = [](Rng &rng, uint64_t) {
        double acc = 0.0;
        for (int i = 0; i < 4; ++i)
            acc += rng.nextDouble();
        return acc;
    };
    const McRunOptions reference{.trials = 333};
    const std::vector<double> want =
        runTrials(1234, reference, metric).samples;
    for (uint64_t chunk : {uint64_t{1}, uint64_t{7}, uint64_t{64},
                           uint64_t{4096}}) {
        const McRunOptions options{
            .trials = 333, .threads = 4, .chunkSize = chunk};
        const std::vector<double> got =
            runTrials(1234, options, metric).samples;
        ASSERT_EQ(got.size(), want.size()) << "chunk=" << chunk;
        for (size_t i = 0; i < want.size(); ++i)
            ASSERT_EQ(std::bit_cast<uint64_t>(got[i]),
                      std::bit_cast<uint64_t>(want[i]))
                << "chunk=" << chunk << " trial=" << i;
    }
}

TEST(RunTrials, RunsEveryRequestedTrial)
{
    const McRunOptions options{.trials = 5000, .threads = 4};
    const TrialReport report = runTrials(7, options, uniformMetric);
    EXPECT_EQ(report.trials, 5000u);
    EXPECT_EQ(report.requestedTrials, 5000u);
    EXPECT_EQ(report.samples.size(), 5000u);
}

TEST(RunTrials, StreamingAgreesWithKeptSamples)
{
    const McRunOptions kept{.trials = 4001, .threads = 4, .chunkSize = 64};
    McRunOptions streaming = kept;
    streaming.keepSamples = false;
    const TrialReport a = runTrials(31, kept, uniformMetric);
    const TrialReport b = runTrials(31, streaming, uniformMetric);
    EXPECT_TRUE(b.samples.empty());
    EXPECT_EQ(a.stats.count(), b.stats.count());
    EXPECT_EQ(a.stats.min(), b.stats.min());
    EXPECT_EQ(a.stats.max(), b.stats.max());
    EXPECT_NEAR(a.stats.mean(), b.stats.mean(),
                1e-12 * std::abs(a.stats.mean()));
    EXPECT_NEAR(a.stats.variance(), b.stats.variance(),
                1e-9 * a.stats.variance());
}

TEST(RunTrials, RejectsZeroTrials)
{
    EXPECT_THROW(
        static_cast<void>(runTrials(1, McRunOptions{}, uniformMetric)),
        std::invalid_argument);
}

TEST(RunTrials, PreCancelledTokenReturnsEmptyPartialReport)
{
    CancelToken token;
    token.cancel();
    McRunOptions options;
    options.trials = 10000;
    options.keepSamples = false;
    options.cancel = &token;
    const TrialReport report = runTrials(7, options, uniformMetric);
    EXPECT_EQ(report.interrupt, InterruptReason::Cancelled);
    EXPECT_TRUE(report.interrupted());
    EXPECT_EQ(report.trials, 0u);
    EXPECT_EQ(report.requestedTrials, 10000u);
}

TEST(RunTrials, ExpiredDeadlineReturnsPartialReport)
{
    McRunOptions options;
    options.trials = 10000;
    options.keepSamples = false;
    options.deadline = std::chrono::steady_clock::now() -
                       std::chrono::milliseconds(1);
    const TrialReport report = runTrials(7, options, uniformMetric);
    EXPECT_EQ(report.interrupt, InterruptReason::DeadlineExceeded);
    EXPECT_EQ(report.trials, 0u);
}

TEST(RunTrials, CancellationWithoutHookLeavesPrefixStats)
{
    // A token cancelled from the checkpoint hook fires at the *next*
    // wave boundary, so the partial report is an exact prefix.
    CancelToken token;
    McRunOptions options;
    options.trials = 4096;
    options.chunkSize = 64;
    options.keepSamples = false;
    options.cancel = &token;
    options.checkpointEveryChunks = 8;
    options.checkpoint = [&](const EngineCheckpoint &) {
        token.cancel();
    };
    const TrialReport partial = runTrials(11, options, uniformMetric);
    EXPECT_EQ(partial.interrupt, InterruptReason::Cancelled);
    ASSERT_GT(partial.trials, 0u);
    ASSERT_LT(partial.trials, 4096u);

    // The partial stats must be bit-equal to an uninterrupted run
    // truncated to the same trial count.
    McRunOptions prefix;
    prefix.trials = partial.trials;
    prefix.chunkSize = 64;
    prefix.keepSamples = false;
    const TrialReport reference = runTrials(11, prefix, uniformMetric);
    EXPECT_EQ(std::bit_cast<uint64_t>(partial.stats.mean()),
              std::bit_cast<uint64_t>(reference.stats.mean()));
    EXPECT_EQ(partial.stats.count(), reference.stats.count());
}

TEST(RunTrials, CheckpointResumeIsBitIdenticalAtAnyThreadCount)
{
    constexpr uint64_t kTrials = 8192;
    McRunOptions full;
    full.trials = kTrials;
    full.chunkSize = 64;
    full.keepSamples = false;
    const TrialReport reference = runTrials(99, full, uniformMetric);

    // Capture every checkpoint of a single-threaded run.
    std::vector<EngineCheckpoint> checkpoints;
    McRunOptions recording = full;
    recording.checkpointEveryChunks = 16;
    recording.checkpoint = [&](const EngineCheckpoint &checkpoint) {
        checkpoints.push_back(checkpoint);
    };
    static_cast<void>(runTrials(99, recording, uniformMetric));
    ASSERT_GE(checkpoints.size(), 3u);

    const EngineCheckpoint &mid = checkpoints[checkpoints.size() / 2];
    ASSERT_GT(mid.executedChunks, 0u);
    ASSERT_LT(mid.executedChunks * 64, kTrials);
    for (unsigned threads : {1u, 2u, 8u}) {
        McRunOptions resume = full;
        resume.threads = threads;
        resume.resumeFrom = &mid;
        const TrialReport resumed = runTrials(99, resume, uniformMetric);
        EXPECT_EQ(resumed.trials, reference.trials);
        EXPECT_EQ(resumed.stats.count(), reference.stats.count());
        EXPECT_EQ(std::bit_cast<uint64_t>(resumed.stats.mean()),
                  std::bit_cast<uint64_t>(reference.stats.mean()))
            << "resume at " << threads << " threads diverged";
        EXPECT_EQ(std::bit_cast<uint64_t>(resumed.stats.variance()),
                  std::bit_cast<uint64_t>(reference.stats.variance()));
        EXPECT_EQ(resumed.stats.min(), reference.stats.min());
        EXPECT_EQ(resumed.stats.max(), reference.stats.max());
    }
}

TEST(RunTrials, ResumeRequiresMatchingRunAndStreaming)
{
    EngineCheckpoint checkpoint;
    checkpoint.seed = 5;
    checkpoint.requestedTrials = 1000;
    checkpoint.chunkSize = 64;
    checkpoint.executedChunks = 2;

    McRunOptions options;
    options.trials = 1000;
    options.chunkSize = 64;
    options.keepSamples = false;
    options.resumeFrom = &checkpoint;
    // Wrong seed.
    EXPECT_THROW(static_cast<void>(runTrials(6, options, uniformMetric)),
                 std::invalid_argument);
    // keepSamples requires the full per-trial record, which a
    // streaming checkpoint cannot supply.
    options.keepSamples = true;
    EXPECT_THROW(static_cast<void>(runTrials(5, options, uniformMetric)),
                 std::invalid_argument);
}

TEST(ThreadPoolSubmit, RunsEveryTaskOffTheCallerThread)
{
    // submit() is the serving layer's request-execution primitive:
    // fire-and-forget onto a persistent worker, never inline on the
    // caller, never on a freshly spawned thread.
    const uint64_t submittedBefore =
        obs::Registry::global().counter("sim.mc.pool.submitted").get();
    const std::thread::id caller = std::this_thread::get_id();

    constexpr int kTasks = 32;
    std::atomic<int> done{0};
    std::atomic<int> onCallerThread{0};
    for (int i = 0; i < kTasks; ++i) {
        ThreadPool::global().submit([&, caller] {
            if (std::this_thread::get_id() == caller)
                onCallerThread.fetch_add(1);
            done.fetch_add(1, std::memory_order_release);
        }, 4);
    }
    for (int spins = 0;
         done.load(std::memory_order_acquire) < kTasks && spins < 1000;
         ++spins)
        std::this_thread::sleep_for(std::chrono::milliseconds(10));

    EXPECT_EQ(done.load(), kTasks);
    EXPECT_EQ(onCallerThread.load(), 0);
    EXPECT_GE(ThreadPool::global().workerCount(), 1u);
    EXPECT_EQ(
        obs::Registry::global().counter("sim.mc.pool.submitted").get(),
        submittedBefore + kTasks);
}

TEST(ThreadPoolSubmit, TasksMayNestParallelFor)
{
    // A submitted handler running a Monte Carlo endpoint calls
    // parallelFor from inside a pool worker; the worker participates
    // in the nested region like any caller, so this must not deadlock
    // even when the region wants more executors than exist.
    constexpr uint64_t kIndices = 1000;
    std::vector<std::atomic<int>> hits(kIndices);
    std::atomic<bool> finished{false};
    ThreadPool::global().submit([&] {
        ThreadPool::global().parallelFor(
            kIndices, 8,
            [&](uint64_t i) { hits[i].fetch_add(1); });
        finished.store(true, std::memory_order_release);
    }, 2);
    for (int spins = 0;
         !finished.load(std::memory_order_acquire) && spins < 1000;
         ++spins)
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    ASSERT_TRUE(finished.load());
    for (uint64_t i = 0; i < kIndices; ++i)
        ASSERT_EQ(hits[i].load(), 1) << "index " << i;
}

} // namespace
} // namespace lemons::engine
