/**
 * @file
 * Thread-count invariance of the Monte Carlo engine.
 *
 * The engine's contract is that trial i depends only on (seed, i), so
 * parallel execution must be bit-identical to serial execution at any
 * worker count — including when trials throw or return non-finite
 * values. These tests pin that contract across 1, 2, and 8 workers
 * (more workers than this machine has cores, so oversubscription is
 * exercised) with a small explicit chunk size so every run spans many
 * chunks.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "arch/structures_sim.h"
#include "sim/monte_carlo.h"
#include "util/rng.h"
#include "util/simd.h"
#include "wearout/population.h"
#include "wearout/weibull.h"

namespace lemons::sim {
namespace {

constexpr unsigned kThreadCounts[] = {1, 2, 8};

/** Small chunks: 501 trials split into 8 chunks, so multi-chunk
 *  scheduling (including the odd-sized tail chunk) is exercised. */
constexpr uint64_t kChunk = 64;

/** A nontrivial metric: structure lifetime of a 40-of-60 parallel
 *  structure, consuming 60 Rng draws per trial. */
double
structureMetric(Rng &rng)
{
    const wearout::Weibull device(10.0, 12.0);
    const arch::LifetimeSampler sampler = [&](Rng &r) {
        return device.sample(r);
    };
    return static_cast<double>(
        arch::sampleParallelSurvivedAccesses(sampler, 60, 40, rng));
}

/** Bitwise vector equality (distinguishes -0.0/0.0, compares NaNs). */
void
expectBitIdentical(const std::vector<double> &got,
                   const std::vector<double> &want)
{
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < got.size(); ++i)
        EXPECT_EQ(std::bit_cast<uint64_t>(got[i]),
                  std::bit_cast<uint64_t>(want[i]))
            << "trial " << i;
}

TEST(Determinism, PooledSamplesBitIdenticalToSerial)
{
    const MonteCarlo engine(4242, 501); // odd count: tail-chunk remainder
    const std::vector<double> serial =
        engine.run(structureMetric, {.faults = FaultPolicy::Rethrow})
            .samples;
    for (const unsigned threads : kThreadCounts) {
        const std::vector<double> pooled =
            engine
                .run(structureMetric, {.threads = threads,
                                       .chunkSize = kChunk,
                                       .faults = FaultPolicy::Rethrow})
                .samples;
        expectBitIdentical(pooled, serial);
    }
}

TEST(Determinism, StreamingStatsMatchSerialAtAnyThreadCount)
{
    const MonteCarlo engine(4242, 501);
    const RunningStats serial =
        engine.run(structureMetric, {.faults = FaultPolicy::Rethrow})
            .stats;
    for (const unsigned threads : kThreadCounts) {
        const RunningStats streamed =
            engine
                .run(structureMetric, {.threads = threads,
                                       .chunkSize = kChunk,
                                       .keepSamples = false,
                                       .faults = FaultPolicy::Rethrow})
                .stats;
        // Count and extrema are exact at any worker count; mean and
        // variance agree up to floating-point reassociation.
        EXPECT_EQ(streamed.count(), serial.count());
        EXPECT_EQ(std::bit_cast<uint64_t>(streamed.min()),
                  std::bit_cast<uint64_t>(serial.min()));
        EXPECT_EQ(std::bit_cast<uint64_t>(streamed.max()),
                  std::bit_cast<uint64_t>(serial.max()));
        EXPECT_NEAR(streamed.mean(), serial.mean(),
                    1e-9 * std::abs(serial.mean()));
        EXPECT_NEAR(streamed.variance(), serial.variance(),
                    1e-6 * serial.variance());
    }
}

TEST(Determinism, StreamingStatsBitIdenticalAcrossThreadCounts)
{
    // Chunk partials are merged in chunk order, which depends only on
    // the chunk size — so even the reassociation-sensitive moments are
    // bit-identical at ANY thread count (the old strided engine only
    // promised this per fixed thread count).
    const MonteCarlo engine(9001, 300);
    const McRunOptions base{.chunkSize = kChunk,
                            .keepSamples = false,
                            .faults = FaultPolicy::Rethrow};
    McRunOptions two = base;
    two.threads = 2;
    const RunningStats a = engine.run(structureMetric, two).stats;
    for (const unsigned threads : kThreadCounts) {
        McRunOptions options = base;
        options.threads = threads;
        const RunningStats b = engine.run(structureMetric, options).stats;
        EXPECT_EQ(std::bit_cast<uint64_t>(a.mean()),
                  std::bit_cast<uint64_t>(b.mean()))
            << threads;
        EXPECT_EQ(std::bit_cast<uint64_t>(a.variance()),
                  std::bit_cast<uint64_t>(b.variance()))
            << threads;
    }
}

TEST(Determinism, CapturedFailuresAreThreadInvariant)
{
    const MonteCarlo engine(7, 200);
    const auto metric = [](Rng &rng, uint64_t trial) -> double {
        if (trial == 57 || trial == 133)
            throw std::runtime_error("trial " + std::to_string(trial));
        return rng.nextDouble();
    };
    for (const unsigned threads : kThreadCounts) {
        const TrialReport report = engine.run(
            metric, {.threads = threads, .chunkSize = kChunk});
        ASSERT_EQ(report.failedTrials.size(), 2u) << threads;
        EXPECT_EQ(report.failedTrials[0], 57u);
        EXPECT_EQ(report.failedTrials[1], 133u);
        EXPECT_EQ(report.firstError, "trial 57");
        EXPECT_EQ(report.cleanTrials(), 198u);
    }
}

TEST(Determinism, RethrowPolicyThrowIsDeterministic)
{
    const MonteCarlo engine(7, 128);
    const auto throwingMetric = [](Rng &rng) -> double {
        const double x = rng.nextDouble();
        if (x > 0.95)
            throw std::runtime_error("u = " + std::to_string(x));
        return x;
    };

    std::string firstMessage;
    for (const unsigned threads : kThreadCounts) {
        try {
            static_cast<void>(engine.run(
                throwingMetric, {.threads = threads,
                                 .chunkSize = 16,
                                 .faults = FaultPolicy::Rethrow}));
            FAIL() << "expected a rethrow at " << threads << " threads";
        } catch (const std::runtime_error &e) {
            if (firstMessage.empty())
                firstMessage = e.what();
            // The lowest-indexed throwing trial wins regardless of
            // worker interleaving, so the message is thread-invariant.
            EXPECT_EQ(std::string(e.what()), firstMessage)
                << threads << " threads";
        }
    }
}

TEST(Determinism, NonFiniteQuarantineIsThreadInvariant)
{
    const MonteCarlo engine(13, 400);
    const auto metric = [](Rng &rng, uint64_t trial) -> double {
        if (trial % 97 == 3)
            return std::numeric_limits<double>::infinity();
        if (trial % 101 == 7)
            return std::numeric_limits<double>::quiet_NaN();
        return rng.nextDouble();
    };

    const TrialReport serial = engine.run(metric, {.threads = 1});
    EXPECT_FALSE(serial.complete());
    EXPECT_FALSE(serial.nonFiniteTrials.empty());
    for (const unsigned threads : kThreadCounts) {
        const TrialReport report = engine.run(
            metric, {.threads = threads, .chunkSize = kChunk});
        EXPECT_EQ(report.trials, serial.trials);
        EXPECT_EQ(report.failedTrials, serial.failedTrials);
        EXPECT_EQ(report.nonFiniteTrials, serial.nonFiniteTrials);
        EXPECT_EQ(report.firstError, serial.firstError);
        EXPECT_EQ(report.stats.count(), serial.stats.count());
        EXPECT_EQ(std::bit_cast<uint64_t>(report.stats.min()),
                  std::bit_cast<uint64_t>(serial.stats.min()));
        EXPECT_EQ(std::bit_cast<uint64_t>(report.stats.max()),
                  std::bit_cast<uint64_t>(serial.stats.max()));
        expectBitIdentical(report.samples, serial.samples);
    }
}

// ---------------------------------------------------------------------------
// Counter-based stream goldens.
//
// The Philox trial stream is definitional: the digests below were
// recorded once when the counter-based stream was introduced and must
// never change. A failure here is a break of the reproducibility
// contract (samples depend only on (seed, trial)), not a
// re-baselining opportunity.
// ---------------------------------------------------------------------------

/** A metric that drives the nominal-lot batched kernels, so the Philox
 *  fill/extremum paths (SIMD when available) are on the hot path:
 *  a 1-of-40 parallel bank plus an 8-deep series chain per trial. */
double
nominalKernelMetric(Rng &rng)
{
    const wearout::DeviceFactory factory(
        {9.3, 12.0}, wearout::ProcessVariation::none());
    return static_cast<double>(
        arch::sampleParallelSurvivedAccesses(factory, 40, 1, rng) +
        arch::sampleSeriesSurvivedAccesses(factory, 8, rng));
}

/** FNV-1a over the exact bit patterns of the samples. */
uint64_t
bitDigest(const std::vector<double> &samples)
{
    uint64_t hash = 0xcbf29ce484222325ULL;
    for (const double sample : samples) {
        hash ^= std::bit_cast<uint64_t>(sample);
        hash *= 0x100000001b3ULL;
    }
    return hash;
}

/** FNV-1a over the streaming-statistics state words. */
uint64_t
statsDigest(const RunningStats &stats)
{
    const uint64_t words[] = {stats.count(),
                              std::bit_cast<uint64_t>(stats.mean()),
                              std::bit_cast<uint64_t>(stats.variance()),
                              std::bit_cast<uint64_t>(stats.min()),
                              std::bit_cast<uint64_t>(stats.max())};
    uint64_t hash = 0xcbf29ce484222325ULL;
    for (const uint64_t word : words) {
        hash ^= word;
        hash *= 0x100000001b3ULL;
    }
    return hash;
}

constexpr uint64_t kGoldenSeed = 20170624;
constexpr uint64_t kGoldenTrials = 501;
/** Digest of the 501 per-trial samples — invariant across threads,
 *  chunk sizes, SIMD level, and resume. */
constexpr uint64_t kGoldenSampleDigest = 0x6ea8701c802e958fULL;
/** Digest of the streaming statistics at chunkSize 64. The moments
 *  are merged in chunk order, so this one is pinned per chunk size
 *  (the per-trial samples above are chunk-size invariant). */
constexpr uint64_t kGoldenStatsDigestChunk64 = 0xc00f4c1b61165276ULL;

TEST(Determinism, SimdLevelDoesNotChangeSamples)
{
    // The vectorized kernels mirror the scalar ones op-for-op, so a
    // whole run is bit-identical whichever path dispatch picks.
    if (simd::detectedLevel() == simd::Level::Scalar)
        GTEST_SKIP() << "host has no AVX2; scalar-vs-scalar is vacuous";
    const MonteCarlo engine(kGoldenSeed, kGoldenTrials);
    const McRunOptions options{.chunkSize = kChunk,
                               .faults = FaultPolicy::Rethrow};
    simd::setLevelForTesting(simd::Level::Avx2);
    const std::vector<double> vectorized =
        engine.run(nominalKernelMetric, options).samples;
    simd::setLevelForTesting(simd::Level::Scalar);
    const std::vector<double> scalar =
        engine.run(nominalKernelMetric, options).samples;
    simd::clearLevelForTesting();
    expectBitIdentical(vectorized, scalar);
}

TEST(Determinism, GoldenDigestAcrossThreadsAndChunks)
{
    // Every scheduling configuration must reproduce the recorded
    // sample digest bit-for-bit.
    const MonteCarlo engine(kGoldenSeed, kGoldenTrials);
    const uint64_t chunkSizes[] = {0, 1, 7, 4096};
    for (const unsigned threads : kThreadCounts) {
        for (const uint64_t chunk : chunkSizes) {
            McRunOptions options;
            options.threads = threads;
            options.chunkSize = chunk;
            options.faults = FaultPolicy::Rethrow;
            const TrialReport report =
                engine.run(nominalKernelMetric, options);
            EXPECT_EQ(bitDigest(report.samples), kGoldenSampleDigest)
                << "threads=" << threads << " chunk=" << chunk;
        }
    }
}

TEST(Determinism, CheckpointResumeReproducesGoldenDigest)
{
    // Resuming from any interior checkpoint lands on the same pinned
    // streaming digest as the uninterrupted run, at any thread count.
    const MonteCarlo engine(kGoldenSeed, kGoldenTrials);
    std::vector<engine::EngineCheckpoint> checkpoints;
    McRunOptions recording;
    recording.chunkSize = kChunk;
    recording.keepSamples = false;
    recording.faults = FaultPolicy::Rethrow;
    recording.checkpointEveryChunks = 2;
    recording.checkpoint = [&](const engine::EngineCheckpoint &checkpoint) {
        checkpoints.push_back(checkpoint);
    };
    const TrialReport full = engine.run(nominalKernelMetric, recording);
    EXPECT_EQ(statsDigest(full.stats), kGoldenStatsDigestChunk64);
    ASSERT_GE(checkpoints.size(), 2u);
    const engine::EngineCheckpoint &mid = checkpoints[checkpoints.size() / 2];
    ASSERT_GT(mid.executedChunks, 0u);
    ASSERT_LT(mid.executedChunks * kChunk, kGoldenTrials);
    for (const unsigned threads : kThreadCounts) {
        McRunOptions resume;
        resume.threads = threads;
        resume.chunkSize = kChunk;
        resume.keepSamples = false;
        resume.faults = FaultPolicy::Rethrow;
        resume.resumeFrom = &mid;
        const TrialReport resumed =
            engine.run(nominalKernelMetric, resume);
        EXPECT_EQ(statsDigest(resumed.stats), kGoldenStatsDigestChunk64)
            << "resume at " << threads << " threads";
    }
}

} // namespace
} // namespace lemons::sim
