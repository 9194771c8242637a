/**
 * @file
 * Crash-injection tests: a fleet campaign SIGKILLed/SIGABRTed at
 * randomized points, resumed from its checkpoint, and corrupted once
 * on disk must still produce results bit-identical to an
 * uninterrupted run — at 1, 2, and 8 worker threads.
 *
 * Fork-safety: every campaign (the reference included) runs in a
 * forked child; this test binary must therefore never run a campaign
 * in-process, so it contains ONLY chaos tests. In-process campaign
 * coverage lives in test_fleet.cc.
 *
 * Artifacts: each test works under LEMONS_CHAOS_ARTIFACT_DIR (or
 * ./chaos-artifacts when unset) and leaves its checkpoint files and
 * round log behind, so a CI failure can upload exactly what the
 * harness saw.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>

#include "fleet/chaos.h"
#include "lint/rules.h"

namespace lemons::fleet {
namespace {

namespace fs = std::filesystem;

/** Per-test artifact directory (kept on failure for CI upload). */
std::string
artifactDir(const std::string &name)
{
    const char *base = std::getenv("LEMONS_CHAOS_ARTIFACT_DIR");
    const fs::path root =
        fs::path(base != nullptr ? base : "chaos-artifacts") / name;
    std::error_code ignored;
    fs::remove_all(root, ignored);
    fs::create_directories(root);
    return root.string();
}

/** Quick-scale spec: big enough that kills land mid-campaign. */
lint::FleetSpec
quickSpec()
{
    lint::FleetSpec spec = chaosDefaultSpec();
    spec.devices = 3000;
    // Small chunks + checkpoint-every-chunk: the first checkpoint
    // lands within a few milliseconds, so even the earliest kills
    // leave resumable state behind.
    spec.chunkSize = 16;
    spec.checkpointEveryChunks = 1;
    return spec;
}

void
runChaosAt(unsigned threads)
{
    const std::string dir =
        artifactDir("threads-" + std::to_string(threads));
    ChaosOptions options;
    options.threads = threads;
    options.seed = 1000 + threads;
    options.maxKillRounds = 4;
    options.workDir = dir;
    options.corruptPrimaryOnce = true;

    const ChaosResult result =
        runChaosCampaign(quickSpec(), options);
    // Persist the round log next to the checkpoints regardless of
    // outcome; CI uploads the directory when the assertion fails.
    std::ofstream(dir + "/chaos.log") << result.log;

    EXPECT_TRUE(result.passed())
        << "threads=" << threads << " reference="
        << result.referenceDigest << " resumed="
        << result.resumedDigest << "\n"
        << result.log;
    // The corruption injection must actually have exercised the
    // detect-and-fall-back path, not just happened to be skipped.
    EXPECT_TRUE(result.fallbackExercised) << result.log;
    EXPECT_TRUE(result.resumeObserved) << result.log;
    // Kill delays scale with the reference run, so at least the first
    // round must land mid-campaign.
    EXPECT_GE(result.kills, 1) << result.log;
}

TEST(ChaosHarness, ResumeEqualsUninterruptedSingleThread)
{
    runChaosAt(1);
}

TEST(ChaosHarness, ResumeEqualsUninterruptedTwoThreads)
{
    runChaosAt(2);
}

TEST(ChaosHarness, ResumeEqualsUninterruptedEightThreads)
{
    runChaosAt(8);
}

TEST(ChaosHarness, AllThreadCountsAgreeOnTheReferenceDigest)
{
    // The three tests above each compare resume-vs-uninterrupted at
    // one thread count; this one pins the cross-thread half of the
    // contract: the uninterrupted digest itself is thread-invariant.
    const std::string dir = artifactDir("cross-thread");
    uint64_t first = 0;
    for (unsigned threads : {1u, 2u, 8u}) {
        ChaosOptions options;
        options.threads = threads;
        options.maxKillRounds = 0; // no kills: reference runs only
        options.corruptPrimaryOnce = false;
        options.workDir = dir;
        const ChaosResult result =
            runChaosCampaign(quickSpec(), options);
        ASSERT_TRUE(result.passed()) << result.log;
        if (first == 0)
            first = result.referenceDigest;
        EXPECT_EQ(result.referenceDigest, first)
            << "threads=" << threads;
    }
}

TEST(ChaosHarness, ReferenceDigestMatchesCounterStreamGolden)
{
    // The tests above are self-referential (resume vs uninterrupted,
    // thread A vs thread B). This one anchors the chaos campaign to
    // the counter-based Philox trial stream: the digest was recorded
    // when that stream became definitional, re-pinned once when the
    // PTRS Poisson sampler replaced Knuth's method at means of 10 and
    // above, once when the closed-form exhaustion-day sampler replaced
    // the per-day simulation, and once when Rng(seed) became a Philox
    // stream (moving the cohort seeds derived from the campaign seed),
    // so any change to the engine, kernels, or fleet sampler that
    // silently alters the sampled lifetimes fails here even if it
    // stays self-consistent.
    constexpr uint64_t kGoldenReferenceDigest = 0xa8cdafbc9d5a9000ULL;
    const std::string dir = artifactDir("stream-golden");
    ChaosOptions options;
    options.threads = 1;
    options.maxKillRounds = 0; // reference run only
    options.corruptPrimaryOnce = false;
    options.workDir = dir;
    const ChaosResult result = runChaosCampaign(quickSpec(), options);
    ASSERT_TRUE(result.passed()) << result.log;
    EXPECT_EQ(result.referenceDigest, kGoldenReferenceDigest);
}

} // namespace
} // namespace lemons::fleet
