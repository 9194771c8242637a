/**
 * @file
 * Crash-injection harness for fleet campaigns.
 *
 * The checkpoint format's whole claim is "a SIGKILL at any instant
 * loses at most one wave of work and never corrupts the result". The
 * only honest way to test that claim is to actually kill processes:
 * runChaosCampaign() forks a child campaign, kills it at a randomized
 * point (alternating SIGKILL and SIGABRT, so both silent death and
 * abort-with-unwound-nothing are covered), resumes from the surviving
 * checkpoint, repeats until the campaign completes, and finally
 * asserts the resumed result's digest equals an uninterrupted
 * reference run's — bit-identical, at any thread count. Each kill
 * delay is a uniform fraction in (0, 1) of the uninterrupted reference
 * child's wall time, so kills land mid-campaign however fast the
 * campaign is.
 *
 * It can also flip a byte in the primary checkpoint after the kill
 * rounds (ChaosOptions::corruptPrimaryOnce), forcing the loader down
 * its detect-and-fall-back path so the fault-policy coverage is
 * exercised end to end, not just in unit tests. When the kills left no
 * primary-plus-fallback pair to corrupt (say, a kill between the
 * checkpoint rotate and its final rename left only the .prev file), a
 * resume runs to completion first, which both recovers that state and
 * writes the pair.
 *
 * Fork-safety contract: the calling process must not have warmed the
 * global ThreadPool (forking a process with live worker threads risks
 * deadlock in the child). The harness honours the contract itself by
 * running *every* campaign — the uninterrupted reference included —
 * in forked children; the parent only forks, sleeps, kills, and reads
 * result files.
 */

#ifndef LEMONS_FLEET_CHAOS_H_
#define LEMONS_FLEET_CHAOS_H_

#include <cstdint>
#include <string>

#include "lint/rules.h"

namespace lemons::fleet {

/** Knobs for one chaos run. */
struct ChaosOptions
{
    /** Worker threads inside each child campaign. */
    unsigned threads = 1;
    /** Seed for the kill-point randomization (not the campaign's). */
    uint64_t seed = 1;
    /** Maximum kill/resume rounds before the final clean run. */
    int maxKillRounds = 6;
    /** Directory for checkpoints and result files (must exist). */
    std::string workDir = ".";
    /** Flip one checkpoint byte once, to exercise the fallback path. */
    bool corruptPrimaryOnce = true;
};

/** What one chaos run observed. */
struct ChaosResult
{
    /** Digest of the uninterrupted reference run. */
    uint64_t referenceDigest = 0;
    /** Digest of the killed-and-resumed run. */
    uint64_t resumedDigest = 0;
    /** Kill/resume rounds actually performed. */
    int kills = 0;
    /** Whether any resumed child reported restoring from disk. */
    bool resumeObserved = false;
    /** Whether the corrupt-primary fallback path was exercised. */
    bool fallbackExercised = false;
    /** Path of the last checkpoint file (CI failure artifact). */
    std::string checkpointPath;
    /** Human-readable round-by-round log. */
    std::string log;

    /** The contract under test: resume equals uninterrupted. */
    bool passed() const
    {
        return referenceDigest == resumedDigest && referenceDigest != 0;
    }
};

/**
 * Run the kill/resume/compare experiment described in the file
 * comment. @throws std::runtime_error on harness-level failures
 * (fork/exec plumbing, unreadable result files) — a digest mismatch
 * is NOT an exception, it is passed() == false so callers can report
 * both digests.
 */
ChaosResult runChaosCampaign(const lint::FleetSpec &spec,
                             const ChaosOptions &options);

/** A small heterogeneous two-cohort spec sized for chaos testing. */
lint::FleetSpec chaosDefaultSpec();

} // namespace lemons::fleet

#endif // LEMONS_FLEET_CHAOS_H_
