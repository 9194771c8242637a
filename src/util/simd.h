/**
 * @file
 * Runtime SIMD dispatch for the trial kernels.
 *
 * Two kernels ship both a portable scalar implementation and an AVX2
 * one compiled with a per-function target attribute (no global -mavx2
 * required): the counter-based Philox generator (util/philox.cc) and
 * the array min/max of the bank selections (engine/batch.cc). Which
 * one runs is decided by:
 *
 *   1. the LEMONS_NO_SIMD compile-time macro (vector code compiled out;
 *      the CI scalar leg builds this way),
 *   2. CPUID feature detection, once per process,
 *   3. setLevelForTesting(), which can only lower the detected level.
 *
 * Every vector kernel is bit-identical to its scalar fallback by
 * construction (integer Philox blocks, exact IEEE uniform conversion
 * and order-insensitive selections), so the dispatch level never
 * changes simulation results — only throughput. Tests enforce this via
 * setLevelForTesting().
 */

#ifndef LEMONS_UTIL_SIMD_H_
#define LEMONS_UTIL_SIMD_H_

namespace lemons::simd {

/** Instruction-set tiers the dispatcher can select. */
enum class Level {
    Scalar = 0, ///< portable C++ fallback, always available
    Avx2 = 1,   ///< AVX2 batches (x86-64 only)
};

/** Human-readable tier name ("scalar" / "avx2") for logs and bench metadata. */
const char *levelName(Level level);

/**
 * Highest tier this build AND this machine support: Scalar when
 * compiled with LEMONS_NO_SIMD or on non-x86 targets, otherwise the
 * CPUID-detected maximum. Detection runs once and is cached.
 */
Level detectedLevel();

/**
 * Tier the kernels actually dispatch on: the test override when one is
 * set (clamped to detectedLevel()), otherwise detectedLevel().
 */
Level activeLevel();

/**
 * Test hook: force activeLevel() to @p level (clamped to
 * detectedLevel(), so requesting Avx2 on a scalar-only machine stays
 * Scalar). The SIMD-vs-scalar bit-equality suites flip this to run both
 * paths in one process. Not thread-safe against concurrently running
 * kernels; call between runs only.
 */
void setLevelForTesting(Level level);

/** Drop the test override and return to CPUID dispatch. */
void clearLevelForTesting();

} // namespace lemons::simd

#endif // LEMONS_UTIL_SIMD_H_
