/**
 * @file
 * Philox4x32-10 counter-based random number generation.
 *
 * Philox (Salmon et al., "Parallel Random Numbers: As Easy as 1, 2, 3",
 * SC'11 — the Random123 library) is a keyed bijection: ten rounds of
 * 32x32->64 multiplies and Weyl-sequence key bumps map a 128-bit
 * counter to a 128-bit output block. Because the output is a pure
 * function of (key, counter), any draw of any trial can be computed
 * independently — no sequential stream state, no chunk-order coupling,
 * and embarrassingly parallel generation.
 *
 * The library keys trial streams on (seed, trial, draw):
 *
 *   key     = SplitMix64(seed XOR domain tag)      (64 bits, split 2x32)
 *   counter = (block lo32, block hi32, trial lo32, trial hi32)
 *
 * where `block` indexes consecutive 128-bit output blocks of one trial
 * and each block yields two 64-bit draws. Rng::trialStream wraps this
 * layout behind the ordinary Rng interface; the raw entry points here
 * exist for the known-answer tests and the batched kernels.
 *
 * fillUniformOpenLow and min/maxUniformOpenLow run one AVX2 generator
 * when simd::activeLevel() allows: several four-block groups with
 * their ten rounds interleaved, so one group's multiply latency hides
 * behind the others'. fillRaw64 is scalar; its one caller outside the
 * tests asks for a single block.
 */

#ifndef LEMONS_UTIL_PHILOX_H_
#define LEMONS_UTIL_PHILOX_H_

#include <array>
#include <cstddef>
#include <cstdint>

namespace lemons::philox {

/** Weyl-sequence key increments (Random123 PHILOX_W32_0/1). */
inline constexpr uint32_t kWeyl0 = 0x9E3779B9u;
inline constexpr uint32_t kWeyl1 = 0xBB67AE85u;
/** Round multipliers (Random123 PHILOX_M4x32_0/1). */
inline constexpr uint32_t kMult0 = 0xD2511F53u;
inline constexpr uint32_t kMult1 = 0xCD9E8D57u;
/** Round count of the recommended ("-10") variant. */
inline constexpr int kRounds = 10;

/** 128-bit counter/output block, word 0 first (Random123 order). */
using Counter = std::array<uint32_t, 4>;
/** 64-bit key as two 32-bit words. */
using Key = std::array<uint32_t, 2>;

/**
 * SplitMix64 step: advances @p x by the golden-ratio increment and
 * returns a scrambled output. The single mixing primitive shared by
 * xoshiro seeding, child-stream derivation and Philox key derivation.
 */
uint64_t splitMix64(uint64_t &x);

/**
 * Derive the 64-bit Philox key for master seed @p seed: one SplitMix64
 * step of seed XOR a fixed domain tag. The tag keeps the key schedule
 * disjoint from the xoshiro state words Rng(seed) derives from the
 * undisturbed SplitMix64 chain of the same seed.
 */
uint64_t deriveKey(uint64_t seed);

/** Split a 64-bit key into Philox key words (low word first). */
Key keyWords(uint64_t key);

/** Counter for block @p block of trial @p trial (block words low). */
Counter makeCounter(uint64_t trial, uint64_t block);

/** The Philox4x32-10 bijection: one 128-bit block from (counter, key). */
Counter block(Counter counter, Key key);

/** The two 64-bit draws of one output block (word pairs, low word first). */
std::array<uint64_t, 2> blockDraws(const Counter &output);

/**
 * Write the 64-bit draws of @p blockCount consecutive blocks
 * [firstBlock, firstBlock + blockCount) of stream (key, trial) to
 * @p out[0 .. 2*blockCount), one block() call per block.
 */
void fillRaw64(Key key, uint64_t trial, uint64_t firstBlock, uint64_t *out,
               size_t blockCount);

/**
 * Like fillRaw64, but convert every draw w to the (0, 1] uniform
 * ((w >> 11) + 1) * 2^-53 on the fly: out[0 .. 2*blockCount) gets the
 * uniforms of blocks [firstBlock, firstBlock + blockCount) in draw
 * order. The AVX2 conversion is exact (53-bit integers assemble from
 * exact 32-bit halves), so every uniform is bit-identical to the
 * scalar static_cast path at any dispatch level.
 */
void fillUniformOpenLow(Key key, uint64_t trial, uint64_t firstBlock,
                        double *out, size_t blockCount);

/**
 * Minimum / maximum of the 2 * blockCount uniforms fillUniformOpenLow
 * would write, without materializing them. The extrema of a set of
 * exact doubles are order-independent, so the fused AVX2 reduction
 * returns the identical VALUE as a scalar pass over the filled array —
 * the property the k = 1 / k = n order-statistic kernels need.
 */
double minUniformOpenLow(Key key, uint64_t trial, uint64_t firstBlock,
                         size_t blockCount);
double maxUniformOpenLow(Key key, uint64_t trial, uint64_t firstBlock,
                         size_t blockCount);

} // namespace lemons::philox

#endif // LEMONS_UTIL_PHILOX_H_
