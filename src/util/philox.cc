#include "util/philox.h"

#include "util/simd.h"

#if defined(__x86_64__) && !defined(LEMONS_NO_SIMD)
#define LEMONS_PHILOX_AVX2 1
#include <immintrin.h>
#endif

namespace lemons::philox {

namespace {

/** One multiply of a Philox round: 32x32 -> (hi, lo) 32-bit halves. */
inline uint32_t
mulHiLo(uint32_t a, uint32_t b, uint32_t &hi)
{
    const uint64_t product = static_cast<uint64_t>(a) * b;
    hi = static_cast<uint32_t>(product >> 32);
    return static_cast<uint32_t>(product);
}

/**
 * Domain tag ("philox4x" in ASCII) XORed into the seed before the
 * SplitMix64 key-derivation step; see deriveKey().
 */
constexpr uint64_t kKeyDomainTag = 0x7068696C6F783478ULL;

/** Draw -> (0, 1] uniform, the library-wide 53-bit convention. */
inline double
toUniformOpenLow(uint64_t w)
{
    return static_cast<double>((w >> 11) + 1) * 0x1.0p-53;
}

/** What a generation pass does with the uniforms of its blocks. */
enum class Use { Fill, Min, Max };

/** Fold @p u into the running minimum (Min) or maximum (Max). */
template <Use U>
inline void
foldExtreme(double &extreme, double u)
{
    if constexpr (U == Use::Min)
        extreme = u < extreme ? u : extreme;
    else
        extreme = u > extreme ? u : extreme;
}

/**
 * Scalar pass over blocks [firstBlock, firstBlock + blockCount): Fill
 * writes their uniforms to out[2 * at ...], Min and Max fold them into
 * @p extreme (out is unused and may be null).
 */
template <Use U>
void
uniformsScalar(Key key, uint64_t trial, uint64_t firstBlock, double *out,
               size_t at, size_t blockCount, double &extreme)
{
    for (size_t i = 0; i < blockCount; ++i) {
        const std::array<uint64_t, 2> draws =
            blockDraws(block(makeCounter(trial, firstBlock + i), key));
        for (size_t j = 0; j < 2; ++j) {
            const double u = toUniformOpenLow(draws[j]);
            if constexpr (U == Use::Fill)
                out[2 * (at + i) + j] = u;
            else
                foldExtreme<U>(extreme, u);
        }
    }
}

#if defined(LEMONS_PHILOX_AVX2)

// AVX2 Philox: every counter/key word lives as a 32-bit value in a
// 64-bit lane, so _mm256_mul_epu32 delivers the four 32x32->64
// products of one round for four blocks in a single instruction. Pure
// integer arithmetic, hence bit-identical to block().

/** Draws of four consecutive blocks, in stream order (4 per vector). */
struct DrawsX4
{
    __m256i first;  // draws 0..3 of the group
    __m256i second; // draws 4..7 of the group
};

/** One lane-parallel counter state (blocks b, b+1, b+2, b+3). */
struct StateX4
{
    __m256i c0, c1, c2, c3;
};

__attribute__((target("avx2"))) inline StateX4
philoxCountersX4Avx2(uint64_t trial, uint64_t firstBlock)
{
    const __m256i mask32 =
        _mm256_set1_epi64x(static_cast<long long>(0xFFFFFFFFULL));
    // Lane j holds block firstBlock + j. The block index spans counter
    // words 0 (low) and 1 (high).
    const __m256i blockIndex = _mm256_add_epi64(
        _mm256_set1_epi64x(static_cast<long long>(firstBlock)),
        _mm256_set_epi64x(3, 2, 1, 0));
    return {_mm256_and_si256(blockIndex, mask32),
            _mm256_srli_epi64(blockIndex, 32),
            _mm256_set1_epi64x(static_cast<long long>(trial & 0xFFFFFFFFULL)),
            _mm256_set1_epi64x(static_cast<long long>(trial >> 32))};
}

__attribute__((target("avx2"))) inline DrawsX4
philoxDrawsX4Avx2(const StateX4 &s)
{
    // Per lane: draw0 = x0 | x1 << 32, draw1 = x2 | x3 << 32, then
    // interleave lanes into block order (d0_0 d1_0 d0_1 d1_1 ...).
    const __m256i draw0 =
        _mm256_or_si256(s.c0, _mm256_slli_epi64(s.c1, 32));
    const __m256i draw1 =
        _mm256_or_si256(s.c2, _mm256_slli_epi64(s.c3, 32));
    const __m256i evenPairs = _mm256_unpacklo_epi64(draw0, draw1);
    const __m256i oddPairs = _mm256_unpackhi_epi64(draw0, draw1);
    return {_mm256_permute2x128_si256(evenPairs, oddPairs, 0x20),
            _mm256_permute2x128_si256(evenPairs, oddPairs, 0x31)};
}

/**
 * G independent four-block groups (blocks firstBlock ..
 * firstBlock + 4G) with their round bodies interleaved. One group's
 * ten-round chain is latency-bound: each round's multiplies wait on
 * the previous round. Interleaving G data-independent chains lets
 * them hide each other's multiply latency. Bit-identical to G
 * single-group calls.
 */
template <size_t G>
__attribute__((target("avx2"))) inline void
philoxGroupsAvx2(Key key, uint64_t trial, uint64_t firstBlock,
                 DrawsX4 (&out)[G])
{
    const __m256i mult0 = _mm256_set1_epi64x(static_cast<long long>(kMult0));
    const __m256i mult1 = _mm256_set1_epi64x(static_cast<long long>(kMult1));
    // Weyl increments sit in the low dword of each lane so a plain
    // 32-bit lane add reproduces the scalar key bump's mod-2^32 wrap.
    const __m256i weyl0 = _mm256_set1_epi64x(static_cast<long long>(kWeyl0));
    const __m256i weyl1 = _mm256_set1_epi64x(static_cast<long long>(kWeyl1));
    const __m256i mask32 =
        _mm256_set1_epi64x(static_cast<long long>(0xFFFFFFFFULL));
    StateX4 s[G];
#pragma GCC unroll 4
    for (size_t g = 0; g < G; ++g)
        s[g] = philoxCountersX4Avx2(trial, firstBlock + 4 * g);
    __m256i k0 = _mm256_set1_epi64x(static_cast<long long>(key[0]));
    __m256i k1 = _mm256_set1_epi64x(static_cast<long long>(key[1]));

    for (int round = 0; round < kRounds; ++round) {
        if (round != 0) {
            k0 = _mm256_add_epi32(k0, weyl0);
            k1 = _mm256_add_epi32(k1, weyl1);
        }
        __m256i p0[G];
        __m256i p1[G];
#pragma GCC unroll 4
        for (size_t g = 0; g < G; ++g) {
            p0[g] = _mm256_mul_epu32(s[g].c0, mult0);
            p1[g] = _mm256_mul_epu32(s[g].c2, mult1);
        }
#pragma GCC unroll 4
        for (size_t g = 0; g < G; ++g) {
            s[g].c0 = _mm256_xor_si256(
                _mm256_xor_si256(_mm256_srli_epi64(p1[g], 32), s[g].c1), k0);
            s[g].c1 = _mm256_and_si256(p1[g], mask32);
            s[g].c2 = _mm256_xor_si256(
                _mm256_xor_si256(_mm256_srli_epi64(p0[g], 32), s[g].c3), k1);
            s[g].c3 = _mm256_and_si256(p0[g], mask32);
        }
    }
#pragma GCC unroll 4
    for (size_t g = 0; g < G; ++g)
        out[g] = philoxDrawsX4Avx2(s[g]);
}

/**
 * Exact uint64 -> double conversion of v = (w >> 11) + 1 <= 2^53,
 * vectorized: both 32-bit halves convert exactly via the 2^52
 * exponent-bias trick, and hi * 2^32 + lo is exact because the sum is
 * an integer <= 2^53. Bit-identical to static_cast<double>(v).
 */
__attribute__((target("avx2"))) inline __m256d
drawsToUniformAvx2(__m256i w)
{
    const __m256i mask32 =
        _mm256_set1_epi64x(static_cast<long long>(0xFFFFFFFFULL));
    const __m256i bias = _mm256_set1_epi64x(0x4330000000000000LL); // 2^52
    const __m256d biasD = _mm256_castsi256_pd(bias);
    const __m256i v =
        _mm256_add_epi64(_mm256_srli_epi64(w, 11), _mm256_set1_epi64x(1));
    const __m256i hi = _mm256_srli_epi64(v, 32);
    const __m256i lo = _mm256_and_si256(v, mask32);
    const __m256d hiD =
        _mm256_sub_pd(_mm256_castsi256_pd(_mm256_or_si256(hi, bias)), biasD);
    const __m256d loD =
        _mm256_sub_pd(_mm256_castsi256_pd(_mm256_or_si256(lo, bias)), biasD);
    const __m256d value =
        _mm256_add_pd(_mm256_mul_pd(hiD, _mm256_set1_pd(0x1.0p32)), loD);
    return _mm256_mul_pd(value, _mm256_set1_pd(0x1.0p-53));
}

/**
 * G interleaved groups starting at block firstBlock + at: Fill stores
 * their uniforms at out[2 * at ...], Min and Max fold them into @p acc.
 * The extrema of exact doubles do not depend on the fold order, so
 * the lanes reach the value the scalar pass does.
 */
template <Use U, size_t G>
__attribute__((target("avx2"))) inline void
groupUniformsAvx2(Key key, uint64_t trial, uint64_t firstBlock, double *out,
                  size_t at, __m256d &acc)
{
    DrawsX4 draws[G];
    philoxGroupsAvx2<G>(key, trial, firstBlock + at, draws);
#pragma GCC unroll 4
    for (size_t g = 0; g < G; ++g) {
        const __m256d u0 = drawsToUniformAvx2(draws[g].first);
        const __m256d u1 = drawsToUniformAvx2(draws[g].second);
        if constexpr (U == Use::Fill) {
            _mm256_storeu_pd(out + 2 * at + 8 * g, u0);
            _mm256_storeu_pd(out + 2 * at + 8 * g + 4, u1);
        } else if constexpr (U == Use::Min) {
            acc = _mm256_min_pd(acc, _mm256_min_pd(u0, u1));
        } else {
            acc = _mm256_max_pd(acc, _mm256_max_pd(u0, u1));
        }
    }
}

/** One interleaved pass over @p groups < G + 1 groups (G, G-1, ... 1). */
template <Use U, size_t G>
__attribute__((target("avx2"))) inline void
tailGroupsAvx2(size_t groups, Key key, uint64_t trial, uint64_t firstBlock,
               double *out, size_t at, __m256d &acc)
{
    if constexpr (G > 0) {
        if (groups == G)
            groupUniformsAvx2<U, G>(key, trial, firstBlock, out, at, acc);
        else
            tailGroupsAvx2<U, G - 1>(groups, key, trial, firstBlock, out, at,
                                     acc);
    }
}

/**
 * The AVX2 pass shared by fill, min and max: G interleaved groups at
 * a time, then one interleaved pass over the remaining whole groups
 * (G - 1 ... 1). Returns how many blocks it consumed; the last
 * blockCount % 4 are left to the scalar pass, which the caller runs
 * (calling it from here would run SSE code with the upper ymm halves
 * still dirty).
 */
template <Use U, size_t G>
__attribute__((target("avx2"))) size_t
uniformsAvx2(Key key, uint64_t trial, uint64_t firstBlock, double *out,
             size_t blockCount, double &extreme)
{
    __m256d acc = _mm256_set1_pd(extreme);
    size_t i = 0;
    for (; i + 4 * G <= blockCount; i += 4 * G)
        groupUniformsAvx2<U, G>(key, trial, firstBlock, out, i, acc);
    const size_t groups = (blockCount - i) / 4;
    tailGroupsAvx2<U, G - 1>(groups, key, trial, firstBlock, out, i, acc);
    i += 4 * groups;
    if constexpr (U != Use::Fill) {
        double lanes[4];
        _mm256_storeu_pd(lanes, acc);
        for (const double lane : lanes)
            foldExtreme<U>(extreme, lane);
    }
    return i;
}

#endif // LEMONS_PHILOX_AVX2

/**
 * Dispatch one generation pass. Fill runs four interleaved groups per
 * step and min and max three, the widths the generator was tuned at;
 * any width gives the same values.
 */
template <Use U>
void
uniforms(Key key, uint64_t trial, uint64_t firstBlock, double *out,
         size_t blockCount, double &extreme)
{
    size_t done = 0;
#if defined(LEMONS_PHILOX_AVX2)
    if (simd::activeLevel() == simd::Level::Avx2)
        done = uniformsAvx2<U, U == Use::Fill ? 4 : 3>(
            key, trial, firstBlock, out, blockCount, extreme);
#endif
    uniformsScalar<U>(key, trial, firstBlock + done, out, done,
                      blockCount - done, extreme);
}

} // namespace

uint64_t
splitMix64(uint64_t &x)
{
    x += 0x9e3779b97f4a7c15ULL;
    uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

uint64_t
deriveKey(uint64_t seed)
{
    uint64_t x = seed ^ kKeyDomainTag;
    return splitMix64(x);
}

Key
keyWords(uint64_t key)
{
    return Key{static_cast<uint32_t>(key), static_cast<uint32_t>(key >> 32)};
}

Counter
makeCounter(uint64_t trial, uint64_t block)
{
    return Counter{static_cast<uint32_t>(block),
                   static_cast<uint32_t>(block >> 32),
                   static_cast<uint32_t>(trial),
                   static_cast<uint32_t>(trial >> 32)};
}

Counter
block(Counter counter, Key key)
{
    // Random123 reference structure: bump the key before every round
    // but the first, then apply the S-box round.
    for (int round = 0; round < kRounds; ++round) {
        if (round != 0) {
            key[0] += kWeyl0;
            key[1] += kWeyl1;
        }
        uint32_t hi0 = 0;
        uint32_t hi1 = 0;
        const uint32_t lo0 = mulHiLo(kMult0, counter[0], hi0);
        const uint32_t lo1 = mulHiLo(kMult1, counter[2], hi1);
        counter = Counter{hi1 ^ counter[1] ^ key[0], lo1,
                          hi0 ^ counter[3] ^ key[1], lo0};
    }
    return counter;
}

std::array<uint64_t, 2>
blockDraws(const Counter &output)
{
    return {static_cast<uint64_t>(output[0]) |
                (static_cast<uint64_t>(output[1]) << 32),
            static_cast<uint64_t>(output[2]) |
                (static_cast<uint64_t>(output[3]) << 32)};
}

void
fillRaw64(Key key, uint64_t trial, uint64_t firstBlock, uint64_t *out,
          size_t blockCount)
{
    for (size_t i = 0; i < blockCount; ++i) {
        const std::array<uint64_t, 2> draws =
            blockDraws(block(makeCounter(trial, firstBlock + i), key));
        out[2 * i] = draws[0];
        out[2 * i + 1] = draws[1];
    }
}

void
fillUniformOpenLow(Key key, uint64_t trial, uint64_t firstBlock, double *out,
                   size_t blockCount)
{
    double unused = 0.0;
    uniforms<Use::Fill>(key, trial, firstBlock, out, blockCount, unused);
}

double
minUniformOpenLow(Key key, uint64_t trial, uint64_t firstBlock,
                  size_t blockCount)
{
    // Uniforms lie in (0, 1]: 1.0 is the identity of their minimum.
    double result = 1.0;
    uniforms<Use::Min>(key, trial, firstBlock, nullptr, blockCount, result);
    return result;
}

double
maxUniformOpenLow(Key key, uint64_t trial, uint64_t firstBlock,
                  size_t blockCount)
{
    // Any generated uniform replaces the 0.0 seed of the maximum.
    double result = 0.0;
    uniforms<Use::Max>(key, trial, firstBlock, nullptr, blockCount, result);
    return result;
}

} // namespace lemons::philox
