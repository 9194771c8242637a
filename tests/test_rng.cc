/**
 * @file
 * Unit tests for Rng, one Philox4x32-10 counter-mode stream: seeded
 * streams and their splitting, the trial streams (known-answer vectors
 * from the Random123 distribution, key-derivation goldens, bulk-fill
 * and fused-reduction equivalence, SIMD-vs-scalar bit-identity), and
 * the reserved trial word that keeps seeded streams off trial streams.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <unordered_set>
#include <vector>

#include "util/philox.h"
#include "util/rng.h"
#include "util/simd.h"

namespace lemons {
namespace {

TEST(Rng, SameSeedSameSequence)
{
    Rng a(42);
    Rng b(42);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1);
    Rng b(2);
    int equal = 0;
    for (int i = 0; i < 1000; ++i)
        if (a.next() == b.next())
            ++equal;
    EXPECT_LT(equal, 2);
}

TEST(Rng, ZeroSeedStillProducesEntropy)
{
    Rng rng(0);
    std::set<uint64_t> values;
    for (int i = 0; i < 100; ++i)
        values.insert(rng.next());
    EXPECT_EQ(values.size(), 100u);
}

TEST(Rng, NextDoubleInUnitInterval)
{
    Rng rng(7);
    for (int i = 0; i < 100000; ++i) {
        const double x = rng.nextDouble();
        EXPECT_GE(x, 0.0);
        EXPECT_LT(x, 1.0);
    }
}

TEST(Rng, NextDoubleOpenLowNeverZero)
{
    Rng rng(7);
    for (int i = 0; i < 100000; ++i) {
        const double x = rng.nextDoubleOpenLow();
        EXPECT_GT(x, 0.0);
        EXPECT_LE(x, 1.0);
    }
}

TEST(Rng, NextDoubleMeanIsHalf)
{
    Rng rng(11);
    double sum = 0.0;
    const int trials = 200000;
    for (int i = 0; i < trials; ++i)
        sum += rng.nextDouble();
    EXPECT_NEAR(sum / trials, 0.5, 0.005);
}

TEST(Rng, NextBelowRespectsBound)
{
    Rng rng(13);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(rng.nextBelow(17), 17u);
}

TEST(Rng, NextBelowOneAlwaysZero)
{
    Rng rng(13);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(rng.nextBelow(1), 0u);
}

TEST(Rng, NextBelowRejectsZeroBound)
{
    Rng rng(13);
    EXPECT_THROW(rng.nextBelow(0), std::invalid_argument);
}

TEST(Rng, NextBelowIsRoughlyUniform)
{
    Rng rng(17);
    const uint64_t buckets = 8;
    std::vector<int> counts(buckets, 0);
    const int trials = 80000;
    for (int i = 0; i < trials; ++i)
        ++counts[rng.nextBelow(buckets)];
    for (uint64_t b = 0; b < buckets; ++b)
        EXPECT_NEAR(counts[b], trials / 8, trials / 80)
            << "bucket " << b;
}

TEST(Rng, BernoulliExtremes)
{
    Rng rng(19);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(rng.nextBernoulli(0.0));
        EXPECT_TRUE(rng.nextBernoulli(1.0));
        EXPECT_FALSE(rng.nextBernoulli(-0.5));
        EXPECT_TRUE(rng.nextBernoulli(1.5));
    }
}

TEST(Rng, BernoulliFrequencyMatchesP)
{
    Rng rng(23);
    const int trials = 100000;
    int hits = 0;
    for (int i = 0; i < trials; ++i)
        if (rng.nextBernoulli(0.3))
            ++hits;
    EXPECT_NEAR(static_cast<double>(hits) / trials, 0.3, 0.01);
}

TEST(Rng, GaussianMoments)
{
    Rng rng(29);
    const int trials = 200000;
    double sum = 0.0, sumSq = 0.0;
    for (int i = 0; i < trials; ++i) {
        const double x = rng.nextGaussian();
        sum += x;
        sumSq += x * x;
    }
    const double mean = sum / trials;
    const double var = sumSq / trials - mean * mean;
    EXPECT_NEAR(mean, 0.0, 0.01);
    EXPECT_NEAR(var, 1.0, 0.02);
}

TEST(Rng, SplitIsDeterministic)
{
    const Rng parent(31);
    Rng a = parent.split(5);
    Rng b = parent.split(5);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, SplitChildrenAreIndependentStreams)
{
    const Rng parent(37);
    Rng a = parent.split(0);
    Rng b = parent.split(1);
    int equal = 0;
    for (int i = 0; i < 1000; ++i)
        if (a.next() == b.next())
            ++equal;
    EXPECT_LT(equal, 2);
}

TEST(Rng, SplitIsOrderIndependent)
{
    const Rng parent(41);
    // Derive child 3 before and after deriving other children; the
    // stream must be identical either way.
    Rng early = parent.split(3);
    (void)parent.split(0);
    (void)parent.split(1);
    Rng late = parent.split(3);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(early.next(), late.next());
}

TEST(Rng, ManySplitSeedsDistinct)
{
    const Rng parent(43);
    std::set<uint64_t> firsts;
    for (uint64_t i = 0; i < 4096; ++i)
        firsts.insert(parent.split(i).next());
    EXPECT_EQ(firsts.size(), 4096u);
}

// ---------------------------------------------------------------------
// Philox4x32-10 counter mode
// ---------------------------------------------------------------------

TEST(Philox, KnownAnswerZeroInput)
{
    // Random123 kat_vectors: philox4x32-10 of the all-zero counter and
    // key. Pins the round function, multipliers and Weyl constants.
    const philox::Counter out =
        philox::block({0u, 0u, 0u, 0u}, {0u, 0u});
    EXPECT_EQ(out[0], 0x6627e8d5u);
    EXPECT_EQ(out[1], 0xe169c58du);
    EXPECT_EQ(out[2], 0xbc57ac4cu);
    EXPECT_EQ(out[3], 0x9b00dbd8u);
}

TEST(Philox, KnownAnswerAllOnesInput)
{
    const philox::Counter out = philox::block(
        {0xffffffffu, 0xffffffffu, 0xffffffffu, 0xffffffffu},
        {0xffffffffu, 0xffffffffu});
    EXPECT_EQ(out[0], 0x408f276du);
    EXPECT_EQ(out[1], 0x41c83b0eu);
    EXPECT_EQ(out[2], 0xa20bc7c6u);
    EXPECT_EQ(out[3], 0x6d5451fdu);
}

TEST(Philox, KnownAnswerPiDigits)
{
    // Random123's "pi digits" vector: counter/key words drawn from the
    // hexadecimal expansion of pi.
    const philox::Counter out = philox::block(
        {0x243f6a88u, 0x85a308d3u, 0x13198a2eu, 0x03707344u},
        {0xa4093822u, 0x299f31d0u});
    EXPECT_EQ(out[0], 0xd16cfe09u);
    EXPECT_EQ(out[1], 0x94fdccebu);
    EXPECT_EQ(out[2], 0x5001e420u);
    EXPECT_EQ(out[3], 0x24126ea1u);
}

TEST(Philox, DeriveKeyGoldens)
{
    // Pin the SplitMix64 key derivation so a silent change to the
    // domain tag or the mixer re-keys every golden in the repo loudly
    // here, not quietly everywhere else.
    EXPECT_EQ(philox::deriveKey(0), 0xbb5d7b1f2ad3793eULL);
    EXPECT_EQ(philox::deriveKey(1), 0x1b3784e8f8ab5602ULL);
    EXPECT_EQ(philox::deriveKey(0x853c49e6748fea9bULL),
              0xf5080dccafd4dadaULL);
    EXPECT_EQ(philox::deriveKey(20170624), 0x17f4ee122d6ee341ULL);
}

TEST(Philox, CounterAndKeyWordLayout)
{
    const philox::Counter c =
        philox::makeCounter(0x1122334455667788ULL, 0xaabbccddeeff0011ULL);
    EXPECT_EQ(c[0], 0xeeff0011u); // block low
    EXPECT_EQ(c[1], 0xaabbccddu); // block high
    EXPECT_EQ(c[2], 0x55667788u); // trial low
    EXPECT_EQ(c[3], 0x11223344u); // trial high

    const philox::Key k = philox::keyWords(0x0123456789abcdefULL);
    EXPECT_EQ(k[0], 0x89abcdefu);
    EXPECT_EQ(k[1], 0x01234567u);
}

TEST(Philox, BlockDrawsPairWordsLowFirst)
{
    const philox::Counter out = {0x00000001u, 0x00000002u, 0x00000003u,
                                 0x00000004u};
    const std::array<uint64_t, 2> draws = philox::blockDraws(out);
    EXPECT_EQ(draws[0], 0x0000000200000001ULL);
    EXPECT_EQ(draws[1], 0x0000000400000003ULL);
}

TEST(Philox, TrialStreamMatchesRawBlocks)
{
    // The Rng facade must be a pure view over the raw Philox layout:
    // draw i of trial t is blockDraws(block(counter(t, i/2), key))[i%2].
    const uint64_t seed = 20170624;
    const philox::Key key = philox::keyWords(philox::deriveKey(seed));
    for (uint64_t trial : {uint64_t{0}, uint64_t{3}, uint64_t{1} << 40}) {
        Rng rng = Rng::trialStream(seed, trial);
        for (uint64_t b = 0; b < 8; ++b) {
            const std::array<uint64_t, 2> draws = philox::blockDraws(
                philox::block(philox::makeCounter(trial, b), key));
            EXPECT_EQ(rng.next(), draws[0]);
            EXPECT_EQ(rng.next(), draws[1]);
        }
    }
}

TEST(Philox, FillRaw64MatchesPerBlockCalls)
{
    const philox::Key key = philox::keyWords(philox::deriveKey(7));
    constexpr size_t kBlocks = 37; // a length that is not a multiple of 4
    uint64_t bulk[2 * kBlocks];
    philox::fillRaw64(key, 5, 11, bulk, kBlocks);
    for (size_t b = 0; b < kBlocks; ++b) {
        const std::array<uint64_t, 2> draws = philox::blockDraws(
            philox::block(philox::makeCounter(5, 11 + b), key));
        EXPECT_EQ(bulk[2 * b], draws[0]) << "block " << b;
        EXPECT_EQ(bulk[2 * b + 1], draws[1]) << "block " << b;
    }
}

TEST(Philox, FillUniformMatchesSequentialDraws)
{
    // Bulk fill must be bit-identical to sequential nextDoubleOpenLow()
    // and leave the generator in the identical state, for every count
    // and buffered-draw phase (an odd number of prior draws leaves the
    // second draw of a block pending).
    for (int pre = 0; pre < 3; ++pre) {
        for (size_t count : {size_t{1}, size_t{2}, size_t{3}, size_t{8},
                             size_t{17}, size_t{40}, size_t{70}}) {
            Rng bulk = Rng::trialStream(99, 4);
            Rng seq = Rng::trialStream(99, 4);
            for (int i = 0; i < pre; ++i)
                ASSERT_EQ(bulk.next(), seq.next());
            std::vector<double> filled(count);
            bulk.fillUniformOpenLow(filled.data(), count);
            for (size_t i = 0; i < count; ++i) {
                const double expect = seq.nextDoubleOpenLow();
                ASSERT_EQ(filled[i], expect)
                    << "pre=" << pre << " count=" << count << " i=" << i;
            }
            // Identical post-state: the next raw draws agree.
            for (int i = 0; i < 4; ++i)
                ASSERT_EQ(bulk.next(), seq.next());
        }
    }
}

TEST(Philox, MinMaxUniformMatchFillAndAdvanceIdentically)
{
    for (int pre = 0; pre < 2; ++pre) {
        for (size_t count : {size_t{1}, size_t{2}, size_t{5}, size_t{16},
                             size_t{40}, size_t{70}, size_t{129}}) {
            Rng fused = Rng::trialStream(1234, 9);
            Rng filled = Rng::trialStream(1234, 9);
            for (int i = 0; i < pre; ++i)
                ASSERT_EQ(fused.next(), filled.next());
            std::vector<double> u(count);
            filled.fillUniformOpenLow(u.data(), count);
            const double lo = fused.minUniformOpenLow(count);
            ASSERT_EQ(lo, *std::min_element(u.begin(), u.end()))
                << "pre=" << pre << " count=" << count;
            for (int i = 0; i < 4; ++i)
                ASSERT_EQ(fused.next(), filled.next());

            Rng fusedMax = Rng::trialStream(1234, 9);
            for (int i = 0; i < pre; ++i)
                (void)fusedMax.next();
            const double hi = fusedMax.maxUniformOpenLow(count);
            ASSERT_EQ(hi, *std::max_element(u.begin(), u.end()))
                << "pre=" << pre << " count=" << count;
        }
    }
}

TEST(Philox, MinMaxRejectZeroCount)
{
    Rng rng = Rng::trialStream(1, 0);
    EXPECT_THROW(rng.minUniformOpenLow(0), std::invalid_argument);
    EXPECT_THROW(rng.maxUniformOpenLow(0), std::invalid_argument);
}

TEST(Philox, AdjacentTrialStreamsAreDistinct)
{
    // 64 adjacent trials x 4096 draws: every 64-bit output distinct.
    // A counter-layout bug (e.g. trial bits colliding with block bits)
    // would repeat blocks across streams and fail immediately.
    std::unordered_set<uint64_t> seen;
    seen.reserve(64 * 4096);
    for (uint64_t trial = 0; trial < 64; ++trial) {
        Rng rng = Rng::trialStream(42, trial);
        for (int i = 0; i < 4096; ++i)
            seen.insert(rng.next());
    }
    EXPECT_EQ(seen.size(), 64u * 4096u);
}

TEST(Philox, TrialStreamsIgnoreDrawOrderAcrossSeeds)
{
    // Different master seeds produce unrelated streams for the same
    // trial index.
    Rng a = Rng::trialStream(1, 17);
    Rng b = Rng::trialStream(2, 17);
    int equal = 0;
    for (int i = 0; i < 1000; ++i)
        if (a.next() == b.next())
            ++equal;
    EXPECT_LT(equal, 2);
}

TEST(Philox, SplitDerivesCounterModeChildren)
{
    const Rng parent = Rng::trialStream(55, 7);
    Rng a = parent.split(0);
    Rng b = parent.split(1);
    int equal = 0;
    for (int i = 0; i < 1000; ++i)
        if (a.next() == b.next())
            ++equal;
    EXPECT_LT(equal, 2);
    // Deterministic: re-deriving gives the identical stream.
    Rng a2 = parent.split(0);
    Rng a3 = parent.split(0);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a2.next(), a3.next());
    // A child is a counter-mode stream: its bulk fill (from an odd
    // position, so the buffered draw and the odd tail both run)
    // matches its own sequential draws.
    Rng sequential = parent.split(2);
    Rng bulk = parent.split(2);
    static_cast<void>(sequential.next());
    static_cast<void>(bulk.next());
    std::vector<double> filled(37);
    bulk.fillUniformOpenLow(filled.data(), filled.size());
    for (double u : filled)
        EXPECT_EQ(u, sequential.nextDoubleOpenLow());
    EXPECT_EQ(bulk.next(), sequential.next());
}

TEST(Philox, SeededStreamMatchesRawBlocks)
{
    // Rng(seed) is the Philox stream keyed on deriveKey(seed) on the
    // reserved trial word: draw i is blockDraws(block(counter(
    // kSeededTrial, i/2), key))[i%2].
    for (uint64_t seed : {uint64_t{0}, uint64_t{42}, uint64_t{20170624}}) {
        const philox::Key key = philox::keyWords(philox::deriveKey(seed));
        Rng rng(seed);
        for (uint64_t b = 0; b < 4; ++b) {
            const std::array<uint64_t, 2> draws = philox::blockDraws(
                philox::block(philox::makeCounter(Rng::kSeededTrial, b),
                              key));
            EXPECT_EQ(rng.next(), draws[0]);
            EXPECT_EQ(rng.next(), draws[1]);
        }
    }
}

TEST(Philox, SeededStreamsNeverReplayTrialStreams)
{
    // Rng(s) and its children sit on the reserved trial word, so no
    // seeded stream shares its first draw with trialStream(s, t).
    for (uint64_t seed : {uint64_t{0}, uint64_t{1}, uint64_t{7},
                          uint64_t{42}, uint64_t{20170624}}) {
        std::set<uint64_t> trialFirsts;
        for (uint64_t t = 0; t < 64; ++t)
            trialFirsts.insert(Rng::trialStream(seed, t).next());
        const Rng seeded(seed);
        EXPECT_EQ(trialFirsts.count(Rng(seed).next()), 0u) << seed;
        for (uint64_t i = 0; i < 64; ++i)
            EXPECT_EQ(trialFirsts.count(seeded.split(i).next()), 0u)
                << seed << " split " << i;
    }
}

TEST(Philox, SimdAndScalarPathsBitIdentical)
{
    if (simd::detectedLevel() == simd::Level::Scalar)
        GTEST_SKIP() << "no SIMD tier available on this build/machine";

    constexpr size_t kCount = 257; // whole steps, a group tail and odd
    std::vector<double> vec(kCount), sca(kCount);
    const philox::Key key = philox::keyWords(philox::deriveKey(3));

    simd::setLevelForTesting(simd::Level::Avx2);
    Rng rv = Rng::trialStream(3, 12);
    rv.fillUniformOpenLow(vec.data(), kCount);
    const double vMin = philox::minUniformOpenLow(key, 12, 0, 33);
    const double vMax = philox::maxUniformOpenLow(key, 12, 0, 33);

    simd::setLevelForTesting(simd::Level::Scalar);
    Rng rs = Rng::trialStream(3, 12);
    rs.fillUniformOpenLow(sca.data(), kCount);
    const double sMin = philox::minUniformOpenLow(key, 12, 0, 33);
    const double sMax = philox::maxUniformOpenLow(key, 12, 0, 33);
    simd::clearLevelForTesting();

    for (size_t i = 0; i < kCount; ++i)
        ASSERT_EQ(vec[i], sca[i]) << "uniform " << i;
    EXPECT_EQ(vMin, sMin);
    EXPECT_EQ(vMax, sMax);
}

TEST(Philox, EveryGeneratorTailMatchesPerBlockCalls)
{
    // Block counts 0 .. 40 reach every shape of the AVX2 pass: whole
    // steps of four (fill) or three (min/max) interleaved groups, one
    // interleaved tail of one to three groups, and zero to three scalar
    // blocks. Each count runs at both dispatch levels, through the raw
    // entry points from an even and an odd first block, and through Rng
    // from an even and an odd stream position (an odd one leaves a
    // buffered second draw pending).
    constexpr uint64_t kSeed = 31;
    constexpr uint64_t kTrial = 6;
    constexpr size_t kMaxBlocks = 40;
    const philox::Key key = philox::keyWords(philox::deriveKey(kSeed));
    // Uniform i of the stream, from one block() call per block; two
    // spare blocks cover the odd offsets and the post-state probe.
    std::vector<double> expect;
    for (uint64_t b = 0; b < kMaxBlocks + 2; ++b)
        for (const uint64_t w : philox::blockDraws(
                 philox::block(philox::makeCounter(kTrial, b), key)))
            expect.push_back(static_cast<double>((w >> 11) + 1) * 0x1.0p-53);
    const auto minOf = [&](size_t from, size_t count) {
        return *std::min_element(expect.data() + from,
                                 expect.data() + from + count);
    };
    const auto maxOf = [&](size_t from, size_t count) {
        return *std::max_element(expect.data() + from,
                                 expect.data() + from + count);
    };

    for (const simd::Level level : {simd::Level::Scalar, simd::Level::Avx2}) {
        simd::setLevelForTesting(level);
        for (size_t odd = 0; odd < 2; ++odd) {
            for (size_t blocks = 0; blocks <= kMaxBlocks; ++blocks) {
                SCOPED_TRACE(testing::Message()
                             << simd::levelName(simd::activeLevel())
                             << " odd=" << odd << " blocks=" << blocks);
                std::vector<double> raw(2 * blocks);
                philox::fillUniformOpenLow(key, kTrial, odd, raw.data(),
                                           blocks);
                for (size_t i = 0; i < raw.size(); ++i)
                    ASSERT_EQ(raw[i], expect[2 * odd + i]) << "i=" << i;
                if (blocks > 0) {
                    EXPECT_EQ(philox::minUniformOpenLow(key, kTrial, odd,
                                                        blocks),
                              minOf(2 * odd, 2 * blocks));
                    EXPECT_EQ(philox::maxUniformOpenLow(key, kTrial, odd,
                                                        blocks),
                              maxOf(2 * odd, 2 * blocks));
                }

                // From an odd position the buffered draw comes first
                // and `blocks` whole blocks follow it.
                const size_t count = 2 * blocks + odd;
                Rng filled = Rng::trialStream(kSeed, kTrial);
                Rng lo = Rng::trialStream(kSeed, kTrial);
                Rng hi = Rng::trialStream(kSeed, kTrial);
                for (size_t i = 0; i < odd; ++i) {
                    (void)filled.next();
                    (void)lo.next();
                    (void)hi.next();
                }
                std::vector<double> u(count);
                filled.fillUniformOpenLow(u.data(), count);
                for (size_t i = 0; i < count; ++i)
                    ASSERT_EQ(u[i], expect[odd + i]) << "i=" << i;
                EXPECT_EQ(filled.nextDoubleOpenLow(), expect[odd + count]);
                if (count > 0) {
                    EXPECT_EQ(lo.minUniformOpenLow(count), minOf(odd, count));
                    EXPECT_EQ(hi.maxUniformOpenLow(count), maxOf(odd, count));
                    EXPECT_EQ(lo.nextDoubleOpenLow(), expect[odd + count]);
                    EXPECT_EQ(hi.nextDoubleOpenLow(), expect[odd + count]);
                }
            }
        }
    }
    simd::clearLevelForTesting();
}

} // namespace
} // namespace lemons
