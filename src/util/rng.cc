#include "util/rng.h"

#include <algorithm>
#include <cmath>

#include "util/philox.h"
#include "util/require.h"

namespace lemons {

namespace {

/** The (u >> 11) + 1 grid point in (0, 1]; shared by every uniform path. */
inline double
toDoubleOpenLow(uint64_t word)
{
    // (u + 1) / 2^53 lies in (0, 1]; u + 1 cannot overflow 53 bits + 1.
    return static_cast<double>((word >> 11) + 1) * 0x1.0p-53;
}

/**
 * Child-key derivation: mix (parent, index) through SplitMix64 twice
 * so nearby pairs map to well-separated children.
 */
uint64_t
deriveChild(uint64_t parent, uint64_t index)
{
    uint64_t x = parent ^ (0x9e3779b97f4a7c15ULL + index);
    uint64_t child = philox::splitMix64(x);
    child ^= philox::splitMix64(x);
    return child;
}

} // namespace

Rng::Rng(uint64_t seed) : Rng(philox::deriveKey(seed), kSeededTrial) {}

Rng::Rng(uint64_t key, uint64_t trial) : streamKey(key), trialWord(trial) {}

Rng
Rng::trialStream(uint64_t seed, uint64_t trial)
{
    return Rng(philox::deriveKey(seed), trial);
}

uint64_t
Rng::next()
{
    if (hasBufferedDraw) {
        hasBufferedDraw = false;
        return bufferedDraw;
    }
    const std::array<uint64_t, 2> draws = philox::blockDraws(
        philox::block(philox::makeCounter(trialWord, blockIndex),
                      philox::keyWords(streamKey)));
    ++blockIndex;
    bufferedDraw = draws[1];
    hasBufferedDraw = true;
    return draws[0];
}

double
Rng::nextDouble()
{
    // 53 top bits -> uniform in [0, 1) on the double grid.
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double
Rng::nextDoubleOpenLow()
{
    return toDoubleOpenLow(next());
}

void
Rng::fillUniformOpenLow(double *out, size_t count)
{
    size_t filled = 0;
    if (hasBufferedDraw && count > 0) {
        hasBufferedDraw = false;
        out[filled++] = toDoubleOpenLow(bufferedDraw);
    }

    // Bulk-generate whole blocks (two draws each) straight into the
    // output through the dispatched Philox batch with its fused (and
    // exact) uniform conversion; the stream position advances exactly
    // as sequential next() calls would.
    const philox::Key key = philox::keyWords(streamKey);
    const size_t wholeBlocks = (count - filled) / 2;
    if (wholeBlocks > 0) {
        philox::fillUniformOpenLow(key, trialWord, blockIndex,
                                   out + filled, wholeBlocks);
        blockIndex += wholeBlocks;
        filled += 2 * wholeBlocks;
    }

    if (filled < count) {
        // Odd tail: consume the first draw of one more block and leave
        // its second draw buffered, like next() does.
        uint64_t raw[2];
        philox::fillRaw64(key, trialWord, blockIndex, raw, 1);
        ++blockIndex;
        out[filled] = toDoubleOpenLow(raw[0]);
        bufferedDraw = raw[1];
        hasBufferedDraw = true;
    }
}

double
Rng::minUniformOpenLow(size_t count)
{
    requireArg(count > 0, "Rng::minUniformOpenLow: count must be > 0");
    return extremeUniformOpenLow(count, false);
}

double
Rng::maxUniformOpenLow(size_t count)
{
    requireArg(count > 0, "Rng::maxUniformOpenLow: count must be > 0");
    return extremeUniformOpenLow(count, true);
}

double
Rng::extremeUniformOpenLow(size_t count, bool max)
{
    // Uniforms lie in (0, 1]: 1.0 is the identity of their minimum, and
    // any uniform replaces the 0.0 seed of their maximum.
    double result = max ? 0.0 : 1.0;
    const auto fold = [&result, max](double u) {
        result = max ? std::max(result, u) : std::min(result, u);
    };
    size_t remaining = count;
    if (hasBufferedDraw) {
        hasBufferedDraw = false;
        fold(toDoubleOpenLow(bufferedDraw));
        --remaining;
    }
    const philox::Key key = philox::keyWords(streamKey);
    const size_t wholeBlocks = remaining / 2;
    if (wholeBlocks > 0) {
        fold(max ? philox::maxUniformOpenLow(key, trialWord,
                                             blockIndex, wholeBlocks)
                 : philox::minUniformOpenLow(key, trialWord,
                                             blockIndex, wholeBlocks));
        blockIndex += wholeBlocks;
        remaining -= 2 * wholeBlocks;
    }
    if (remaining > 0)
        fold(nextDoubleOpenLow());
    return result;
}

uint64_t
Rng::nextBelow(uint64_t bound)
{
    requireArg(bound > 0, "Rng::nextBelow: bound must be positive");
    // Rejection sampling to remove modulo bias.
    const uint64_t threshold = (~bound + 1) % bound; // (2^64 - bound) mod bound
    for (;;) {
        const uint64_t r = next();
        if (r >= threshold)
            return r % bound;
    }
}

bool
Rng::nextBernoulli(double p)
{
    if (p <= 0.0)
        return false;
    if (p >= 1.0)
        return true;
    return nextDouble() < p;
}

double
Rng::nextGaussian()
{
    if (hasCachedGaussian) {
        hasCachedGaussian = false;
        return cachedGaussian;
    }
    double u, v, s;
    do {
        u = 2.0 * nextDouble() - 1.0;
        v = 2.0 * nextDouble() - 1.0;
        s = u * u + v * v;
    } while (s >= 1.0 || s == 0.0);
    const double factor = std::sqrt(-2.0 * std::log(s) / s);
    cachedGaussian = v * factor;
    hasCachedGaussian = true;
    return u * factor;
}

Rng
Rng::split(uint64_t index) const
{
    // A fresh key gives an independent Philox permutation; the trial
    // word carries over so children of different trials stay on
    // disjoint streams even if their derived keys collided, and no
    // child of a seeded stream lands on a trial stream.
    return Rng(deriveChild(streamKey, index), trialWord);
}

} // namespace lemons
