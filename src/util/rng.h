/**
 * @file
 * Deterministic, splittable random number generation.
 *
 * All stochastic code in the library draws from lemons::Rng so that
 * every simulation is reproducible from a single 64-bit seed. Two
 * generator modes live behind the one interface:
 *
 *  - xoshiro256** (Blackman & Vigna), seeded through SplitMix64: the
 *    default for ad-hoc / non-trial randomness (fault injection setup,
 *    attacker models, calibration, tests).
 *  - Philox4x32-10 counter mode (Random123): the definitional stream
 *    for Monte Carlo trials. Rng::trialStream(seed, trial) keys the
 *    generator on (seed, trial) and counts draws, so any draw of any
 *    trial is independently computable — the engine's trial kernels
 *    are embarrassingly parallel with zero chunk-order coupling, and
 *    the batched fillUniformOpenLow path can generate blocks with
 *    AVX2 while staying bit-identical to sequential next() calls.
 *
 * See util/philox.h for the counter layout and ARCHITECTURE.md for the
 * stream contract.
 */

#ifndef LEMONS_UTIL_RNG_H_
#define LEMONS_UTIL_RNG_H_

#include <array>
#include <cstddef>
#include <cstdint>

namespace lemons {

/**
 * Pseudo-random generator: xoshiro256** with SplitMix64 seeding, or
 * Philox4x32-10 counter mode for trial streams.
 *
 * Satisfies the subset of the UniformRandomBitGenerator concept the
 * library needs; not intended for cryptographic use (the crypto module
 * documents its own randomness requirements).
 */
class Rng
{
  public:
    using result_type = uint64_t;

    /** Construct an xoshiro generator from a 64-bit seed. */
    explicit Rng(uint64_t seed = 0x853c49e6748fea9bULL);

    /**
     * The counter-based stream of Monte Carlo trial @p trial under
     * master @p seed: Philox4x32-10 keyed on (seed, trial, draw). This
     * is the engine's definitional trial stream — bit-identical
     * regardless of thread count, chunk size, SIMD dispatch or
     * checkpoint/resume, because draw i of trial t is a pure function
     * of (seed, t, i).
     */
    static Rng trialStream(uint64_t seed, uint64_t trial);

    /** True when this generator runs in Philox counter mode. */
    bool isCounterBased() const { return mode == Mode::Philox; }

    /** Smallest value next() can return. */
    static constexpr result_type min() { return 0; }
    /** Largest value next() can return. */
    static constexpr result_type max() { return ~uint64_t{0}; }

    /** Next raw 64-bit output. */
    uint64_t next();

    /** UniformRandomBitGenerator interface. */
    result_type operator()() { return next(); }

    /** Uniform double in [0, 1). */
    double nextDouble();

    /**
     * Uniform double in (0, 1]; never returns exactly zero, which makes
     * it safe as input to logarithms (e.g. inverse-CDF sampling).
     */
    double nextDoubleOpenLow();

    /**
     * Fill @p out[0 .. count) with uniforms in (0, 1], bit-identical to
     * @p count sequential nextDoubleOpenLow() calls (the generator
     * state advances exactly as if they had been made). In counter
     * mode the Philox blocks are generated in bulk — with AVX2 when
     * the runtime dispatch allows — which is the fast path of the
     * engine's structure-of-arrays kernels.
     */
    void fillUniformOpenLow(double *out, size_t count);

    /**
     * Minimum / maximum of the next @p count uniforms in (0, 1],
     * advancing the stream exactly as fillUniformOpenLow(out, count)
     * would, without materializing the array. The extremum of a set of
     * exact doubles does not depend on reduction order, so the value
     * equals a scalar min/max over the filled array at any SIMD
     * dispatch level — the fused fast path of the k = 1 / k = n
     * order-statistic kernels. @pre count > 0.
     */
    double minUniformOpenLow(size_t count);
    double maxUniformOpenLow(size_t count);

    /** Uniform integer in [0, bound). @pre bound > 0. */
    uint64_t nextBelow(uint64_t bound);

    /** Bernoulli draw: true with probability @p p (clamped to [0,1]). */
    bool nextBernoulli(double p);

    /** Standard normal draw (Marsaglia polar method). */
    double nextGaussian();

    /**
     * Derive the @p index -th child stream. Children of the same parent
     * with distinct indices are statistically independent streams, and
     * deriving is order-independent, so parallel Monte Carlo trials stay
     * reproducible. A counter-mode parent derives counter-mode children
     * (fresh key, draw counter reset); an xoshiro parent derives
     * xoshiro children.
     */
    Rng split(uint64_t index) const;

  private:
    enum class Mode : uint8_t { Xoshiro, Philox };

    /** Counter-mode constructor: see trialStream(). */
    Rng(uint64_t key, uint64_t trial, Mode tag);

    /** Shared body of minUniformOpenLow / maxUniformOpenLow. */
    double extremeUniformOpenLow(size_t count, bool max);

    /**
     * Mode-dependent state layout. Xoshiro: the four xoshiro256**
     * state words. Philox: [key, trial, next block index, buffered
     * second draw of the last block].
     */
    std::array<uint64_t, 4> state;
    static constexpr size_t kKeyWord = 0;
    static constexpr size_t kTrialWord = 1;
    static constexpr size_t kBlockWord = 2;
    static constexpr size_t kBufferedWord = 3;

    /** Seed material retained so split() can derive children. */
    uint64_t seedValue;
    /** Cached second output of the polar method, NaN when empty. */
    double cachedGaussian;
    Mode mode = Mode::Xoshiro;
    bool hasCachedGaussian = false;
    /** Philox mode: second draw of the current block is pending. */
    bool hasBufferedDraw = false;
};

} // namespace lemons

#endif // LEMONS_UTIL_RNG_H_
