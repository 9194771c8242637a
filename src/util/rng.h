/**
 * @file
 * Deterministic, splittable random number generation.
 *
 * All stochastic code in the library draws from lemons::Rng so that
 * every simulation is reproducible from a single 64-bit seed. Every
 * Rng is one Philox4x32-10 counter-mode stream (Random123): a key and
 * a trial word name the stream, and draw i is a pure function of
 * (key, trial, i).
 *
 *  - Rng::trialStream(seed, trial) is the definitional stream of Monte
 *    Carlo trial @p trial, so the engine's trial kernels are
 *    embarrassingly parallel with zero chunk-order coupling, and the
 *    batched fillUniformOpenLow path can generate blocks with AVX2
 *    while staying bit-identical to sequential next() calls.
 *  - Rng(seed) serves non-trial randomness (cohort seeds, fault glitch
 *    streams, attacker models, calibration, tests). It sits on the
 *    reserved trial word kSeededTrial, which no engine trial reaches,
 *    so a seeded stream never replays a trial stream of the same seed.
 *
 * See util/philox.h for the counter layout and ARCHITECTURE.md for the
 * stream contract.
 */

#ifndef LEMONS_UTIL_RNG_H_
#define LEMONS_UTIL_RNG_H_

#include <cstddef>
#include <cstdint>

namespace lemons {

/**
 * Pseudo-random generator: one Philox4x32-10 counter-mode stream.
 *
 * Satisfies the subset of the UniformRandomBitGenerator concept the
 * library needs; not intended for cryptographic use (the crypto module
 * documents its own randomness requirements).
 */
class Rng
{
  public:
    using result_type = uint64_t;

    /** Trial word of every Rng(seed) stream and its split() children. */
    static constexpr uint64_t kSeededTrial = ~uint64_t{0};

    /** The seeded stream: Philox keyed on deriveKey(seed), kSeededTrial. */
    explicit Rng(uint64_t seed);

    /**
     * The counter-based stream of Monte Carlo trial @p trial under
     * master @p seed: Philox4x32-10 keyed on (seed, trial, draw). This
     * is the engine's definitional trial stream — bit-identical
     * regardless of thread count, chunk size, SIMD dispatch or
     * checkpoint/resume, because draw i of trial t is a pure function
     * of (seed, t, i).
     */
    static Rng trialStream(uint64_t seed, uint64_t trial);

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
     * state advances exactly as if they had been made). The Philox
     * blocks are generated in bulk — with AVX2 when the runtime
     * dispatch allows — which is the fast path of the engine's
     * structure-of-arrays kernels.
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
     * Derive the @p index -th child stream: a fresh key, the parent's
     * trial word and a reset draw counter. Children of the same parent
     * with distinct indices are statistically independent streams, and
     * deriving is order-independent, so parallel Monte Carlo trials stay
     * reproducible.
     */
    Rng split(uint64_t index) const;

  private:
    /** The stream (key, trial) at draw 0. */
    Rng(uint64_t key, uint64_t trial);

    /** Shared body of minUniformOpenLow / maxUniformOpenLow. */
    double extremeUniformOpenLow(size_t count, bool max);

    uint64_t streamKey;
    uint64_t trialWord;
    /** Index of the next Philox block to generate. */
    uint64_t blockIndex = 0;
    /** Second draw of the last block, pending when hasBufferedDraw. */
    uint64_t bufferedDraw = 0;
    /** Cached second output of the polar method. */
    double cachedGaussian = 0.0;
    bool hasCachedGaussian = false;
    bool hasBufferedDraw = false;
};

} // namespace lemons

#endif // LEMONS_UTIL_RNG_H_
