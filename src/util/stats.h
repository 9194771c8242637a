/**
 * @file
 * Descriptive statistics for Monte Carlo results.
 */

#ifndef LEMONS_UTIL_STATS_H_
#define LEMONS_UTIL_STATS_H_

#include <cstdint>
#include <limits>
#include <vector>

namespace lemons {

/**
 * Streaming mean / variance / extrema accumulator (Welford's method).
 * Constant memory; suitable for millions of Monte Carlo trials.
 *
 * Non-finite observations (NaN, +/-Inf) are quarantined: they are
 * counted in nonFiniteCount() but excluded from every aggregate, so a
 * single poisoned trial cannot turn the mean of a million-trial run
 * into NaN.
 */
class RunningStats
{
  public:
    /**
     * Exact serializable image of an accumulator. Round-tripping
     * through State is bit-preserving (the doubles are copied, never
     * recomputed), which is what lets the fleet checkpoint format
     * persist per-shard accumulators and resume a run bit-identically.
     */
    struct State
    {
        uint64_t count = 0;
        uint64_t nonFiniteCount = 0;
        double mean = 0.0;
        double m2 = 0.0;
        double min = std::numeric_limits<double>::infinity();
        double max = -std::numeric_limits<double>::infinity();
    };

    /** Add one observation; non-finite values are quarantined. */
    void add(double x);

    /**
     * Fold another accumulator into this one (Chan et al. pairwise
     * Welford combination). The result is exactly what a single
     * accumulator would hold up to floating-point reassociation:
     * count/min/max/quarantine are identical, mean/variance agree to
     * rounding. Enables parallel reduction: one RunningStats per
     * worker, merged after the join.
     */
    void merge(const RunningStats &other);

    /** Number of finite observations accumulated so far. */
    uint64_t count() const { return n; }
    /** Number of non-finite observations excluded so far. */
    uint64_t nonFiniteCount() const { return nonFinite; }
    /** Sample mean; 0 when empty. */
    double mean() const { return runningMean; }
    /** Unbiased sample variance; 0 with fewer than two samples. */
    double variance() const;
    /** Sample standard deviation. */
    double stddev() const;
    /** Smallest observation; +inf when empty. */
    double min() const { return minValue; }
    /** Largest observation; -inf when empty. */
    double max() const { return maxValue; }

    /** Exact snapshot of the accumulator for serialization. */
    State state() const;

    /** Rebuild an accumulator from a snapshot (exact inverse). */
    static RunningStats fromState(const State &state);

  private:
    uint64_t n = 0;
    uint64_t nonFinite = 0;
    double runningMean = 0.0;
    double m2 = 0.0;
    // Identity-element defaults (+inf / -inf) keep min()/max() and the
    // serialized State well-defined even for an accumulator that only
    // ever quarantined non-finite samples — reading them must never be
    // undefined behaviour once shards are checkpointed to disk.
    double minValue = std::numeric_limits<double>::infinity();
    double maxValue = -std::numeric_limits<double>::infinity();
};

/**
 * The @p q quantile (0 <= q <= 1) of @p samples by linear interpolation
 * between order statistics. The input is copied; the original order is
 * preserved. @pre samples is non-empty.
 */
double quantile(std::vector<double> samples, double q);

/** Result of a binomial proportion interval estimate. */
struct ProportionInterval
{
    double estimate; ///< successes / trials
    double low;      ///< lower bound
    double high;     ///< upper bound
};

/**
 * Wilson score interval for a binomial proportion.
 *
 * @param successes Number of successes observed.
 * @param trials Number of trials (> 0).
 * @param z Normal quantile for the confidence level (1.96 ~ 95 %).
 */
ProportionInterval wilsonInterval(uint64_t successes, uint64_t trials,
                                  double z = 1.96);

} // namespace lemons

#endif // LEMONS_UTIL_STATS_H_
