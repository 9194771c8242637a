/**
 * @file
 * Two-parameter Weibull wearout model (paper Section 2.2).
 *
 * The time-to-failure x of a wearout device follows
 *   pdf  f(x) = (beta/alpha) (x/alpha)^(beta-1) exp(-(x/alpha)^beta)
 *   cdf  F(x) = 1 - exp(-(x/alpha)^beta)
 *   rel  R(x) = exp(-(x/alpha)^beta)
 * where alpha (scale) approximates the mean time to failure and beta
 * (shape) captures the lifetime variation across devices: large beta
 * means consistent wearout, small beta means high process variation.
 */

#ifndef LEMONS_WEAROUT_WEIBULL_H_
#define LEMONS_WEAROUT_WEIBULL_H_

#include <cstddef>
#include <vector>

#include "util/rng.h"

namespace lemons::wearout {

/**
 * Immutable two-parameter Weibull distribution.
 *
 * All probability queries are pure; sampling draws from a caller-owned
 * Rng so that every simulation stays reproducible.
 */
class Weibull
{
  public:
    /**
     * @param alpha Scale parameter (> 0), in access cycles.
     * @param beta Shape parameter (> 0).
     */
    Weibull(double alpha, double beta);

    /** Scale parameter. */
    double alpha() const { return scale; }
    /** Shape parameter. */
    double beta() const { return shape; }

    /** Probability density at @p x (0 for x < 0). */
    double pdf(double x) const;

    /** Cumulative probability P(T <= x). */
    double cdf(double x) const;

    /** Reliability R(x) = P(T > x) (paper Eq. 3). */
    double reliability(double x) const;

    /** log R(x) = -(x/alpha)^beta; avoids underflow deep in the tail. */
    double logReliability(double x) const;

    /** Hazard rate f(x) / R(x). */
    double hazard(double x) const;

    /**
     * Inverse CDF: the x with F(x) = @p p. @pre 0 <= p < 1.
     */
    double quantile(double p) const;

    /** Mean time to failure: alpha * Gamma(1 + 1/beta). */
    double mttf() const;

    /** Lifetime variance: alpha^2 [Gamma(1+2/b) - Gamma(1+1/b)^2]. */
    double lifetimeVariance() const;

    /** Draw one time-to-failure sample. */
    double sample(Rng &rng) const;

    /**
     * Inverse-CDF transform of a caller-supplied uniform @p u in
     * (0, 1]: sample(rng) == sampleFromUniform(rng.nextDoubleOpenLow()).
     * Lets fault injection share one uniform across candidate
     * distributions (common-random-numbers coupling). Evaluated on the
     * fixed-operation-sequence lemons::fastmath transforms, so sampled
     * streams are bit-stable across libm versions. The engine's bank
     * kernels call it once per selected order statistic.
     */
    double sampleFromUniform(double u) const;

    /** Draw @p count iid samples. */
    std::vector<double> sampleMany(Rng &rng, size_t count) const;

    /**
     * Fit a Weibull to lifetime observations by maximum likelihood
     * (Newton iteration on the shape profile equation). Intended for
     * validating that simulated device populations recover their
     * generating parameters.
     *
     * @param lifetimes Strictly positive observations (>= 2 of them).
     * @return Fitted distribution.
     */
    static Weibull fit(const std::vector<double> &lifetimes);

  private:
    double scale;
    double shape;
    /** 1 / shape, divided once at construction (the inverse-CDF
     *  exponent; keeps the division off the sampling hot path). */
    double invShape;
};

} // namespace lemons::wearout

#endif // LEMONS_WEAROUT_WEIBULL_H_
