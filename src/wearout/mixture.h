/**
 * @file
 * Bathtub-curve lifetime model: infant mortality mixed with wearout.
 *
 * Section 7 ("Limitations") notes that the Weibull model, however
 * parameterized, needs experimental validation — real populations may
 * deviate. The classic deviation in the reliability literature is the
 * bathtub curve: a fraction of devices dies early (decreasing hazard,
 * shape < 1) while the rest follow the designed wearout distribution.
 * This model lets the sensitivity benches ask: how badly do designs
 * solved under the pure-Weibull assumption degrade when the fab
 * actually ships a bathtub population?
 */

#ifndef LEMONS_WEAROUT_MIXTURE_H_
#define LEMONS_WEAROUT_MIXTURE_H_

#include "util/rng.h"
#include "wearout/weibull.h"

namespace lemons::wearout {

/**
 * Two-component lifetime mixture:
 *   R(x) = w * R_infant(x) + (1 - w) * R_main(x).
 */
class BathtubModel
{
  public:
    /**
     * @param infantFraction Weight w of the infant-mortality component
     *        in [0, 1].
     * @param infant Early-failure distribution (typically shape < 1).
     * @param main The designed wearout distribution.
     */
    BathtubModel(double infantFraction, const Weibull &infant,
                 const Weibull &main);

    /** Mixture weight of the infant component. */
    double infantFraction() const { return weight; }
    /** The infant-mortality component. */
    const Weibull &infant() const { return infantComponent; }
    /** The wearout component. */
    const Weibull &main() const { return mainComponent; }

    /** Mixture reliability P(T > x). */
    double reliability(double x) const;

    /**
     * Mixture CDF, summed from the components' CDFs so that it keeps
     * full relative precision where the reliability rounds to 1.
     */
    double cdf(double x) const;

    /** Mixture density. */
    double pdf(double x) const;

    /** Mixture mean time to failure. */
    double mttf() const;

    /** Draw one lifetime. */
    double sample(Rng &rng) const;

    /**
     * A convenience instance: fraction @p w of devices fail with
     * Exponential-ish infant mortality at 10 % of the main scale; the
     * rest follow @p main.
     */
    static BathtubModel withInfantMortality(const Weibull &main, double w);

  private:
    double weight;
    Weibull infantComponent;
    Weibull mainComponent;
};

} // namespace lemons::wearout

#endif // LEMONS_WEAROUT_MIXTURE_H_
