#include "wearout/mixture.h"

#include "obs/metrics.h"
#include "util/require.h"

namespace lemons::wearout {

BathtubModel::BathtubModel(double infantFraction, const Weibull &infant,
                           const Weibull &main)
    : weight(infantFraction), infantComponent(infant), mainComponent(main)
{
    requireArg(infantFraction >= 0.0 && infantFraction <= 1.0,
               "BathtubModel: infant fraction outside [0, 1]");
}

double
BathtubModel::reliability(double x) const
{
    return weight * infantComponent.reliability(x) +
           (1.0 - weight) * mainComponent.reliability(x);
}

double
BathtubModel::cdf(double x) const
{
    return weight * infantComponent.cdf(x) +
           (1.0 - weight) * mainComponent.cdf(x);
}

double
BathtubModel::pdf(double x) const
{
    return weight * infantComponent.pdf(x) +
           (1.0 - weight) * mainComponent.pdf(x);
}

double
BathtubModel::mttf() const
{
    return weight * infantComponent.mttf() +
           (1.0 - weight) * mainComponent.mttf();
}

double
BathtubModel::sample(Rng &rng) const
{
    LEMONS_OBS_INCREMENT("wearout.mixture.samples");
    const bool infantDraw = rng.nextBernoulli(weight);
    return infantDraw ? infantComponent.sample(rng)
                      : mainComponent.sample(rng);
}

BathtubModel
BathtubModel::withInfantMortality(const Weibull &main, double w)
{
    // Shape 0.8 (decreasing hazard), scale 10% of the main lifetime:
    // the canonical early-failure leg of the bathtub.
    const Weibull infant(0.1 * main.alpha(), 0.8);
    return BathtubModel(w, infant, main);
}

} // namespace lemons::wearout
