#include "fault/faulty_device.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/require.h"
#include "wearout/weibull.h"

namespace lemons::fault {

// glitchRate is 0, so the glitch stream is never drawn.
FaultyNemsSwitch::FaultyNemsSwitch(double lifetime)
    : inner(lifetime), glitchStream(0)
{
}

FaultyNemsSwitch::FaultyNemsSwitch(const FaultyLifetime &fate,
                                   double glitchRate_, uint64_t glitchSeed)
    : inner(fate.lifetime), faultMode(fate.mode), glitchRate(glitchRate_),
      glitchStream(glitchSeed)
{
    requireArg(glitchRate_ >= 0.0 && glitchRate_ <= 1.0,
               "FaultyNemsSwitch: glitchRate outside [0, 1]");
}

bool
FaultyNemsSwitch::actuate()
{
    if (glitchRate > 0.0 && glitchStream.nextBernoulli(glitchRate)) {
        // Transient misfire: the read fails but the contact did not
        // cycle, so no lifetime is consumed and the switch recovers.
        ++glitches;
        return false;
    }
    return inner.actuate();
}

bool
FaultyNemsSwitch::alive() const
{
    if (stuckClosed())
        return true;
    return !inner.failed() && inner.aliveAt(inner.cyclesUsed() + 1);
}

FaultyDeviceFactory::FaultyDeviceFactory(const wearout::DeviceFactory &base,
                                         const FaultPlan &plan)
    : baseFactory(base), faultPlan(plan)
{
    faultPlan.validate();
}

FaultyLifetime
FaultyDeviceFactory::sampleFaultyLifetime(Rng &rng) const
{
    // Null plans must reproduce the unfaulted simulator bit for bit:
    // take the base path without consuming any extra draws.
    if (faultPlan.isNull())
        return {baseFactory.sampleLifetime(rng), DeviceFaultMode::None};

    wearout::DeviceSpec spec = baseFactory.sampleDeviceSpec(rng);
    if (faultPlan.alphaDriftSigma > 0.0)
        spec.alpha *= std::exp(faultPlan.alphaDriftSigma * rng.nextGaussian());
    if (faultPlan.betaDriftSigma > 0.0)
        spec.beta *= std::exp(faultPlan.betaDriftSigma * rng.nextGaussian());

    const bool stuck = faultPlan.stuckClosedRate > 0.0 &&
                       rng.nextDouble() < faultPlan.stuckClosedRate;
    const bool infant = faultPlan.infantFraction > 0.0 &&
                        rng.nextDouble() < faultPlan.infantFraction;

    // One shared uniform drives the lifetime regardless of which
    // distribution applies (and is drawn even for stuck-closed
    // devices): plans differing only in their rates then see identical
    // draw sequences, which couples them by common random numbers.
    const double u = rng.nextDoubleOpenLow();
    if (stuck) {
        return {std::numeric_limits<double>::infinity(),
                DeviceFaultMode::StuckClosed};
    }
    const double healthy =
        wearout::Weibull(spec.alpha, spec.beta).sampleFromUniform(u);
    if (infant) {
        // Competing risks: the defect adds an early-failure mechanism
        // on top of (not instead of) the wearout mechanism, so the
        // device dies at the earlier of the two. Taking the min also
        // keeps the infant leg's heavy tail (shape < 1) from letting a
        // "defective" device outlive its healthy counterpart.
        const wearout::Weibull early(
            faultPlan.infantScaleFraction * spec.alpha,
            faultPlan.infantShape);
        return {std::min(healthy, early.sampleFromUniform(u)),
                DeviceFaultMode::InfantMortality};
    }
    return {healthy, DeviceFaultMode::None};
}

double
FaultyDeviceFactory::sampleLifetime(Rng &rng) const
{
    if (faultPlan.isNull())
        return baseFactory.sampleLifetime(rng);
    return sampleFaultyLifetime(rng).lifetime;
}

wearout::BathtubModel
FaultyDeviceFactory::populationModel() const
{
    const wearout::DeviceSpec &spec = baseFactory.spec();
    const wearout::Weibull early(faultPlan.infantScaleFraction * spec.alpha,
                                 faultPlan.infantShape);
    return wearout::BathtubModel(faultPlan.infantFraction, early,
                                 baseFactory.nominalModel());
}

double
FaultyDeviceFactory::populationReliability(double x) const
{
    const wearout::BathtubModel bathtub = populationModel();
    const double rMain = bathtub.main().reliability(x);
    const double rInfant = std::min(bathtub.infant().reliability(x), rMain);
    const double rMortal = faultPlan.infantFraction * rInfant +
                           (1.0 - faultPlan.infantFraction) * rMain;
    return faultPlan.stuckClosedRate +
           (1.0 - faultPlan.stuckClosedRate) * rMortal;
}

FaultyNemsSwitch
FaultyDeviceFactory::fabricate(Rng &rng) const
{
    const FaultyLifetime fate = sampleFaultyLifetime(rng);
    if (faultPlan.glitchRate > 0.0)
        return FaultyNemsSwitch(fate, faultPlan.glitchRate, rng.next());
    return FaultyNemsSwitch(fate, 0.0, 0);
}

std::vector<FaultyNemsSwitch>
FaultyDeviceFactory::fabricateMany(Rng &rng, size_t count) const
{
    std::vector<FaultyNemsSwitch> out;
    out.reserve(count);
    for (size_t i = 0; i < count; ++i)
        out.push_back(fabricate(rng));
    return out;
}

} // namespace lemons::fault
