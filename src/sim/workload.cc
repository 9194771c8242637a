#include "sim/workload.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

#include "obs/metrics.h"
#include "util/math.h"
#include "util/require.h"

namespace lemons::sim {

namespace {

/** Largest Poisson mean accepted, of one day or of a whole horizon:
 *  draws, budgets and the budget search's doubling all stay inside
 *  uint64_t below it. */
constexpr double kMaxMean = 0x1p62;

/**
 * The profile checks of lint L601-L603, plus a horizon of at least one
 * day whose peak mean demand (every day a burst day) is at most
 * kMaxMean. @p caller prefixes the message.
 */
void
requireValidProfile(const UsageProfile &profile, uint64_t horizonDays,
                    const char *caller)
{
    const char *problem = nullptr;
    if (!(profile.meanPerDay > 0.0 && std::isfinite(profile.meanPerDay)))
        problem = "meanPerDay must be positive and finite";
    else if (!(profile.burstProbability >= 0.0 &&
               profile.burstProbability <= 1.0))
        problem = "burstProbability outside [0, 1]";
    else if (!(profile.burstMultiplier >= 1.0 &&
               std::isfinite(profile.burstMultiplier)))
        problem = "burstMultiplier must be finite and >= 1";
    else if (horizonDays < 1)
        problem = "horizon must be >= 1 day";
    else if (!(profile.meanPerDay * profile.burstMultiplier *
                   static_cast<double>(horizonDays) <=
               kMaxMean))
        problem = "mean demand over the horizon exceeds 2^62";
    if (problem != nullptr)
        throw std::invalid_argument(std::string(caller) + ": " + problem);
}

/** Exact P(total demand over the horizon <= budget) for a validated
 *  profile. */
double
exactSurvival(const UsageProfile &profile, uint64_t budgetAccesses,
              uint64_t horizonDays)
{
    // The device survives exactly when the horizon's total demand fits
    // the budget. Given B burst days that total is one Poisson draw of
    // mean lambda (d + (m - 1) B), so survival is the Binomial(d, p)
    // mixture of Poisson CDFs. A multiplier of 1 makes every B alike.
    const double p =
        profile.burstMultiplier > 1.0 ? profile.burstProbability : 0.0;
    const double days = static_cast<double>(horizonDays);
    double survival = 0.0;
    double total = 0.0;
    // Adds the term for @p bursts; false once its pmf is below double
    // underflow, which ends the walk out from the Binomial mode.
    const auto addTerm = [&](uint64_t bursts) {
        const double weight =
            std::exp(logBinomialPmf(horizonDays, bursts, p));
        if (weight < std::numeric_limits<double>::min())
            return false;
        total += weight;
        survival += weight *
                    poissonCdf(budgetAccesses,
                               profile.meanPerDay *
                                   (days + (profile.burstMultiplier - 1.0) *
                                               static_cast<double>(bursts)));
        return true;
    };
    const uint64_t mode = std::min(
        horizonDays, static_cast<uint64_t>((days + 1.0) * p));
    for (uint64_t bursts = mode; bursts <= horizonDays && addTerm(bursts);
         ++bursts) {
    }
    for (uint64_t bursts = mode; bursts-- > 0 && addTerm(bursts);) {
    }
    // Dividing by the summed pmf cancels the rounding lgamma leaves in
    // every weight alike.
    return std::min(1.0, survival / total);
}

} // namespace

uint64_t
poissonSample(Rng &rng, double mean)
{
    requireArg(mean >= 0.0 && mean <= kMaxMean,
               "poissonSample: mean must be in [0, 2^62]");
    LEMONS_OBS_INCREMENT("sim.poisson.samples");
    if (mean == 0.0)
        return 0;
    if (mean < 10.0) {
        // Knuth's product-of-uniforms method (PTRS needs mean >= 10).
        const double limit = std::exp(-mean);
        uint64_t count = 0;
        double product = rng.nextDoubleOpenLow();
        while (product > limit) {
            ++count;
            product *= rng.nextDoubleOpenLow();
        }
        return count;
    }
    // PTRS, transformed rejection with squeeze (Hormann 1993): about
    // 1.1 uniform pairs per draw at any mean, and exact.
    const double b = 0.931 + 2.53 * std::sqrt(mean);
    const double a = -0.059 + 0.02483 * b;
    const double logInvAlpha = std::log(1.1239 + 1.1328 / (b - 3.4));
    const double vr = 0.9277 - 3.6224 / (b - 2.0);
    for (;;) {
        const double u = rng.nextDouble() - 0.5;
        const double v = rng.nextDouble();
        const double us = 0.5 - std::abs(u);
        const double k = std::floor((2.0 * a / us + b) * u + mean + 0.43);
        if (us >= 0.07 && v <= vr)
            return static_cast<uint64_t>(k);
        if (k < 0.0 || k >= 0x1p63 || (us < 0.013 && v > us))
            continue;
        if (std::log(v) + logInvAlpha - std::log(a / (us * us) + b) <=
            logPoissonPmf(static_cast<uint64_t>(k), mean))
            return static_cast<uint64_t>(k);
    }
}

double
UsageProfile::effectiveDailyMean() const
{
    return meanPerDay *
           (1.0 + burstProbability * (burstMultiplier - 1.0));
}

LifetimeOutcome
simulateUsage(const UsageProfile &profile, uint64_t budgetAccesses,
              uint64_t horizonDays, Rng &rng)
{
    requireValidProfile(profile, horizonDays, "simulateUsage");

    LifetimeOutcome outcome;
    uint64_t remaining = budgetAccesses;
    for (uint64_t day = 0; day < horizonDays; ++day) {
        double rate = profile.meanPerDay;
        if (profile.burstProbability > 0.0 &&
            rng.nextBernoulli(profile.burstProbability))
            rate *= profile.burstMultiplier;
        const uint64_t wanted = poissonSample(rng, rate);
        if (wanted > remaining) {
            outcome.accessesServed += remaining;
            outcome.daysServed = day;
            return outcome; // exhausted mid-day
        }
        remaining -= wanted;
        outcome.accessesServed += wanted;
    }
    outcome.survivedHorizon = true;
    outcome.daysServed = horizonDays;
    return outcome;
}

ProportionInterval
survivalProbability(const UsageProfile &profile, uint64_t budgetAccesses,
                    uint64_t horizonDays, const MonteCarlo &)
{
    requireValidProfile(profile, horizonDays, "survivalProbability");
    const double p = exactSurvival(profile, budgetAccesses, horizonDays);
    return {p, p, p};
}

uint64_t
budgetForSurvival(const UsageProfile &profile, uint64_t horizonDays,
                  double targetProbability, const MonteCarlo &)
{
    requireValidProfile(profile, horizonDays, "budgetForSurvival");
    requireArg(targetProbability > 0.0 && targetProbability < 1.0,
               "budgetForSurvival: target outside (0, 1)");

    auto survives = [&](uint64_t budget) {
        return exactSurvival(profile, budget, horizonDays) >=
               targetProbability;
    };

    // Start near the mean demand and search outward.
    uint64_t hi = std::max<uint64_t>(
        1, static_cast<uint64_t>(profile.effectiveDailyMean() *
                                 static_cast<double>(horizonDays)));
    uint64_t lo = 0;
    while (!survives(hi)) {
        lo = hi;
        hi *= 2;
    }
    while (hi - lo > 1) {
        const uint64_t mid = lo + (hi - lo) / 2;
        if (survives(mid))
            hi = mid;
        else
            lo = mid;
    }
    return hi;
}

} // namespace lemons::sim
