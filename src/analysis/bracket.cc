#include "analysis/bracket.h"

#include <algorithm>
#include <cmath>

namespace lemons::analysis {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/** Endpoint product that defines 0 * inf = 0 (absorbing scale). */
double
scaleEndpoint(double endpoint, double factor)
{
    if (factor == 0.0 || endpoint == 0.0)
        return 0.0;
    return endpoint * factor;
}

/** NaN-proof normalization: any NaN endpoint collapses to top. */
AccessBracket
normalize(AccessBracket bracket)
{
    if (std::isnan(bracket.lo) || std::isnan(bracket.hi) ||
        bracket.lo > bracket.hi)
        return AccessBracket::top();
    bracket.lo = std::max(0.0, bracket.lo);
    return bracket;
}

} // namespace

AccessBracket
add(AccessBracket a, AccessBracket b)
{
    return normalize({a.lo + b.lo, a.hi + b.hi});
}

AccessBracket
scale(AccessBracket a, double factor)
{
    if (!(factor >= 0.0) || !std::isfinite(factor))
        return AccessBracket::top();
    return normalize(
        {scaleEndpoint(a.lo, factor), scaleEndpoint(a.hi, factor)});
}

AccessBracket
meetMin(AccessBracket a, AccessBracket b)
{
    return normalize({std::min(a.lo, b.lo), std::min(a.hi, b.hi)});
}

AccessBracket
join(AccessBracket a, AccessBracket b)
{
    return normalize({std::min(a.lo, b.lo), std::max(a.hi, b.hi)});
}

AccessBracket
widen(AccessBracket a, AccessBracket b)
{
    AccessBracket widened;
    widened.lo = b.lo < a.lo ? 0.0 : a.lo;
    widened.hi = b.hi > a.hi ? kInf : a.hi;
    return normalize(widened);
}

DailyDemand
workloadDailyDemand(const lint::WorkloadSpec &workload)
{
    const double m = workload.meanPerDay;
    const double p = workload.burstProbability;
    const double b = workload.burstMultiplier;
    if (!(m > 0.0) || !std::isfinite(m) || std::isnan(p) ||
        std::isnan(b) || !std::isfinite(b))
        return {0.0, 0.0};
    const double pc = std::clamp(p, 0.0, 1.0);
    const double extra = m * (std::max(b, 1.0) - 1.0);
    DailyDemand day;
    day.mean = m + pc * extra;
    // Law of total variance: Poisson within a day-type, Bernoulli
    // burst indicator between day-types.
    day.variance = day.mean + pc * (1.0 - pc) * extra * extra;
    return day;
}

AccessBracket
workloadDemand(const lint::WorkloadSpec &workload, uint64_t horizonDays)
{
    const DailyDemand day = workloadDailyDemand(workload);
    if (!(day.mean > 0.0))
        return AccessBracket::top();
    const double days = static_cast<double>(horizonDays);
    const double mean = days * day.mean;
    const double spread =
        kDemandSigmas * std::sqrt(days * day.variance);
    if (!std::isfinite(mean) || !std::isfinite(spread))
        return AccessBracket::top();
    return {std::max(0.0, mean - spread), mean + spread};
}

AccessBracket
unboundedHorizonDemand(const lint::WorkloadSpec &workload)
{
    const AccessBracket day = workloadDemand(workload, 1);
    if (day.isTop())
        return AccessBracket::top();
    // Textbook widening fixpoint of the one-day transfer function.
    // The chain [d.lo, d.hi], [d.lo, 2 d.hi], ... never stabilizes on
    // its own; widening jumps the climbing endpoint to +inf, after
    // which x = widen(x, join(x, x + day)) holds and the loop exits.
    AccessBracket state = day;
    for (int step = 0; step < 64; ++step) {
        const AccessBracket next =
            widen(state, join(state, add(state, day)));
        if (next.lo == state.lo && next.hi == state.hi)
            return state;
        state = next;
    }
    return AccessBracket::top();
}

namespace {

/** ln E[exp(t * X)] for one day's access count X under the burst
 *  mixture: log-sum-exp of the two Poisson MGF legs. */
double
dailyLogMgf(double m, double p, double b, double t)
{
    const double base = m * std::expm1(t);
    const double burst = m * std::max(b, 1.0) * std::expm1(t);
    if (p <= 0.0)
        return base;
    if (p >= 1.0)
        return burst;
    const double legBase = std::log1p(-p) + base;
    const double legBurst = std::log(p) + burst;
    const double peak = std::max(legBase, legBurst);
    return peak + std::log(std::exp(legBase - peak) +
                           std::exp(legBurst - peak));
}

} // namespace

double
demandTailBound(const lint::WorkloadSpec &workload, uint64_t horizonDays,
                double threshold, bool above)
{
    const double m = workload.meanPerDay;
    const double p = std::clamp(workload.burstProbability, 0.0, 1.0);
    const double b = workload.burstMultiplier;
    if (!(m > 0.0) || !std::isfinite(m) || std::isnan(p) ||
        std::isnan(b) || !std::isfinite(b) || std::isnan(threshold))
        return 1.0;
    const double days = static_cast<double>(horizonDays);
    if (days == 0.0) {
        // Zero in-service days: the total is exactly 0.
        return above ? (threshold <= 0.0 ? 1.0 : 0.0)
                     : (threshold >= 0.0 ? 1.0 : 0.0);
    }
    // Markov/Chernoff: P(S >= a) <= exp(T lnM(t) - t a) for every
    // t > 0, and P(S <= a) <= the same for every t < 0. Any grid
    // point is a valid certificate, so the scan can only tighten.
    double best = 1.0;
    double magnitude = 1e-4;
    for (int step = 0; step < 160; ++step, magnitude *= 1.1) {
        const double t = above ? magnitude : -magnitude;
        const double exponent =
            days * dailyLogMgf(m, p, b, t) - t * threshold;
        if (exponent < 0.0)
            best = std::min(best, std::exp(exponent));
    }
    // Outward slack dominating the rounding of the log-space scan.
    return std::min(1.0, best * (1.0 + 1e-9));
}

double
exhaustionProbabilityUpper(const lint::WorkloadSpec &workload,
                           uint64_t horizonDays, double budget)
{
    return demandTailBound(workload, horizonDays, budget, true);
}

namespace {

/**
 * Bracket on the lifetime-mixture CDF F(d) = P(lifetime <= d) via
 * certified Weibull survival brackets for both legs.
 */
verify::Interval
mixtureCdf(const lint::MixtureSpec &lifetime, double demand)
{
    const double f = std::clamp(lifetime.infantFraction, 0.0, 1.0);
    const verify::Interval infant =
        verify::deviceReliability(lifetime.infant, demand);
    const verify::Interval main =
        verify::deviceReliability(lifetime.main, demand);
    verify::Interval cdf;
    cdf.lo = f * (1.0 - infant.hi) + (1.0 - f) * (1.0 - main.hi);
    cdf.hi = f * (1.0 - infant.lo) + (1.0 - f) * (1.0 - main.lo);
    cdf.lo = std::clamp(cdf.lo, 0.0, 1.0);
    cdf.hi = std::clamp(cdf.hi, cdf.lo, 1.0);
    return cdf;
}

} // namespace

verify::Interval
lockoutProbability(const lint::MixtureSpec &lifetime,
                   AccessBracket demand, double accessBound)
{
    verify::Interval result;
    if (std::isnan(accessBound) || std::isnan(demand.lo) ||
        std::isnan(demand.hi))
        return {0.0, 1.0};
    result.lo = demand.lo >= accessBound
                    ? 1.0
                    : mixtureCdf(lifetime, demand.lo).lo;
    result.hi = demand.hi >= accessBound
                    ? 1.0
                    : mixtureCdf(lifetime, demand.hi).hi;
    result.lo = std::clamp(result.lo, 0.0, 1.0);
    result.hi = std::clamp(result.hi, result.lo, 1.0);
    return result;
}

verify::Interval
prematureLockoutBracket(const lint::FleetCohortSpec &cohort,
                        const lint::FleetSpec &fleet)
{
    const double window = static_cast<double>(fleet.prematureDays);
    const double stagger =
        std::isfinite(cohort.staggerDays)
            ? std::max(0.0, cohort.staggerDays)
            : window;

    // Usage-scale envelope when re-provisioning lands inside the
    // premature window (the second owner's multiplier applies to an
    // unknown suffix of the window, so stretch/shrink the whole
    // window's demand conservatively).
    double scaleLo = 1.0;
    double scaleHi = 1.0;
    if (cohort.reprovisionDay && *cohort.reprovisionDay < window &&
        std::isfinite(cohort.reprovisionUsageScale) &&
        cohort.reprovisionUsageScale >= 0.0) {
        scaleLo = std::min(1.0, cohort.reprovisionUsageScale);
        scaleHi = std::max(1.0, cohort.reprovisionUsageScale);
    }

    // Latest entrant: only (window - stagger) in-service days can have
    // elapsed before the premature cutoff. Earliest entrant: all of
    // them. The re-provisioning envelope scales the usage rate itself
    // so the Chernoff tails below see the same process.
    const auto windowDays = [](double days) {
        return static_cast<uint64_t>(std::max(0.0, days));
    };
    const auto scaledUsage = [&](double factor) {
        lint::WorkloadSpec usage = cohort.usage;
        usage.meanPerDay *= factor;
        return usage;
    };
    const lint::WorkloadSpec usageLo = scaledUsage(scaleLo);
    const lint::WorkloadSpec usageHi = scaledUsage(scaleHi);
    const uint64_t daysLo = windowDays(window - stagger);
    const uint64_t daysHi = windowDays(window);
    const AccessBracket demandLo = workloadDemand(usageLo, daysLo);
    const AccessBracket demandHi = workloadDemand(usageHi, daysHi);

    const double bound = static_cast<double>(cohort.accessBound);
    const verify::Interval low =
        lockoutProbability(cohort.lifetime,
                           AccessBracket::point(demandLo.lo), bound);
    const verify::Interval high =
        lockoutProbability(cohort.lifetime,
                           AccessBracket::point(demandHi.hi), bound);

    // The sigma envelope covers the spend randomness except for its
    // own tail mass; fold that residual into the endpoints so the
    // bracket stays a certificate rather than a heuristic. The lower
    // endpoint conditions on the latest entrant having spent at least
    // its envelope floor, the upper on the earliest entrant staying
    // under its ceiling.
    const double tailLow =
        demandTailBound(usageLo, daysLo, demandLo.lo, false);
    const double tailHigh =
        demandTailBound(usageHi, daysHi, demandHi.hi, true);
    verify::Interval result;
    result.lo = std::clamp(low.lo - tailLow, 0.0, 1.0);
    result.hi = std::clamp(high.hi + tailHigh, result.lo, 1.0);
    return result;
}

} // namespace lemons::analysis
