/**
 * @file
 * The wear-budget analyzer's abstract domain: access-count brackets.
 *
 * An AccessBracket [lo, hi] is a certified claim that a true access
 * count (a demand a workload generates, or a capacity a structure can
 * serve before wearout) lies inside the interval. hi = +inf is the
 * honest "unbounded above" element, so the domain is a lattice under
 * the hull join with top = [0, +inf]. The analyzer composes brackets
 * through the architecture IR (see passes.h) and through campaign
 * time loops, where the widening operator forces fixpoints to
 * converge instead of climbing the infinite chain of ever-longer
 * horizons — exactly the textbook interval-widening construction.
 *
 * The demand side turns the lint layer's stochastic workload specs
 * into certified brackets: a bursty daily profile (Poisson base rate
 * with Bernoulli burst days) has a closed-form mean and variance per
 * day, so a kDemandSigmas-sigma envelope around the horizon total,
 * padded by a Chernoff tail bound on the dominating Poisson, is a
 * bracket that contains the realized demand except with negligible
 * probability — and that residual probability is itself reported
 * (demandTailBound) rather than silently dropped.
 *
 * Degenerate inputs (non-positive rates, NaN) yield the vacuous
 * top bracket rather than throwing: the fuzzers drive garbage
 * through here, and top is still a sound answer.
 */

#ifndef LEMONS_ANALYSIS_BRACKET_H_
#define LEMONS_ANALYSIS_BRACKET_H_

#include <cstdint>
#include <limits>

#include "lint/rules.h"
#include "verify/interval.h"

namespace lemons::analysis {

/** Sigma multiple for demand envelopes (tail mass < 1e-8 per side). */
inline constexpr double kDemandSigmas = 6.0;

/** Budget more than this multiple of peak demand is dead wear (A003). */
inline constexpr double kDeadWearFactor = 4.0;

/** A certified access-count bracket; hi = +inf means unbounded above. */
struct AccessBracket
{
    double lo = 0.0;
    double hi = std::numeric_limits<double>::infinity();

    /** The lattice top [0, +inf]: every access count. */
    static AccessBracket top()
    {
        return {0.0, std::numeric_limits<double>::infinity()};
    }

    /** The degenerate bracket [value, value]. */
    static AccessBracket point(double value) { return {value, value}; }

    bool unboundedAbove() const { return std::numeric_limits<double>::infinity() == hi; }
    bool isTop() const { return lo <= 0.0 && unboundedAbove(); }
    bool contains(double value) const { return lo <= value && value <= hi; }
};

/** Sum of independent counts: [a.lo + b.lo, a.hi + b.hi]. */
AccessBracket add(AccessBracket a, AccessBracket b);

/** Multiply both endpoints by @p factor >= 0 (0 * inf defined as 0). */
AccessBracket scale(AccessBracket a, double factor);

/** Bracket of min(x, y) for x in @p a, y in @p b (capacity gating). */
AccessBracket meetMin(AccessBracket a, AccessBracket b);

/** Lattice join: the convex hull [min lo, max hi]. */
AccessBracket join(AccessBracket a, AccessBracket b);

/**
 * Interval widening a NABLA b: endpoints of @p b that moved past
 * @p a jump straight to the lattice bound (0 below, +inf above), so
 * any ascending chain stabilizes in at most two steps.
 */
AccessBracket widen(AccessBracket a, AccessBracket b);

/** Per-day demand moments of a bursty workload profile. */
struct DailyDemand
{
    double mean = 0.0;     ///< E[daily accesses]
    double variance = 0.0; ///< Var[daily accesses]
};

/**
 * Mean and variance of one day's access count under @p workload:
 * a Poisson(m) day with probability 1-p and Poisson(m*b) with
 * probability p, so mean = m(1 + p(b-1)) and variance adds the
 * between-day term p(1-p)(m(b-1))^2 on top of the Poisson mean.
 * Degenerate rates yield {0, 0} with a NaN guard upstream.
 */
DailyDemand workloadDailyDemand(const lint::WorkloadSpec &workload);

/**
 * Certified bracket on total demand over @p horizonDays:
 * T*mean +/- kDemandSigmas * sqrt(T*variance), clamped at 0.
 * Vacuous (top) when the profile's moments are not finite.
 */
AccessBracket workloadDemand(const lint::WorkloadSpec &workload,
                             uint64_t horizonDays);

/**
 * Demand over an *unbounded* horizon, computed as the widening
 * fixpoint of the one-day transfer function F(x) = x + day:
 * x_{n+1} = x_n NABLA (x_n JOIN F(x_n)). Converges to
 * [day.lo, +inf] — the sound answer for a campaign loop with no
 * declared end.
 */
AccessBracket unboundedHorizonDemand(const lint::WorkloadSpec &workload);

/**
 * Certified Chernoff tail bound on the realized total demand over
 * @p horizonDays: an upper bound on P(total >= threshold) when
 * @p above, on P(total <= threshold) otherwise. Uses the exact
 * per-day moment generating function of the burst mixture (a
 * Poisson(m) day with probability 1-p, Poisson(m*b) with probability
 * p), minimized over a fixed grid of exponents — every grid point is
 * a valid bound, so the scan only tightens, never breaks, the
 * certificate. Degenerate profiles return 1.
 */
double demandTailBound(const lint::WorkloadSpec &workload,
                       uint64_t horizonDays, double threshold,
                       bool above);

/**
 * Certified upper bound on the probability the workload's realized
 * demand over @p horizonDays exceeds @p budget (the above-tail of
 * demandTailBound).
 */
double exhaustionProbabilityUpper(const lint::WorkloadSpec &workload,
                                  uint64_t horizonDays, double budget);

/**
 * Bracket on P(a device drawn from @p lifetime locks out once
 * @p demand accesses have been spent against a budget of
 * min(@p accessBound, lifetime draw)): the mixture lifetime CDF
 * evaluated at the demand endpoints through certified Weibull
 * reliability brackets; demand at or past the bound forces 1.
 */
verify::Interval lockoutProbability(const lint::MixtureSpec &lifetime,
                                    AccessBracket demand,
                                    double accessBound);

/**
 * Certified bracket on the probability one device of @p cohort locks
 * out before the fleet's premature-lockout day. The lower endpoint
 * assumes the latest possible provisioning (full stagger window
 * elapsed), the upper endpoint day-0 provisioning plus the Chernoff
 * spend tail, and a re-provisioning event inside the window scales
 * the usage envelope conservatively in both directions.
 */
verify::Interval prematureLockoutBracket(const lint::FleetCohortSpec &cohort,
                                         const lint::FleetSpec &fleet);

} // namespace lemons::analysis

#endif // LEMONS_ANALYSIS_BRACKET_H_
