/**
 * @file
 * Usage-workload simulation for limited-use devices.
 *
 * The paper sizes the limited-use connection from a fixed assumption —
 * "a user may log into a smartphone a maximum of 50 times a day for 5
 * years" (Section 1). Real usage is stochastic: days vary, some days
 * burst. This module models daily access counts as a (optionally
 * bursty) Poisson process and answers the question the fixed budget
 * raises: with what probability does a given access budget survive a
 * usage profile over a calendar horizon — and how much budget does a
 * target survival probability need?
 *
 * Both answers are exact closed forms (a Binomial mixture of Poisson
 * CDFs); simulateUsage is the day-by-day definition they are tested
 * against.
 */

#ifndef LEMONS_SIM_WORKLOAD_H_
#define LEMONS_SIM_WORKLOAD_H_

#include <cstdint>

#include "sim/monte_carlo.h"
#include "util/rng.h"

namespace lemons::sim {

/** Draw an exact Poisson(@p mean) sample: Knuth's product of uniforms
 *  below a mean of 10, PTRS transformed rejection (Hormann 1993) from
 *  there. @pre 0 <= mean <= 2^62. */
uint64_t poissonSample(Rng &rng, double mean);

/** Stochastic daily usage profile. */
struct UsageProfile
{
    /** Mean accesses per ordinary day (Poisson rate, > 0). */
    double meanPerDay = 50.0;
    /** Probability a day is a burst day. */
    double burstProbability = 0.0;
    /** Rate multiplier on burst days (>= 1). */
    double burstMultiplier = 1.0;

    /** Long-run mean accesses per day including bursts. */
    double effectiveDailyMean() const;
};

/** Outcome of one simulated device lifetime under a profile. */
struct LifetimeOutcome
{
    bool survivedHorizon = false; ///< budget covered every access
    uint64_t daysServed = 0;      ///< full days before exhaustion
    uint64_t accessesServed = 0;  ///< accesses granted
};

/**
 * Simulate one device lifetime: each day draws a usage count from the
 * profile; the device grants accesses until @p budgetAccesses is
 * spent.
 *
 * All three usage functions reject a profile that lint L601-L603
 * rejects (rate not positive and finite, burst probability outside
 * [0, 1], multiplier not finite or below 1), a horizon under one day,
 * and a peak mean demand meanPerDay * burstMultiplier * horizonDays
 * above 2^62, with std::invalid_argument.
 *
 * @param profile Usage profile.
 * @param budgetAccesses The device's total access budget (e.g. the
 *        91,250 LAB, or M times it with replication).
 * @param horizonDays Calendar horizon (e.g. 5 * 365).
 * @param rng Randomness source.
 */
LifetimeOutcome simulateUsage(const UsageProfile &profile,
                              uint64_t budgetAccesses, uint64_t horizonDays,
                              Rng &rng);

/**
 * Exact P(budget survives the horizon) under @p profile, returned as
 * the degenerate interval {p, p, p}. The budget survives when the
 * horizon's total demand is at most @p budgetAccesses; given B ~
 * Binomial(d, p) burst days that total is Poisson(lambda (d + (m-1) B)),
 * so the result is a finite sum of Binomial pmf x poissonCdf terms
 * over the B whose pmf is above double underflow.
 *
 * The MonteCarlo parameter is unused: the result does not depend on
 * it. It stays for source compatibility with existing callers.
 */
ProportionInterval survivalProbability(const UsageProfile &profile,
                                       uint64_t budgetAccesses,
                                       uint64_t horizonDays,
                                       const MonteCarlo &);

/**
 * Smallest access budget (at least 1) whose exact survival
 * probability reaches @p targetProbability, found by exponential +
 * binary search over the monotone survivalProbability. Like it, the
 * result does not depend on the unused MonteCarlo parameter.
 */
uint64_t budgetForSurvival(const UsageProfile &profile,
                           uint64_t horizonDays, double targetProbability,
                           const MonteCarlo &);

} // namespace lemons::sim

#endif // LEMONS_SIM_WORKLOAD_H_
