/**
 * @file
 * Empirical system-level usage bounds via Monte Carlo (Section 4.3.3).
 *
 * The analytic solver guarantees the degradation criteria per copy;
 * this module simulates whole architectures (N serially-consumed
 * copies over sampled device populations) and reports the empirical
 * distribution of total accesses served — the quantity behind the
 * paper's "empirical access upper bound increases from 91,326 to
 * 92,028" observation (Fig 4c).
 */

#ifndef LEMONS_CORE_USAGE_BOUNDS_H_
#define LEMONS_CORE_USAGE_BOUNDS_H_

#include <cstdint>

#include "core/design_solver.h"
#include "wearout/population.h"

namespace lemons::core {

/** Empirical usage-bound estimates for one architecture. */
struct UsageBounds
{
    double meanTotalAccesses = 0.0; ///< mean accesses until exhaustion
    double minTotalAccesses = 0.0;  ///< smallest observed
    double maxTotalAccesses = 0.0;  ///< largest observed
    double q001 = 0.0;              ///< 0.1 % quantile (min-bound proxy)
    double q999 = 0.0;              ///< 99.9 % quantile (max-bound proxy)
    uint64_t trials = 0;
};

/**
 * Simulate @p trials full lifetimes of the architecture in @p design
 * (its N copies consumed serially) with devices drawn from
 * @p variation -perturbed populations. A nominal lot draws each copy
 * from its bank's exact law (arch::bankLawOf), one uniform per copy;
 * a varied lot samples every device.
 *
 * @param design A feasible design from DesignSolver.
 * @param variation Lot-level process variation (none() for the paper's
 *        baseline model).
 * @param trials Monte Carlo trials (> 0).
 * @param seed Master seed.
 */
UsageBounds estimateUsageBounds(const Design &design,
                                const wearout::DeviceSpec &device,
                                const wearout::ProcessVariation &variation,
                                uint64_t trials, uint64_t seed);

} // namespace lemons::core

#endif // LEMONS_CORE_USAGE_BOUNDS_H_
