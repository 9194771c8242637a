/**
 * @file
 * Reproducible Monte Carlo trial driver.
 *
 * Every trial receives its own Rng derived from (seed, trial index), so
 * results do not depend on evaluation order and any single trial can be
 * replayed in isolation — essential for debugging rare-event failures
 * in the security analyses.
 *
 * Execution is delegated to lemons::engine::runTrials, the batched
 * chunk-parallel engine: one run() entry point takes an McRunOptions
 * struct that selects thread count, sample retention, fault policy
 * and checkpointing.
 */

#ifndef LEMONS_SIM_MONTE_CARLO_H_
#define LEMONS_SIM_MONTE_CARLO_H_

#include <cstdint>
#include <functional>

#include "engine/engine.h"
#include "util/rng.h"
#include "util/stats.h"

namespace lemons::sim {

// The execution substrate lives in lemons::engine; sim re-exports the
// vocabulary types so call sites keep reading naturally.
using engine::FaultPolicy;
using engine::McRunOptions;
using engine::TrialReport;

/**
 * Monte Carlo driver configured with a master seed and trial count.
 */
class MonteCarlo
{
  public:
    /**
     * @param seed Master seed; trial i uses Rng::trialStream(seed, i).
     * @param trials Number of independent trials (> 0).
     */
    MonteCarlo(uint64_t seed, uint64_t trials);

    /** Number of trials this driver runs by default. */
    uint64_t trials() const { return trialCount; }
    /** The master seed. */
    uint64_t seed() const { return masterSeed; }

    /**
     * Run @p metric once per trial under the execution policy in
     * @p options (options.trials == 0 uses this driver's trial count).
     * Per-trial samples are bit-identical at any thread count and
     * chunk size; see engine::runTrials for the full contract.
     */
    TrialReport run(const std::function<double(Rng &, uint64_t)> &metric,
                    McRunOptions options = {}) const;

    /** Convenience overload for index-oblivious metrics. */
    TrialReport run(const std::function<double(Rng &)> &metric,
                    McRunOptions options = {}) const;

    /**
     * Estimate P(event) with a Wilson 95 % interval.
     */
    ProportionInterval
    estimateProbability(const std::function<bool(Rng &)> &event) const;

  private:
    uint64_t masterSeed;
    uint64_t trialCount;
};

} // namespace lemons::sim

#endif // LEMONS_SIM_MONTE_CARLO_H_
