#include "sim/monte_carlo.h"

#include <atomic>

#include "engine/engine.h"
#include "obs/metrics.h"
#include "util/require.h"

namespace lemons::sim {

MonteCarlo::MonteCarlo(uint64_t seed, uint64_t trials)
    : masterSeed(seed), trialCount(trials)
{
    requireArg(trials > 0, "MonteCarlo: need at least one trial");
}

TrialReport
MonteCarlo::run(const std::function<double(Rng &, uint64_t)> &metric,
                McRunOptions options) const
{
    if (options.trials == 0)
        options.trials = trialCount;
    return engine::runTrials(masterSeed, options, metric);
}

TrialReport
MonteCarlo::run(const std::function<double(Rng &)> &metric,
                McRunOptions options) const
{
    return run([&metric](Rng &rng, uint64_t) { return metric(rng); },
               options);
}

ProportionInterval
MonteCarlo::estimateProbability(
    const std::function<bool(Rng &)> &event) const
{
    LEMONS_OBS_SCOPED_TIMER("sim.mc.estimate_probability");
    // Count successes while streaming rather than keeping one sample
    // per trial; an integer counter is exact in any commit order.
    std::atomic<uint64_t> successes{0};
    const TrialReport report = run(
        [&event, &successes](Rng &rng) {
            if (!event(rng))
                return 0.0;
            successes.fetch_add(1, std::memory_order_relaxed);
            return 1.0;
        },
        {.keepSamples = false, .faults = FaultPolicy::Rethrow});
    return wilsonInterval(successes.load(), report.trials);
}

} // namespace lemons::sim
