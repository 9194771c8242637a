#include "core/usage_bounds.h"

#include <optional>

#include "arch/structures_sim.h"
#include "sim/monte_carlo.h"
#include "util/require.h"
#include "util/stats.h"

namespace lemons::core {

UsageBounds
estimateUsageBounds(const Design &design, const wearout::DeviceSpec &device,
                    const wearout::ProcessVariation &variation,
                    uint64_t trials, uint64_t seed)
{
    requireArg(design.feasible, "estimateUsageBounds: design is infeasible");
    const wearout::DeviceFactory factory(device, variation);
    const sim::MonteCarlo mc(seed, trials);
    // Nominal lots draw each copy from the bank's exact law, tabulated
    // once for every trial; varied lots sample every device.
    const std::optional<arch::BankLaw> law =
        arch::bankLawOf(factory, design.width, design.threshold);

    const sim::TrialReport report = mc.run(
        [&](Rng &rng) {
            return static_cast<double>(
                law ? arch::sampleSerialCopiesOutcome(*law, design.copies,
                                                      rng)
                          .totalAccesses
                    : arch::sampleSerialCopiesTotalAccesses(
                          factory, design.width, design.threshold,
                          design.copies, rng));
        },
        {.threads = 0, .faults = sim::FaultPolicy::Rethrow});

    UsageBounds bounds;
    bounds.meanTotalAccesses = report.stats.mean();
    bounds.minTotalAccesses = report.stats.min();
    bounds.maxTotalAccesses = report.stats.max();
    bounds.q001 = quantile(report.samples, 0.001);
    bounds.q999 = quantile(report.samples, 0.999);
    bounds.trials = trials;
    return bounds;
}

} // namespace lemons::core
