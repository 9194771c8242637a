/**
 * @file
 * Throughput microbenchmarks for the Monte Carlo substrate: Weibull
 * sampling, structure-failure sampling, whole-architecture trials, and
 * the batched lemons::engine execution path — the costs behind every
 * empirical curve in the reproduction.
 */

#include <string>

#include "arch/structures_sim.h"
#include "bench/harness.h"
#include "engine/batch.h"
#include "obs/metrics.h"
#include "sim/monte_carlo.h"
#include "wearout/population.h"
#include "wearout/weibull.h"

using namespace lemons;
using lemons::bench::BenchContext;
using lemons::bench::registerBench;

LEMONS_BENCH(mcWeibullSample, "mc.weibull_sample")
{
    const wearout::Weibull model(14.0, 8.0);
    Rng rng(ctx.seed());
    const uint64_t iters = ctx.scaled(1000000, 10000);
    for (uint64_t i = 0; i < iters; ++i)
        ctx.keep(model.sample(rng));
    ctx.metric("items", static_cast<double>(iters));
}

LEMONS_BENCH_REGISTRAR(registerStructureSampleBenches)
{
    constexpr size_t kPoints[][2] = {
        {40, 1}, {60, 30}, {175, 18}, {1000, 100}, {2000, 200}};
    for (const auto &point : kPoints) {
        const size_t n = point[0];
        const size_t k = point[1];
        registerBench("mc.structure_sample.n" + std::to_string(n) + ".k" +
                          std::to_string(k),
                      [n, k](BenchContext &ctx) {
                          const wearout::DeviceFactory factory(
                              {14.0, 8.0},
                              wearout::ProcessVariation::none());
                          Rng rng(ctx.seed());
                          const uint64_t iters =
                              ctx.scaled(2000000 / n, 100);
                          for (uint64_t i = 0; i < iters; ++i)
                              ctx.keep(static_cast<double>(
                                  arch::sampleParallelSurvivedAccesses(
                                      factory, n, k, rng)));
                          ctx.metric("items", static_cast<double>(
                                                  iters * n));
                      });
    }
}

LEMONS_BENCH(mcFullArchitectureTrial, "mc.full_architecture_trial")
{
    // One full lifetime of the (alpha=14, beta=8, k=10%) connection:
    // 6,084 copies x 175 devices, scaled down under --quick.
    const wearout::DeviceFactory factory({14.0, 8.0},
                                         wearout::ProcessVariation::none());
    Rng rng(ctx.seed());
    const uint64_t copies = ctx.scaled(6084, 100);
    ctx.keep(static_cast<double>(arch::sampleSerialCopiesTotalAccesses(
        factory, 175, 18, copies, rng)));
    ctx.metric("items", static_cast<double>(175 * copies));
}

LEMONS_BENCH(mcEstimateProbability, "mc.estimate_probability")
{
    const wearout::DeviceFactory factory({9.3, 12.0},
                                         wearout::ProcessVariation::none());
    const uint64_t trials = ctx.scaled(20000, 500);
    const sim::MonteCarlo mc(ctx.seed(), trials);
    const auto ci = mc.estimateProbability([&](Rng &rng) {
        return arch::sampleParallelSurvivedAccesses(factory, 40, 1, rng) >=
               10;
    });
    ctx.keep(ci.estimate);
    ctx.metric("items", static_cast<double>(trials));
}

LEMONS_BENCH(mcRunStatsParallel, "mc.run_stats_parallel")
{
    // Same metric through the threaded entry point; on a single-core
    // host this mostly measures the partition/merge overhead.
    const wearout::DeviceFactory factory({9.3, 12.0},
                                         wearout::ProcessVariation::none());
    const uint64_t trials = ctx.scaled(20000, 500);
    const sim::MonteCarlo mc(ctx.seed(), trials);
    const auto report = mc.run(
        [&](Rng &rng) {
            return static_cast<double>(
                arch::sampleParallelSurvivedAccesses(factory, 40, 1, rng));
        },
        {.threads = 2,
         .keepSamples = false,
         .faults = sim::FaultPolicy::Rethrow});
    ctx.keep(report.stats.mean());
    ctx.metric("items", static_cast<double>(trials));
}

namespace {

/** The structure-survival metric shared by the mc_engine runs. */
double
largeTrialMetric(const wearout::DeviceFactory &factory, Rng &rng)
{
    return static_cast<double>(
        arch::sampleParallelSurvivedAccesses(factory, 40, 1, rng));
}

} // namespace

LEMONS_BENCH(mcEngineRunLarge, "mc_engine.run_large")
{
    // Large-trial config through engine::runTrials (pooled chunks).
    const wearout::DeviceFactory factory({9.3, 12.0},
                                         wearout::ProcessVariation::none());
    const uint64_t trials = ctx.scaled(20000, 500);
    const sim::MonteCarlo mc(ctx.seed(), trials);
    const auto report = mc.run(
        [&](Rng &rng) { return largeTrialMetric(factory, rng); },
        {.threads = 2, .faults = sim::FaultPolicy::Rethrow});
    ctx.keep(report.stats.mean());
    ctx.metric("items", static_cast<double>(trials));
}

LEMONS_BENCH(mcEnginePoolReuse, "mc_engine.pool_reuse")
{
    // Many small pooled runs back to back. threads_created measures the
    // pool's thread churn across the whole batch — after the first
    // warmup it must stay flat (the ISSUE's no-spawn-after-warmup
    // proof, exported into BENCH_results.json).
    const wearout::DeviceFactory factory({14.0, 8.0},
                                         wearout::ProcessVariation::none());
    const uint64_t runs = ctx.scaled(200, 10);
    obs::Counter &created =
        obs::Registry::global().counter("sim.mc.pool.threads_created");
    const uint64_t createdBefore = created.get();
    double acc = 0.0;
    for (uint64_t r = 0; r < runs; ++r) {
        const sim::MonteCarlo mc(ctx.seed() + r, 64);
        acc += mc.run(
                     [&](Rng &rng) {
                         return static_cast<double>(
                             arch::sampleParallelSurvivedAccesses(
                                 factory, 40, 1, rng));
                     },
                     {.threads = 2,
                      .chunkSize = 16,
                      .faults = sim::FaultPolicy::Rethrow})
                   .stats.mean();
    }
    ctx.keep(acc);
    ctx.metric("items", static_cast<double>(runs * 64));
    ctx.metric("threads_created",
               static_cast<double>(created.get() - createdBefore));
}

LEMONS_BENCH(mcEngineBatchKernel, "mc_engine.batch_kernel")
{
    // The raw u-select kernel at the paper's connection geometry
    // (n=175, k=18): one inverse-CDF transform per structure.
    const wearout::Weibull model(14.0, 8.0);
    Rng rng(ctx.seed());
    const uint64_t iters = ctx.scaled(2000000 / 175, 100);
    for (uint64_t i = 0; i < iters; ++i)
        ctx.keep(static_cast<double>(
            engine::sampleParallelBankSurvival(model, 175, 18, rng)));
    ctx.metric("items", static_cast<double>(iters * 175));
}

LEMONS_BENCH(mcEngineBatchKernelWide, "mc_engine.batch_kernel.n1000.k100")
{
    // The /v1/mc/run shape: a 100-of-1000 bank of the paper's default
    // lot (alpha=10, beta=12) on per-trial Philox streams, where the
    // pivot partition replaces nth_element over the whole bank.
    const wearout::Weibull model(10.0, 12.0);
    const uint64_t iters = ctx.scaled(2000, 50);
    for (uint64_t i = 0; i < iters; ++i) {
        Rng rng = Rng::trialStream(ctx.seed(), i);
        ctx.keep(static_cast<double>(
            engine::sampleParallelBankSurvival(model, 1000, 100, rng)));
    }
    ctx.metric("items", static_cast<double>(iters * 1000));
}
