/**
 * @file
 * `figures`: regenerate a fixed paper-figure set by calling the library
 * directly.
 *
 * One pass computes every figure cell once: the Fig 4b/4c flagship
 * designs with their Monte Carlo usage bounds, the Fig 5 targeting
 * design, the five-profile usage table, the bathtub-mixture and
 * fault-injection serial-copies ablations, and the Fig 8 OTP Monte
 * Carlo. Cells run on benchThreads() executor threads, longest first,
 * each cell's own Monte Carlo inline on its executor. The seed picks
 * every Monte Carlo seed; the figure set itself is fixed.
 */

#include <atomic>
#include <cmath>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "arch/structures_sim.h"
#include "core/decision_tree.h"
#include "core/design_solver.h"
#include "core/usage_bounds.h"
#include "engine/engine.h"
#include "fault/fault_plan.h"
#include "fault/faulty_device.h"
#include "reference.h"
#include "sim/monte_carlo.h"
#include "sim/workload.h"
#include "trace.h"
#include "wearout/mixture.h"
#include "wearout/population.h"
#include "workloads.h"

namespace perfbench {

namespace {

using namespace lemons;

constexpr uint64_t kHorizonDays = 5 * 365;
constexpr uint64_t kLab = 91250;
constexpr double kSurvivalTarget = 0.99;

// Trial counts per cell. The usage table's 100 trials set the
// tolerance argument in reference.h; the others keep one pass near
// five and a half seconds on three executors, so a 25 s run holds
// four or more passes.
constexpr uint64_t kUsageTrials = 100;
constexpr uint64_t kUsageBoundTrials = 12;
constexpr uint64_t kMixtureTrials = 4;
constexpr uint64_t kFaultTrials = 6;
constexpr uint64_t kOtpPads = 200;

struct Profile
{
    const char *label;
    sim::UsageProfile profile;
};

// Heaviest first: the executors take cells in list order.
const Profile kProfiles[] = {
    {"heavy", {60.0, 0.0, 1.0}},
    {"nominal", {50.0, 0.0, 1.0}},
    {"bursty", {50.0, 0.05, 4.0}},
    {"light", {30.0, 0.0, 1.0}},
    {"power", {120.0, 0.0, 1.0}},
};

/** One figure cell: computes, checks, returns "" or a failure reason. */
struct Cell
{
    std::string name;
    /** Span name: the layer the cell's library call belongs to. */
    const char *layer;
    std::function<std::string()> run;
};

/** Outcome of one pass over every cell. */
struct Pass
{
    double wallSeconds = 0.0;
    double cpuSeconds = 0.0;
    double stolenShare = 0.0;
    /** Per cell: milliseconds from the pass start to its result. */
    std::vector<double> doneMs;
    std::vector<std::string> failures;
    /** budgetForSurvival result per usage profile. */
    std::vector<uint64_t> budgets;
};

core::DesignRequest
request(double alpha, double beta, uint64_t lab, double kFraction)
{
    core::DesignRequest out;
    out.device = {alpha, beta};
    out.legitimateAccessBound = lab;
    out.kFraction = kFraction;
    return out;
}

std::string
checkReport(const engine::TrialReport &report)
{
    if (!report.failedTrials.empty())
        return "trial failed: " + report.firstError;
    if (!report.nonFiniteTrials.empty())
        return std::to_string(report.nonFiniteTrials.size()) +
               " non-finite trials";
    return "";
}

/** Every input of the figure set, built in set-up. */
class FigureSet
{
  public:
    explicit FigureSet(uint64_t seed) : masterSeed(seed)
    {
        req4b = request(14.0, 8.0, kLab, 0.1);
        req4c = req4b;
        req4c.criteria.maxResidualReliability = 0.10;
        req5 = request(13.0, 8.0, 100, 0.1);
        // The ablations run on the targeting-scale LAB = 100 designs of
        // the model-sensitivity and fault-injection studies.
        encoded = core::DesignSolver(request(10.0, 12.0, 100, 0.1)).solve();
        plain = core::DesignSolver(request(10.0, 12.0, 100, 0.0)).solve();
        design4b = core::DesignSolver(req4b).solve();
        design4c = core::DesignSolver(req4c).solve();
        buildCells();
    }

    // The cells capture this object's address.
    FigureSet(const FigureSet &) = delete;
    FigureSet &operator=(const FigureSet &) = delete;

    const std::vector<Cell> &all() const { return cells; }

    /** Budgets written by the usage cells of the latest pass. */
    std::vector<uint64_t> lastBudgets() const
    {
        return {std::begin(budgets), std::end(budgets)};
    }

  private:
    uint64_t cellSeed(uint64_t index) const
    {
        InputRng mix(masterSeed ^
                     (0x5eedULL + index * 0x9e3779b97f4a7c15ULL));
        return mix.next();
    }

    void buildCells()
    {
        uint64_t index = 0;
        for (size_t p = 0; p < std::size(kProfiles); ++p) {
            const sim::MonteCarlo mc(cellSeed(index++), kUsageTrials);
            cells.push_back({std::string("usage.budget.") +
                                 kProfiles[p].label,
                             "sim.usage", [this, p, mc] {
                                 budgets[p] = sim::budgetForSurvival(
                                     kProfiles[p].profile, kHorizonDays,
                                     kSurvivalTarget, mc);
                                 return std::string();
                             }});
        }
        const wearout::ProcessVariation none =
            wearout::ProcessVariation::none();
        const uint64_t seed4b = cellSeed(index++);
        cells.push_back({"fig4b.usage_bounds", "core.usage_bounds",
                         [this, none, seed4b] {
                             const auto bounds = core::estimateUsageBounds(
                                 design4b, req4b.device, none,
                                 kUsageBoundTrials, seed4b);
                             return std::isfinite(bounds.meanTotalAccesses)
                                        ? std::string()
                                        : std::string("non-finite bound");
                         }});
        const uint64_t seed4c = cellSeed(index++);
        cells.push_back({"fig4c.usage_bounds", "core.usage_bounds",
                         [this, none, seed4c] {
                             const auto bounds = core::estimateUsageBounds(
                                 design4c, req4c.device, none,
                                 kUsageBoundTrials, seed4c);
                             return std::isfinite(bounds.meanTotalAccesses)
                                        ? std::string()
                                        : std::string("non-finite bound");
                         }});

        // Plain (1-of-n, ~3e5 switches) cells first: they are the
        // expensive half of both ablations.
        for (const core::Design *design : {&plain, &encoded}) {
            const char *label = design == &plain ? "plain" : "encoded";
            for (double infant : {0.0, 0.01, 0.05, 0.1, 0.2, 0.4})
                addMixtureCell(*design, label, infant, cellSeed(index++));
            for (double eps : {0.0, 1e-4, 1e-3, 1e-2})
                for (double infant : {0.0, 0.01, 0.05})
                    addFaultCell(*design, label, eps, infant,
                                 cellSeed(index++));
        }

        for (size_t p = 0; p < std::size(kProfiles); ++p) {
            const sim::MonteCarlo mc(cellSeed(index++), kUsageTrials);
            cells.push_back({std::string("usage.survival.") +
                                 kProfiles[p].label,
                             "sim.usage", [p, mc] {
                                 const auto estimate =
                                     sim::survivalProbability(
                                         kProfiles[p].profile, kLab,
                                         kHorizonDays, mc);
                                 return estimate.estimate >= 0.0 &&
                                                estimate.estimate <= 1.0
                                            ? std::string()
                                            : std::string("bad estimate");
                             }});
        }

        addOtpCell("fig8.receiver", 4, false, cellSeed(index++));
        addOtpCell("fig8.adversary", 2, true, cellSeed(index++));

        cells.push_back({"fig4b.solve", "core.solve", [this] {
                             return checkDesign(
                                 core::DesignSolver(req4b).solve(),
                                 kFig4bFlagship);
                         }});
        cells.push_back({"fig4c.solve", "core.solve", [this] {
                             return checkDesign(
                                 core::DesignSolver(req4c).solve(),
                                 kFig4cRelaxed);
                         }});
        cells.push_back({"fig5.solve", "core.solve", [this] {
                             return checkDesign(
                                 core::DesignSolver(req5).solve(),
                                 kFig5Targeting);
                         }});
    }

    void addMixtureCell(const core::Design &design, const char *label,
                        double infant, uint64_t cellSeedValue)
    {
        cells.push_back(
            {std::string("mixture.") + label + "." + std::to_string(infant),
             "wearout.mixture", [&design, infant, cellSeedValue] {
                 const wearout::BathtubModel mix =
                     wearout::BathtubModel::withInfantMortality(
                         wearout::Weibull(10.0, 12.0), infant);
                 const arch::LifetimeSampler sampler = [&mix](Rng &rng) {
                     return mix.sample(rng);
                 };
                 const sim::MonteCarlo mc(cellSeedValue, kMixtureTrials);
                 return checkReport(mc.run(
                     [&](Rng &rng) {
                         return static_cast<double>(
                             arch::sampleSerialCopiesTotalAccesses(
                                 sampler, design.width, design.threshold,
                                 design.copies, rng));
                     },
                     {.threads = 1, .keepSamples = false}));
             }});
    }

    void addFaultCell(const core::Design &design, const char *label,
                      double eps, double infant, uint64_t cellSeedValue)
    {
        cells.push_back(
            {std::string("fault.") + label + "." + std::to_string(eps) +
                 "." + std::to_string(infant),
             "fault.ablation", [&design, eps, infant, cellSeedValue] {
                 const wearout::DeviceFactory base(
                     {10.0, 12.0}, wearout::ProcessVariation::none());
                 fault::FaultPlan plan;
                 plan.stuckClosedRate = eps;
                 plan.infantFraction = infant;
                 const fault::FaultyDeviceFactory factory(base, plan);
                 const sim::MonteCarlo mc(cellSeedValue, kFaultTrials);
                 // An unbounded (stuck-closed) architecture is a
                 // result of the ablation, not a failure: it maps to
                 // the finite sentinel -1 so any non-finite sample is
                 // a genuine error.
                 return checkReport(mc.run(
                     [&](Rng &rng) {
                         const auto outcome =
                             arch::sampleFaultySerialCopiesOutcome(
                                 factory, design.width, design.threshold,
                                 design.copies, rng);
                         return outcome.unbounded
                                    ? -1.0
                                    : static_cast<double>(
                                          outcome.totalAccesses);
                     },
                     {.threads = 1, .keepSamples = false}));
             }});
    }

    void addOtpCell(const char *name, unsigned height, bool adversary,
                    uint64_t cellSeedValue)
    {
        cells.push_back(
            {name, "core.otp_mc", [height, adversary, cellSeedValue] {
                 const wearout::DeviceFactory factory(
                     {10.0, 1.0}, wearout::ProcessVariation::none());
                 core::OtpParams params;
                 params.device = {10.0, 1.0};
                 params.copies = 128;
                 params.threshold = 8;
                 params.height = height;
                 const std::vector<uint8_t> key(32, 0x42);
                 const sim::MonteCarlo mc(cellSeedValue, kOtpPads);
                 const auto estimate = mc.estimateProbability([&](Rng &rng) {
                     // Path 3 at H = 4 (8 paths), path 1 at H = 2 (2).
                     const uint64_t path = adversary ? 1 : 3;
                     core::OneTimePad pad(params, key, path, factory, rng);
                     if (!adversary)
                         return pad.retrieve(path).has_value();
                     Rng attacker = rng.split(13);
                     return pad.randomPathAttack(attacker).has_value();
                 });
                 return std::isfinite(estimate.estimate)
                            ? std::string()
                            : std::string("non-finite estimate");
             }});
    }

    uint64_t masterSeed;
    core::DesignRequest req4b, req4c, req5;
    core::Design design4b, design4c, encoded, plain;
    std::vector<Cell> cells;
    // Each usage cell writes only its own slot.
    uint64_t budgets[std::size(kProfiles)] = {};
};

Pass
runPass(const FigureSet &set, unsigned threads)
{
    Tracer &tracer = Tracer::global();
    const Span passSpan("figures.pass", tracer.newTrace(), 0);
    const std::vector<Cell> &cells = set.all();
    Pass pass;
    pass.doneMs.assign(cells.size(), 0.0);
    std::vector<std::string> errors(cells.size());
    std::atomic<size_t> next{0};

    const uint64_t start = nowNs();
    const double cpuStart = processCpuSeconds();
    const HostTicks ticksStart = hostTicks();
    const auto executor = [&] {
        for (size_t i = next.fetch_add(1); i < cells.size();
             i = next.fetch_add(1)) {
            const Span span(cells[i].layer, passSpan.trace(), passSpan.id());
            try {
                errors[i] = cells[i].run();
            } catch (const std::exception &error) {
                errors[i] = std::string("threw: ") + error.what();
            }
            // A cell's latency is the wait for its result since the
            // figure set was started, as a user regenerating the set
            // sees it.
            pass.doneMs[i] = secondsSince(start) * 1e3;
        }
    };
    std::vector<std::thread> executors;
    for (unsigned t = 1; t < threads; ++t)
        executors.emplace_back(executor);
    executor();
    for (std::thread &thread : executors)
        thread.join();
    pass.wallSeconds = secondsSince(start);
    pass.cpuSeconds = processCpuSeconds() - cpuStart;
    pass.stolenShare = stolenShare(ticksStart, hostTicks());
    for (size_t i = 0; i < cells.size(); ++i)
        if (!errors[i].empty())
            pass.failures.push_back(cells[i].name + ": " + errors[i]);
    pass.budgets = set.lastBudgets();
    return pass;
}

/** Untimed call of every layer the passes use, on tiny inputs, so
 *  the engine pool and caches are warm before the first pass. */
void
warmUp(unsigned threads)
{
    warmEnginePool(threads);
    const core::Design design =
        core::DesignSolver(request(10.0, 12.0, 100, 0.1)).solve();
    const sim::MonteCarlo tiny(1, 2);
    sim::budgetForSurvival(kProfiles[1].profile, kHorizonDays,
                           kSurvivalTarget, tiny);
    core::estimateUsageBounds(design, {10.0, 12.0},
                              wearout::ProcessVariation::none(), 2, 1);
    const wearout::BathtubModel mix = wearout::BathtubModel::withInfantMortality(
        wearout::Weibull(10.0, 12.0), 0.05);
    const arch::LifetimeSampler sampler = [&mix](Rng &rng) {
        return mix.sample(rng);
    };
    const wearout::DeviceFactory base({10.0, 12.0},
                                      wearout::ProcessVariation::none());
    fault::FaultPlan plan;
    plan.stuckClosedRate = 1e-3;
    const fault::FaultyDeviceFactory faulty(base, plan);
    tiny.run([&](Rng &rng) {
        arch::sampleFaultySerialCopiesOutcome(faulty, design.width,
                                              design.threshold,
                                              design.copies, rng);
        return static_cast<double>(arch::sampleSerialCopiesTotalAccesses(
            sampler, design.width, design.threshold, design.copies, rng));
    });
}

/** engine.parallel_efficiency on the Fig 4b usage-bounds body. */
double
parallelEfficiency(uint64_t seed, unsigned threads)
{
    const core::Design design =
        core::DesignSolver(request(14.0, 8.0, kLab, 0.1)).solve();
    const wearout::DeviceFactory factory({14.0, 8.0},
                                         wearout::ProcessVariation::none());
    const auto lifetimes = [&](unsigned executors) {
        const Span span("engine.parallel_probe");
        const uint64_t begin = nowNs();
        engine::runTrials(seed,
                          {.trials = 8 * threads, .threads = executors,
                           .chunkSize = 1, .keepSamples = false},
                          [&](Rng &trialRng, uint64_t) {
                              return static_cast<double>(
                                  arch::sampleSerialCopiesTotalAccesses(
                                      factory, design.width,
                                      design.threshold, design.copies,
                                      trialRng));
                          });
        return secondsSince(begin);
    };
    const double one = lifetimes(1);
    return one / (static_cast<double>(threads) * lifetimes(threads));
}

std::vector<WorkUnit>
passUnits(const std::vector<Pass> &window)
{
    std::vector<WorkUnit> units;
    for (const Pass &pass : window)
        units.push_back({pass.wallSeconds, pass.cpuSeconds, pass.stolenShare});
    return units;
}

/** End-to-end metrics of the least-stolen passes of a window; a cell
 *  counts toward goodput when its pass reported no failure for it. */
std::map<std::string, double>
passMetrics(const std::vector<Pass> &window)
{
    const std::vector<WorkUnit> all = passUnits(window);
    std::vector<WorkUnit> units;
    std::vector<double> doneMs;
    uint64_t good = 0;
    double seconds = 0.0;
    for (const size_t p : leastStolen(all)) {
        const Pass &pass = window[p];
        units.push_back(all[p]);
        doneMs.insert(doneMs.end(), pass.doneMs.begin(), pass.doneMs.end());
        good += pass.doneMs.size() - pass.failures.size();
        seconds += pass.wallSeconds;
    }
    return windowMetrics(units, doneMs, good, seconds);
}

} // namespace

RunResult
runFigures(const Options &options)
{
    RunResult result;
    const unsigned threads = benchThreads();
    std::unique_ptr<FigureSet> set;
    if (runSetup(options, [&] {
            set = std::make_unique<FigureSet>(options.seed);
            warmUp(threads);
        }))
        return result;

    const lemons::obs::Snapshot afterSetup = obsSnapshot();
    std::vector<Pass> untraced;
    std::vector<Pass> traced;
    // A traced run alternates untraced and traced passes, so their
    // difference is the tracing overhead, not warm-up or drift.
    const uint64_t windowStart = nowNs();
    do {
        const bool tracing = options.trace && untraced.size() > traced.size();
        Tracer::global().setEnabled(tracing);
        (tracing ? traced : untraced).push_back(runPass(*set, threads));
    } while (secondsSince(windowStart) < options.seconds ||
             (options.trace && traced.empty()));
    Tracer::global().setEnabled(options.trace);
    const ObsDelta windowDelta = obsSince(afterSetup);
    result.endToEnd["peak_rss_mb"] = peakRssMb();

    // Correctness: every cell of every pass, plus the usage budgets of
    // the non-bursty profiles against the exact Poisson quantile.
    for (const std::vector<Pass> *passes : {&untraced, &traced}) {
        for (const Pass &pass : *passes) {
            result.attempted += pass.doneMs.size();
            for (const std::string &failure : pass.failures)
                result.fail(failure);
        }
    }
    for (size_t p = 0; p < std::size(kProfiles); ++p) {
        const sim::UsageProfile &profile = kProfiles[p].profile;
        if (profile.burstProbability > 0.0)
            continue;
        const double lambdaD =
            profile.meanPerDay * static_cast<double>(kHorizonDays);
        const uint64_t exact = poissonQuantile(lambdaD, kSurvivalTarget);
        for (const std::vector<Pass> *passes : {&untraced, &traced}) {
            for (const Pass &pass : *passes) {
                ++result.attempted;
                const std::string why =
                    checkUsageBudget(pass.budgets[p], lambdaD, exact);
                if (!why.empty())
                    result.fail(std::string("usage ") + kProfiles[p].label +
                                ": " + why);
            }
        }
    }

    const auto tracedMetrics = passMetrics(traced);
    reportWindows(result, passMetrics(untraced),
                  options.trace ? &tracedMetrics : nullptr);
    result.note("passes", static_cast<double>(untraced.size()));
    const size_t kept = noteStolen(result, passUnits(untraced), "passes");
    result.note("latency_samples",
                static_cast<double>(kept * set->all().size()));
    result.note("cells_per_pass", static_cast<double>(set->all().size()));
    result.perLayer["engine.threads_created_after_warmup"] =
        static_cast<double>(
            windowDelta.counter("sim.mc.pool.threads_created"));

    if (options.trace) {
        // Counters cover every pass (each does identical work); span
        // times only the traced ones.
        const double allPasses =
            static_cast<double>(untraced.size() + traced.size());
        const double passes = static_cast<double>(traced.size());
        const auto spans = Tracer::global().totals();
        const auto self = [&](const char *name) {
            const auto found = spans.find(name);
            return found == spans.end() ? 0.0 : found->second.selfSeconds;
        };
        result.perLayer["sim.usage_s"] = self("sim.usage") / passes;
        result.perLayer["sim.poisson_samples"] =
            static_cast<double>(windowDelta.counter("sim.poisson.samples")) /
            allPasses;
        result.perLayer["sim.mc_runs"] =
            static_cast<double>(windowDelta.timerCount("sim.mc.run")) /
            allPasses;
        result.perLayer["wearout.mixture_s"] =
            self("wearout.mixture") / passes;
        result.perLayer["fault.ablation_s"] = self("fault.ablation") / passes;
        const double deviceSamples =
            static_cast<double>(
                windowDelta.counter("arch.sim.device_samples")) /
            allPasses;
        result.perLayer["arch.device_samples"] = deviceSamples;
        result.perLayer["arch.ns_per_device_sample"] =
            deviceSamples > 0.0
                ? (self("wearout.mixture") + self("fault.ablation") +
                   self("core.usage_bounds")) /
                      passes * 1e9 / deviceSamples
                : 0.0;
        const auto solves = spans.find("core.solve");
        result.perLayer["core.solve_ms"] =
            solves == spans.end()
                ? 0.0
                : solves->second.selfSeconds * 1e3 /
                      static_cast<double>(solves->second.count);
        result.perLayer["core.usage_bounds_s"] =
            self("core.usage_bounds") / passes;
        result.perLayer["engine.cache_hit_ratio"] = cacheHitRatio(windowDelta);
        // The Fig 4b flagship bank: Weibull(14, 8), 18-of-175.
        probeBankKernel(result, 14.0, 8.0, 175, 18, 20000, options.seed);
        result.perLayer["engine.parallel_efficiency"] =
            parallelEfficiency(options.seed, threads);
        result.note("traced_passes", passes);
    }
    return result;
}

} // namespace perfbench
