/**
 * @file
 * Tests for the fault-injection subsystem and the fault-tolerant
 * Monte Carlo engine: null-plan bit-identity with the unfaulted
 * simulator, stuck-closed monotonicity of attacker success, glitch and
 * infant-mortality semantics, degraded-but-alive health reporting, the
 * fault bank kernel against the per-device definition, and TrialReport
 * capture of throwing / non-finite trials.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <stdexcept>
#include <vector>

#include "arch/structures_sim.h"
#include "core/decision_tree.h"
#include "core/design_solver.h"
#include "core/gate.h"
#include "core/mway.h"
#include "core/targeting.h"
#include "engine/batch.h"
#include "fault/fault_plan.h"
#include "fault/faulty_device.h"
#include "sim/monte_carlo.h"

namespace lemons::fault {
namespace {

using wearout::DeviceFactory;
using wearout::ProcessVariation;

DeviceFactory
idealFactory()
{
    return DeviceFactory({10.0, 12.0}, ProcessVariation::none());
}

core::Design
smallDesign()
{
    core::DesignRequest request;
    request.device = {10.0, 12.0};
    request.legitimateAccessBound = 100;
    request.kFraction = 0.1;
    return core::DesignSolver(request).solve();
}

std::vector<uint8_t>
secretBytes()
{
    return {0xca, 0xfe, 0xf0, 0x0d};
}

TEST(FaultPlan, ValidationAndNullness)
{
    EXPECT_TRUE(FaultPlan::none().isNull());
    EXPECT_FALSE(FaultPlan::stuckClosed(1e-3).isNull());
    EXPECT_FALSE(FaultPlan::infantMortality(0.05).isNull());

    FaultPlan negative;
    negative.stuckClosedRate = -0.1;
    EXPECT_THROW(negative.validate(), std::invalid_argument);

    FaultPlan tooLarge;
    tooLarge.infantFraction = 1.5;
    EXPECT_THROW(tooLarge.validate(), std::invalid_argument);

    FaultPlan badShape;
    badShape.infantFraction = 0.1;
    badShape.infantShape = 0.0;
    EXPECT_THROW(badShape.validate(), std::invalid_argument);

    EXPECT_THROW(FaultyDeviceFactory(idealFactory(), negative),
                 std::invalid_argument);
}

// Acceptance (a): an all-zero FaultPlan must be bit-identical to the
// unfaulted simulator for the same seed, draw for draw.
TEST(NullPlan, LifetimesBitIdenticalToBaseFactory)
{
    const DeviceFactory base({10.0, 12.0}, {0.05, 0.02});
    const FaultyDeviceFactory faulty(base, FaultPlan::none());

    Rng baseRng(99);
    Rng faultyRng(99);
    for (int i = 0; i < 2000; ++i) {
        EXPECT_EQ(base.sampleLifetime(baseRng),
                  faulty.sampleLifetime(faultyRng));
    }
}

TEST(NullPlan, StructureSamplesBitIdentical)
{
    const DeviceFactory base({10.0, 12.0}, {0.05, 0.02});
    const FaultyDeviceFactory faulty(base, FaultPlan::none());

    for (uint64_t trial = 0; trial < 200; ++trial) {
        Rng baseRng = Rng(7).split(trial);
        Rng faultyRng = Rng(7).split(trial);
        const uint64_t ideal = arch::sampleParallelSurvivedAccesses(
            base, 20, 3, baseRng);
        const arch::FaultySurvival injected =
            arch::sampleFaultyParallelSurvivedAccesses(faulty, 20, 3,
                                                       faultyRng);
        EXPECT_FALSE(injected.unbounded);
        EXPECT_EQ(injected.stuckDevices, 0u);
        EXPECT_EQ(injected.accesses, ideal);
    }
}

TEST(NullPlan, GateAccessSequenceBitIdentical)
{
    const core::Design design = smallDesign();
    ASSERT_TRUE(design.feasible);

    Rng idealRng(42);
    core::LimitedUseGate ideal(design, idealFactory(), secretBytes(),
                               idealRng);

    Rng faultyRng(42);
    const FaultyDeviceFactory factory(idealFactory(), FaultPlan::none());
    core::LimitedUseGate faulty(design, factory, secretBytes(), faultyRng);

    // Drive both gates to exhaustion; every access must agree.
    while (!ideal.exhausted()) {
        const auto a = ideal.access();
        const auto b = faulty.access();
        ASSERT_EQ(a.has_value(), b.has_value());
        if (a) {
            EXPECT_EQ(*a, *b);
        }
    }
    EXPECT_TRUE(faulty.exhausted());
    EXPECT_EQ(ideal.accessCount(), faulty.accessCount());
}

// Acceptance (b): attacker success is monotonically non-decreasing in
// the stuck-closed rate epsilon. The common-random-numbers coupling in
// FaultyDeviceFactory makes this hold per-trial, not just on average.
TEST(StuckClosed, UnboundedAccessMonotoneInEpsilonPerTrial)
{
    const DeviceFactory base = idealFactory();
    const double epsilons[] = {0.05, 0.15, 0.3};
    constexpr size_t n = 20;
    constexpr size_t k = 4;
    constexpr uint64_t trials = 300;

    uint64_t unboundedAtLowest = 0;
    for (uint64_t trial = 0; trial < trials; ++trial) {
        bool previous = false;
        for (double eps : epsilons) {
            const FaultyDeviceFactory factory(base,
                                              FaultPlan::stuckClosed(eps));
            Rng rng = Rng(1234).split(trial);
            const arch::FaultySurvival outcome =
                arch::sampleFaultyParallelSurvivedAccesses(factory, n, k,
                                                           rng);
            // Once a trial is unbounded at some epsilon it must stay
            // unbounded at every larger epsilon (same uniforms, larger
            // acceptance region).
            EXPECT_GE(outcome.unbounded, previous)
                << "trial " << trial << " eps " << eps;
            previous = outcome.unbounded;
            if (eps == epsilons[0] && outcome.unbounded)
                ++unboundedAtLowest;
        }
    }
    // And epsilon = 0 can never produce an unbounded structure, which
    // anchors the chain at zero.
    const FaultyDeviceFactory nullFactory(base, FaultPlan::none());
    for (uint64_t trial = 0; trial < trials; ++trial) {
        Rng rng = Rng(1234).split(trial);
        EXPECT_FALSE(arch::sampleFaultyParallelSurvivedAccesses(
                         nullFactory, n, k, rng)
                         .unbounded);
    }
    // Sanity: the sweep actually exercised both outcomes.
    EXPECT_GT(unboundedAtLowest, 0u);
    EXPECT_LT(unboundedAtLowest, trials);
}

TEST(StuckClosed, AnalyticAdversarySuccessMonotone)
{
    core::OtpParams params;
    params.height = 6;
    params.copies = 64;
    params.threshold = 4;
    params.device = {2.0, 1.0};
    const core::OtpAnalytics analytics(params);

    EXPECT_NEAR(analytics.pathSuccessWithStuckClosed(0.0),
                analytics.pathSuccess(), 1e-15);
    EXPECT_NEAR(analytics.adversarySuccessWithStuckClosed(0.0),
                analytics.adversarySuccess(), 1e-15);

    double previous = 0.0;
    for (double eps : {0.0, 1e-4, 1e-3, 1e-2, 0.1, 0.5, 1.0}) {
        const double success = analytics.adversarySuccessWithStuckClosed(eps);
        EXPECT_GE(success, previous) << "eps " << eps;
        previous = success;
    }
    // A fully stuck-closed population conducts every path: the
    // adversary's per-copy traversal always succeeds.
    EXPECT_NEAR(analytics.pathSuccessWithStuckClosed(1.0), 1.0, 1e-12);
}

TEST(StuckClosed, SwitchNeverWearsOut)
{
    const FaultyLifetime fate{std::numeric_limits<double>::infinity(),
                              DeviceFaultMode::StuckClosed};
    FaultyNemsSwitch sw(fate, /*glitchRate=*/0.0, /*glitchSeed=*/0);
    EXPECT_TRUE(sw.stuckClosed());
    for (int i = 0; i < 10000; ++i)
        ASSERT_TRUE(sw.actuate());
    EXPECT_FALSE(sw.failed());
    EXPECT_TRUE(sw.alive());
}

TEST(StuckClosed, GateReportsAttackBoundViolationAndOutlivesBound)
{
    const core::Design design = smallDesign();
    ASSERT_TRUE(design.feasible);
    const FaultyDeviceFactory factory(idealFactory(),
                                      FaultPlan::stuckClosed(1.0));
    Rng rng(5);
    core::LimitedUseGate gate(design, factory, secretBytes(), rng);

    const core::GateHealth health = gate.health();
    EXPECT_TRUE(health.attackBoundViolated);
    EXPECT_FALSE(health.exhausted);
    EXPECT_EQ(health.activeStuckShares, design.width);

    // The gate should blow straight through the design's access bound:
    // this is exactly the guarantee stuck-closed contacts destroy.
    const auto bound = static_cast<uint64_t>(design.expectedSystemTotal);
    for (uint64_t i = 0; i < 3 * bound + 10; ++i)
        ASSERT_TRUE(gate.access().has_value());
    EXPECT_FALSE(gate.exhausted());
}

TEST(Glitch, FailsReadsWithoutConsumingLifetime)
{
    const FaultyLifetime fate{100.0, DeviceFaultMode::None};
    FaultyNemsSwitch sw(fate, /*glitchRate=*/1.0, /*glitchSeed=*/77);
    for (int i = 0; i < 50; ++i)
        EXPECT_FALSE(sw.actuate());
    EXPECT_EQ(sw.glitchCount(), 50u);
    EXPECT_EQ(sw.cyclesUsed(), 50u);
    EXPECT_FALSE(sw.failed());
    EXPECT_TRUE(sw.alive()); // glitches cost availability, not life
}

TEST(Glitch, ZeroRateMatchesPlainSwitch)
{
    const FaultyLifetime fate{3.0, DeviceFaultMode::None};
    FaultyNemsSwitch sw(fate, /*glitchRate=*/0.0, /*glitchSeed=*/0);
    EXPECT_TRUE(sw.actuate());
    EXPECT_TRUE(sw.actuate());
    EXPECT_TRUE(sw.actuate());
    EXPECT_FALSE(sw.actuate()); // lifetime 3.0 exhausted
    EXPECT_TRUE(sw.failed());
    EXPECT_EQ(sw.glitchCount(), 0u);
}

TEST(InfantMortality, ShortensEarlyLifetimes)
{
    const DeviceFactory base = idealFactory();
    FaultPlan plan;
    plan.infantFraction = 1.0; // every device is an infant-mortality one
    const FaultyDeviceFactory faulty(base, plan);

    Rng baseRng(11);
    Rng faultyRng(11);
    double baseMean = 0.0;
    double infantMean = 0.0;
    constexpr int draws = 4000;
    for (int i = 0; i < draws; ++i) {
        baseMean += base.sampleLifetime(baseRng);
        const FaultyLifetime fate = faulty.sampleFaultyLifetime(faultyRng);
        EXPECT_EQ(fate.mode, DeviceFaultMode::InfantMortality);
        infantMean += fate.lifetime;
    }
    baseMean /= draws;
    infantMean /= draws;
    // Infant devices live on a Weibull with a fraction of the scale and
    // an early-failure shape: the population mean must collapse.
    EXPECT_LT(infantMean, 0.5 * baseMean);
}

TEST(InfantMortality, PopulationReliabilityMatchesSampling)
{
    // Cross-validate the analytic bathtub-mixture bridge against the
    // competing-risks sampler: empirical survival frequencies must
    // match populationReliability, and the pure mixture view (which
    // ignores the wearout cap on infant draws) must upper-bound it.
    FaultPlan plan;
    plan.stuckClosedRate = 0.02;
    plan.infantFraction = 0.3;
    const FaultyDeviceFactory factory(idealFactory(), plan);

    constexpr int draws = 20000;
    Rng rng(21);
    std::vector<double> lifetimes;
    lifetimes.reserve(draws);
    for (int i = 0; i < draws; ++i)
        lifetimes.push_back(factory.sampleLifetime(rng));

    const wearout::BathtubModel bathtub = factory.populationModel();
    for (double x : {0.5, 2.0, 5.0, 9.0, 11.0}) {
        int survivors = 0;
        for (double t : lifetimes) {
            if (t > x) // stuck devices are +inf: always survive
                ++survivors;
        }
        const double empirical =
            static_cast<double>(survivors) / static_cast<double>(draws);
        const double analytic = factory.populationReliability(x);
        EXPECT_NEAR(empirical, analytic, 0.015) << "x = " << x;
        // Mixture view without the stuck offset can only exceed the
        // exact mortal reliability.
        const double mixtureView =
            plan.stuckClosedRate +
            (1.0 - plan.stuckClosedRate) * bathtub.reliability(x);
        EXPECT_GE(mixtureView + 1e-12, analytic) << "x = " << x;
    }
}

/**
 * The per-device definition of a fault-injected bank: one
 * sampleFaultyLifetime per device. The bank kernel must reproduce the
 * k-th largest of these lifetimes bit for bit, stream position
 * included.
 */
struct ReferenceBank
{
    std::vector<double> lifetimes;
    size_t stuckDevices = 0;

    ReferenceBank(const FaultyDeviceFactory &factory, size_t n, Rng &rng)
    {
        for (size_t i = 0; i < n; ++i) {
            const FaultyLifetime fate = factory.sampleFaultyLifetime(rng);
            if (fate.stuckClosed())
                ++stuckDevices;
            lifetimes.push_back(fate.lifetime);
        }
    }

    /** The k-out-of-n survival of this population. */
    arch::FaultySurvival survival(size_t k) const
    {
        arch::FaultySurvival result;
        result.stuckDevices = stuckDevices;
        if (stuckDevices >= k) {
            result.unbounded = true;
            return result;
        }
        std::vector<double> sorted = lifetimes;
        std::nth_element(sorted.begin(),
                         sorted.begin() + static_cast<std::ptrdiff_t>(k - 1),
                         sorted.end(), std::greater<double>());
        result.accesses = engine::floorToAccesses(sorted[k - 1]);
        return result;
    }
};

/**
 * Compare the kernel against the reference on @p trials trials of both
 * a Philox trial stream and a xoshiro stream, for every distinct
 * min(k, n) with k in @p ks; adds the number of cases run to @p cases.
 */
void
expectMatchesReference(const FaultyDeviceFactory &factory, size_t n,
                       std::vector<size_t> ks, uint64_t trials,
                       size_t &cases)
{
    for (size_t &k : ks)
        k = std::min(k, n);
    std::sort(ks.begin(), ks.end());
    ks.erase(std::unique(ks.begin(), ks.end()), ks.end());
    for (uint64_t trial = 0; trial < trials; ++trial) {
        for (bool philox : {true, false}) {
            const Rng start = philox ? Rng::trialStream(2027, trial)
                                     : Rng(2027).split(trial);
            Rng referenceRng = start;
            const ReferenceBank reference(factory, n, referenceRng);
            const uint64_t nextDraw = referenceRng.next();
            for (size_t k : ks) {
                Rng kernelRng = start;
                const arch::FaultySurvival got =
                    arch::sampleFaultyParallelSurvivedAccesses(factory, n, k,
                                                               kernelRng);
                const arch::FaultySurvival want = reference.survival(k);
                const auto where = [&] {
                    const FaultPlan &plan = factory.plan();
                    return ::testing::Message()
                           << "eps " << plan.stuckClosedRate << " w "
                           << plan.infantFraction << " n " << n << " k "
                           << k << " trial " << trial
                           << (philox ? " philox" : " xoshiro");
                };
                ASSERT_EQ(got.unbounded, want.unbounded) << where();
                ASSERT_EQ(got.stuckDevices, want.stuckDevices) << where();
                ASSERT_EQ(got.accesses, want.accesses) << where();
                ASSERT_EQ(kernelRng.next(), nextDraw) << where();
                ++cases;
            }
        }
    }
}

TEST(FaultBankKernel, MatchesPerDeviceReference)
{
    size_t cases = 0;
    for (double eps : {0.0, 1e-4, 1e-2, 0.3}) {
        for (double w : {0.0, 0.05, 0.5}) {
            FaultPlan plan;
            plan.stuckClosedRate = eps;
            plan.infantFraction = w;
            const FaultyDeviceFactory factory(idealFactory(), plan);
            for (size_t n : {size_t{1}, size_t{2}, size_t{7}, size_t{105},
                             size_t{34311}}) {
                expectMatchesReference(factory, n, {1, 2, n / 2 + 1, n},
                                       20, cases);
                if (HasFatalFailure())
                    return;
            }
        }
    }
    // Distinct k per n: 1, 2, 4, 4, 4.
    EXPECT_EQ(cases, 12u * 15u * 20u * 2u);
}

TEST(FaultBankKernel, WideBankPartitionsBothClasses)
{
    // With half the lot infant, both classes hold about 500 uniforms,
    // so for mortal k > 1 each class selects its k smallest through
    // the pivot partition rather than the small-bank fallback.
    size_t cases = 0;
    for (double eps : {0.0, 1e-2}) {
        FaultPlan plan;
        plan.stuckClosedRate = eps;
        plan.infantFraction = 0.5;
        const FaultyDeviceFactory factory(idealFactory(), plan);
        expectMatchesReference(factory, 1000, {2, 100, 400}, 10, cases);
        if (HasFatalFailure())
            return;
    }
    EXPECT_EQ(cases, 2u * 3u * 10u * 2u);
}

TEST(FaultBankKernel, GlitchOnlyPlanMatchesPerDeviceReference)
{
    // Not a null plan, yet every device draws only its lifetime.
    FaultPlan plan;
    plan.glitchRate = 0.1;
    const FaultyDeviceFactory factory(idealFactory(), plan);
    size_t cases = 0;
    for (size_t n : {size_t{1}, size_t{7}, size_t{105}})
        expectMatchesReference(factory, n, {1, 2, n / 2 + 1, n}, 20, cases);
    EXPECT_EQ(cases, 9u * 20u * 2u);
}

TEST(FaultBankKernel, LotVariationAndDriftTakeThePerDeviceLoop)
{
    FaultPlan varied;
    varied.stuckClosedRate = 1e-2;
    varied.infantFraction = 0.05;
    const FaultyDeviceFactory lot(DeviceFactory({10.0, 12.0}, {0.05, 0.02}),
                                  varied);
    size_t cases = 0;
    expectMatchesReference(lot, 105, {1, 2, 53, 105}, 20, cases);

    FaultPlan drifting = varied;
    drifting.alphaDriftSigma = 0.05;
    drifting.betaDriftSigma = 0.02;
    const FaultyDeviceFactory drift(idealFactory(), drifting);
    expectMatchesReference(drift, 105, {1, 2, 53, 105}, 20, cases);
    EXPECT_EQ(cases, 2u * 4u * 20u * 2u);
}

TEST(Health, ParallelDegradedAndDeadStates)
{
    const FaultyDeviceFactory factory(idealFactory(), FaultPlan::none());

    Rng rng(3);
    // Probe access 1: alpha = 10 devices essentially all close.
    const arch::StructureHealth fresh =
        arch::probeParallelHealth(factory, 12, 3, 1, rng);
    EXPECT_EQ(fresh.status, arch::HealthStatus::Healthy);
    EXPECT_EQ(fresh.alive, 12u);
    EXPECT_FALSE(fresh.attackBoundViolated);

    // Probe far beyond alpha: everything has worn out.
    Rng lateRng(3);
    const arch::StructureHealth dead =
        arch::probeParallelHealth(factory, 12, 3, 1000, lateRng);
    EXPECT_EQ(dead.status, arch::HealthStatus::Dead);
    EXPECT_EQ(dead.alive, 0u);

    // Probe near alpha with a tight beta: some devices are gone but the
    // low threshold keeps the structure alive -> Degraded shows up.
    bool sawDegraded = false;
    Rng midRng(3);
    for (int i = 0; i < 200 && !sawDegraded; ++i) {
        const arch::StructureHealth mid =
            arch::probeParallelHealth(factory, 12, 2, 10, midRng);
        sawDegraded = mid.status == arch::HealthStatus::Degraded;
    }
    EXPECT_TRUE(sawDegraded);
}

TEST(Health, SeriesChainCannotBeBrokenByStuckDevices)
{
    // Half the devices stuck closed: a series chain still conducts only
    // while the *mortal* devices survive, and the bound is violated only
    // when every device is stuck.
    const FaultyDeviceFactory half(idealFactory(),
                                   FaultPlan::stuckClosed(0.5));
    Rng rng(8);
    const arch::StructureHealth health =
        arch::probeSeriesHealth(half, 10, 1, rng);
    EXPECT_EQ(health.threshold, 10u);
    EXPECT_FALSE(health.attackBoundViolated);

    const FaultyDeviceFactory all(idealFactory(), FaultPlan::stuckClosed(1.0));
    Rng allRng(8);
    const arch::StructureHealth unkillable =
        arch::probeSeriesHealth(all, 10, 1000000, allRng);
    EXPECT_TRUE(unkillable.attackBoundViolated);
    EXPECT_EQ(unkillable.status, arch::HealthStatus::Healthy);
}

TEST(Health, TargetingAndMWayExposeGateHealth)
{
    const core::Design design = smallDesign();
    const FaultyDeviceFactory factory(idealFactory(),
                                      FaultPlan::stuckClosed(1.0));

    Rng rng(17);
    core::LaunchStation station(design, factory, secretBytes(), rng);
    EXPECT_TRUE(station.health().attackBoundViolated);

    Rng mwayRng(18);
    core::MWayReplication mway(3, design, factory, "alpha", secretBytes(),
                               mwayRng);
    const core::MWayHealth health = mway.health();
    EXPECT_EQ(health.modulesRemaining, 3u);
    EXPECT_TRUE(health.activeGate.attackBoundViolated);
    EXPECT_FALSE(health.exhausted);
}

// Acceptance (c): a metric throwing on one trial of the parallel
// engine must not std::terminate; the capture policy names the trial
// and completes the run, the rethrow policy rethrows on the caller.
TEST(TrialReport, NamesThrowingTrialAndCompletesRun)
{
    const sim::MonteCarlo mc(2024, 100);
    const auto report = mc.run(
        [](Rng &rng, uint64_t trial) {
            if (trial == 37)
                throw std::runtime_error("deliberate failure in trial 37");
            return rng.nextDouble();
        },
        {.threads = 4, .chunkSize = 16});

    ASSERT_EQ(report.failedTrials.size(), 1u);
    EXPECT_EQ(report.failedTrials[0], 37u);
    EXPECT_EQ(report.firstError, "deliberate failure in trial 37");
    EXPECT_TRUE(std::isnan(report.samples[37]));
    EXPECT_FALSE(report.complete());
    EXPECT_EQ(report.trials, 100u);
    EXPECT_EQ(report.cleanTrials(), 99u);
    EXPECT_EQ(report.stats.count(), 99u);
    EXPECT_TRUE(report.nonFiniteTrials.empty());
}

TEST(TrialReport, QuarantinesNonFiniteSamples)
{
    const sim::MonteCarlo mc(7, 50);
    const auto report = mc.run(
        [](Rng &, uint64_t trial) {
            if (trial == 5)
                return std::numeric_limits<double>::infinity();
            if (trial == 20)
                return std::numeric_limits<double>::quiet_NaN();
            return 1.0;
        },
        {.threads = 3, .chunkSize = 16});

    ASSERT_EQ(report.nonFiniteTrials.size(), 2u);
    EXPECT_EQ(report.nonFiniteTrials[0], 5u);
    EXPECT_EQ(report.nonFiniteTrials[1], 20u);
    EXPECT_TRUE(report.failedTrials.empty());
    EXPECT_EQ(report.cleanTrials(), 48u);
    EXPECT_EQ(report.stats.count(), 48u);
    EXPECT_EQ(report.stats.nonFiniteCount(), 2u);
    EXPECT_DOUBLE_EQ(report.stats.mean(), 1.0);
}

TEST(TrialReport, CleanRunMatchesRethrowPolicySamples)
{
    const sim::MonteCarlo mc(31337, 64);
    const auto metric = [](Rng &rng) { return rng.nextDouble(); };
    const auto samples =
        mc.run(metric, {.threads = 2,
                        .chunkSize = 16,
                        .faults = sim::FaultPolicy::Rethrow})
            .samples;
    const auto report = mc.run(metric, {.threads = 5, .chunkSize = 8});
    EXPECT_TRUE(report.complete());
    EXPECT_TRUE(report.firstError.empty());
    ASSERT_EQ(report.samples.size(), samples.size());
    for (size_t i = 0; i < samples.size(); ++i)
        EXPECT_EQ(report.samples[i], samples[i]); // bit-identical
}

TEST(RethrowPolicy, RethrowsOnCallerInsteadOfTerminating)
{
    const sim::MonteCarlo mc(1, 32);
    uint64_t calls = 0;
    const auto metric = [&calls](Rng &rng) {
        // Single-threaded: trials run in order, so call 13 is trial 12.
        if (++calls == 13)
            throw std::runtime_error("worker-thread failure");
        return rng.nextDouble();
    };
    try {
        static_cast<void>(mc.run(
            metric,
            {.threads = 1, .faults = sim::FaultPolicy::Rethrow}));
        FAIL() << "expected the metric's exception to propagate";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "worker-thread failure");
    }
}

} // namespace
} // namespace lemons::fault
