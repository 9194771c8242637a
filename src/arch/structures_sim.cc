#include "arch/structures_sim.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "engine/batch.h"
#include "obs/metrics.h"
#include "util/require.h"

namespace lemons::arch {

namespace {

// The lifetime -> whole-accesses clamp lives in the engine layer now
// (engine::floorToAccesses) so the batched trial kernels and this
// generic path share one definition.
using engine::floorToAccesses;

/** True when every fabricated device matches the nominal Weibull. */
bool
isNominalLot(const wearout::DeviceFactory &factory)
{
    const wearout::ProcessVariation &variation = factory.variation();
    return variation.alphaSigma == 0.0 && variation.betaSigma == 0.0;
}

/**
 * Per-thread lifetime buffer of the generic path. Structure widths
 * recur from trial to trial, so one buffer per thread replaces the
 * per-structure allocation.
 */
thread_local std::vector<double> lifetimeScratch;

/** A NaN lifetime has no order: reject it before any selection. */
double
checkedLifetime(double lifetime)
{
    requireArg(!std::isnan(lifetime),
               "sampleParallelSurvivedAccesses: sampler returned NaN");
    return lifetime;
}

} // namespace

uint64_t
sampleParallelSurvivedAccesses(const LifetimeSampler &sampler, size_t n,
                               size_t k, Rng &rng)
{
    requireArg(n >= 1, "sampleParallelSurvivedAccesses: n must be >= 1");
    requireArg(k >= 1 && k <= n,
               "sampleParallelSurvivedAccesses: need 1 <= k <= n");
    // One bump per structure, not per device: the per-device count is
    // n, and aggregate increments keep the atomic off the inner loop.
    LEMONS_OBS_INCREMENT("arch.sim.structure_samples");
    LEMONS_OBS_COUNT("arch.sim.device_samples", n);
    // The structure survives access t while the k-th largest lifetime
    // is >= t, so the survived count is floor of that order statistic.
    if (k == 1) {
        double largest = -std::numeric_limits<double>::infinity();
        for (size_t i = 0; i < n; ++i)
            largest = std::max(largest, checkedLifetime(sampler(rng)));
        return floorToAccesses(largest);
    }
    // Borrow the thread's buffer for the call: a sampler that itself
    // samples a structure then finds it empty and cannot clobber ours.
    std::vector<double> lifetimes = std::move(lifetimeScratch);
    lifetimes.resize(n);
    for (double &lifetime : lifetimes)
        lifetime = checkedLifetime(sampler(rng));
    std::nth_element(lifetimes.begin(),
                     lifetimes.begin() + static_cast<std::ptrdiff_t>(k - 1),
                     lifetimes.end(), std::greater<double>());
    const double selected = lifetimes[k - 1];
    lifetimeScratch = std::move(lifetimes);
    return floorToAccesses(selected);
}

uint64_t
sampleParallelSurvivedAccesses(const wearout::DeviceFactory &factory,
                               size_t n, size_t k, Rng &rng)
{
    if (isNominalLot(factory)) {
        // iid nominal Weibull: the engine's u-select kernel consumes
        // the identical uniform stream and returns a bit-identical
        // order statistic with one inverse-CDF transform instead of n.
        // Argument validation happens once, inside the kernel.
        LEMONS_OBS_INCREMENT("arch.sim.structure_samples");
        LEMONS_OBS_COUNT("arch.sim.device_samples", n);
        return engine::sampleParallelBankSurvival(factory.nominalModel(),
                                                  n, k, rng);
    }
    return sampleParallelSurvivedAccesses(
        [&factory](Rng &r) { return factory.sampleLifetime(r); }, n, k,
        rng);
}

uint64_t
sampleSerialCopiesTotalAccesses(const LifetimeSampler &sampler, size_t n,
                                size_t k, uint64_t copies, Rng &rng)
{
    requireArg(copies >= 1,
               "sampleSerialCopiesTotalAccesses: need at least one copy");
    uint64_t total = 0;
    for (uint64_t c = 0; c < copies; ++c)
        total += sampleParallelSurvivedAccesses(sampler, n, k, rng);
    return total;
}

uint64_t
sampleSeriesSurvivedAccesses(const wearout::DeviceFactory &factory, size_t n,
                             Rng &rng)
{
    requireArg(n >= 1, "sampleSeriesSurvivedAccesses: n must be >= 1");
    if (isNominalLot(factory))
        return engine::sampleSeriesBankSurvival(factory.nominalModel(), n,
                                                rng);
    double minLifetime = std::numeric_limits<double>::infinity();
    for (size_t i = 0; i < n; ++i)
        minLifetime = std::min(minLifetime, factory.sampleLifetime(rng));
    return floorToAccesses(minLifetime);
}

uint64_t
sampleSerialCopiesTotalAccesses(const wearout::DeviceFactory &factory,
                                size_t n, size_t k, uint64_t copies, Rng &rng)
{
    requireArg(copies >= 1,
               "sampleSerialCopiesTotalAccesses: need at least one copy");
    uint64_t total = 0;
    for (uint64_t c = 0; c < copies; ++c)
        total += sampleParallelSurvivedAccesses(factory, n, k, rng);
    return total;
}

namespace {

/**
 * Classify a sampled population at a probe access. A device counts
 * alive when it is stuck closed (conducts forever) or its lifetime
 * covers the probe access.
 */
StructureHealth
assessHealth(const std::vector<fault::FaultyLifetime> &fates,
             size_t threshold, uint64_t probeAccess)
{
    StructureHealth health;
    health.width = fates.size();
    health.threshold = threshold;
    for (const fault::FaultyLifetime &fate : fates) {
        if (fate.stuckClosed()) {
            ++health.stuckClosed;
            ++health.alive;
        } else if (fate.lifetime >= static_cast<double>(probeAccess)) {
            ++health.alive;
        }
    }
    if (health.alive == health.width)
        health.status = HealthStatus::Healthy;
    else if (health.alive >= threshold)
        health.status = HealthStatus::Degraded;
    else
        health.status = HealthStatus::Dead;
    health.attackBoundViolated = health.stuckClosed >= threshold;
    return health;
}

std::vector<fault::FaultyLifetime>
sampleFates(const fault::FaultyDeviceFactory &factory, size_t n, Rng &rng)
{
    std::vector<fault::FaultyLifetime> fates;
    fates.reserve(n);
    for (size_t i = 0; i < n; ++i)
        fates.push_back(factory.sampleFaultyLifetime(rng));
    return fates;
}

} // namespace

StructureHealth
probeParallelHealth(const fault::FaultyDeviceFactory &factory, size_t n,
                    size_t k, uint64_t probeAccess, Rng &rng)
{
    requireArg(n >= 1, "probeParallelHealth: n must be >= 1");
    requireArg(k >= 1 && k <= n, "probeParallelHealth: need 1 <= k <= n");
    return assessHealth(sampleFates(factory, n, rng), k, probeAccess);
}

StructureHealth
probeSeriesHealth(const fault::FaultyDeviceFactory &factory, size_t n,
                  uint64_t probeAccess, Rng &rng)
{
    requireArg(n >= 1, "probeSeriesHealth: n must be >= 1");
    // A series chain conducts only when every device does, so its
    // threshold is the full width; it is unkillable only when every
    // device is stuck closed, which assessHealth reports through the
    // same stuckClosed >= threshold rule.
    return assessHealth(sampleFates(factory, n, rng), n, probeAccess);
}

namespace {

/** Per-thread draw and uniform buffers of the fault bank kernel. */
thread_local std::vector<double> faultDraws;
thread_local std::vector<double> infantUniforms;

/**
 * Move the min(k, m) smallest of @p u[0..m) to its front and return
 * how many that is. Order within the front is unspecified.
 */
size_t
keepSmallest(double *u, size_t m, size_t k)
{
    if (k >= m)
        return m;
    if (k == 1)
        u[0] = engine::selectKthSmallest(u, m, 1);
    else
        engine::selectKthSmallestUniform(u, m, k);
    return k;
}

/**
 * Fault bank kernel for a nominal lot under a plan without drift.
 *
 * Device i of the per-device path consumes, in order, a stuck draw
 * (when epsilon > 0), an infant draw (when w > 0) and one lifetime
 * uniform u. All n such tuples come from one bulk fillUniformOpenLow;
 * the [0, 1) value nextDouble() would have returned for a draw is its
 * open-low value minus 2^-53, exactly. A healthy lifetime T(u) and an
 * infant lifetime min(T(u), T_early(u)) are both non-increasing in u,
 * so once the k' = k - stuck mortal devices that must survive are
 * known, the k'-th largest mortal lifetime lies among the k' smallest
 * uniforms of each group: at most 2k' transforms instead of n, with
 * the identical draws and a bit-identical result.
 */
FaultySurvival
sampleFaultyNominalBank(const fault::FaultyDeviceFactory &factory, size_t n,
                        size_t k, Rng &rng)
{
    const fault::FaultPlan &plan = factory.plan();
    const wearout::Weibull &healthy = factory.base().nominalModel();
    FaultySurvival survival;
    if (plan.isNull()) {
        // The null plan draws exactly what the unfaulted factory does.
        survival.accesses =
            engine::sampleParallelBankSurvival(healthy, n, k, rng);
        return survival;
    }

    const double stuckRate = plan.stuckClosedRate;
    const double infantRate = plan.infantFraction;
    const size_t stride =
        1 + size_t{stuckRate > 0.0} + size_t{infantRate > 0.0};
    std::vector<double> &draws = faultDraws;
    std::vector<double> &infant = infantUniforms;
    if (draws.size() < n * stride)
        draws.resize(n * stride);
    if (infant.size() < n)
        infant.resize(n);
    rng.fillUniformOpenLow(draws.data(), n * stride);

    // Classify, compacting the healthy uniforms into the front of the
    // draw buffer (write index <= read index) and the infant ones into
    // their own buffer, without branching on the draws.
    constexpr double kGridStep = 0x1.0p-53;
    double *healthyU = draws.data();
    size_t stuck = 0;
    size_t healthyCount = 0;
    size_t infantCount = 0;
    for (size_t i = 0; i < n; ++i) {
        const double *device = draws.data() + i * stride;
        size_t at = 0;
        const bool isStuck =
            stuckRate > 0.0 && device[at++] - kGridStep < stuckRate;
        const bool isInfant =
            infantRate > 0.0 && device[at++] - kGridStep < infantRate;
        const double u = device[at];
        healthyU[healthyCount] = u;
        infant[infantCount] = u;
        stuck += isStuck;
        healthyCount += !isStuck && !isInfant;
        infantCount += !isStuck && isInfant;
    }
    survival.stuckDevices = stuck;
    if (stuck >= k) {
        survival.unbounded = true;
        return survival;
    }

    // Candidate lifetimes go to the front of the draw buffer: healthy
    // ones in place, infant ones right after them.
    const size_t mortalK = k - stuck;
    const size_t healthyKept = keepSmallest(healthyU, healthyCount, mortalK);
    const size_t infantKept =
        keepSmallest(infant.data(), infantCount, mortalK);
    double *lifetimes = draws.data();
    for (size_t i = 0; i < healthyKept; ++i)
        lifetimes[i] = healthy.sampleFromUniform(lifetimes[i]);
    if (infantKept > 0) {
        const wearout::Weibull early(plan.infantScaleFraction *
                                         factory.base().spec().alpha,
                                     plan.infantShape);
        for (size_t i = 0; i < infantKept; ++i)
            lifetimes[healthyKept + i] =
                std::min(healthy.sampleFromUniform(infant[i]),
                         early.sampleFromUniform(infant[i]));
    }
    // The k'-th largest of the candidates is their
    // (candidates - k' + 1)-th smallest.
    const size_t candidates = healthyKept + infantKept;
    survival.accesses = floorToAccesses(engine::selectKthSmallest(
        lifetimes, candidates, candidates - mortalK + 1));
    return survival;
}

} // namespace

FaultySurvival
sampleFaultyParallelSurvivedAccesses(const fault::FaultyDeviceFactory &factory,
                                     size_t n, size_t k, Rng &rng)
{
    requireArg(n >= 1,
               "sampleFaultyParallelSurvivedAccesses: n must be >= 1");
    requireArg(k >= 1 && k <= n,
               "sampleFaultyParallelSurvivedAccesses: need 1 <= k <= n");
    LEMONS_OBS_INCREMENT("arch.sim.faulty_structure_samples");
    LEMONS_OBS_COUNT("arch.sim.device_samples", n);
    const fault::FaultPlan &plan = factory.plan();
    if (isNominalLot(factory.base()) && plan.alphaDriftSigma == 0.0 &&
        plan.betaDriftSigma == 0.0)
        return sampleFaultyNominalBank(factory, n, k, rng);

    // Lot variation or drift: lifetimes are no longer monotone in one
    // uniform, so every device is sampled and transformed.
    FaultySurvival survival;
    std::vector<double> lifetimes;
    lifetimes.reserve(n);
    for (size_t i = 0; i < n; ++i) {
        const fault::FaultyLifetime fate = factory.sampleFaultyLifetime(rng);
        if (fate.stuckClosed())
            ++survival.stuckDevices;
        lifetimes.push_back(fate.lifetime);
    }
    if (survival.stuckDevices >= k) {
        survival.unbounded = true;
        return survival;
    }
    std::nth_element(lifetimes.begin(),
                     lifetimes.begin() + static_cast<std::ptrdiff_t>(k - 1),
                     lifetimes.end(), std::greater<double>());
    survival.accesses = floorToAccesses(lifetimes[k - 1]);
    return survival;
}

FaultyArchitectureOutcome
sampleFaultySerialCopiesOutcome(const fault::FaultyDeviceFactory &factory,
                                size_t n, size_t k, uint64_t copies,
                                Rng &rng)
{
    requireArg(copies >= 1,
               "sampleFaultySerialCopiesOutcome: need at least one copy");
    FaultyArchitectureOutcome outcome;
    for (uint64_t c = 0; c < copies; ++c) {
        const FaultySurvival survival =
            sampleFaultyParallelSurvivedAccesses(factory, n, k, rng);
        if (survival.stuckDevices >= k)
            ++outcome.stuckDominatedCopies;
        if (survival.unbounded) {
            // Serial consumption halts here: this copy keeps serving
            // accesses forever, so later copies are never reached.
            LEMONS_OBS_INCREMENT("arch.sim.unbounded_outcomes");
            outcome.unbounded = true;
            return outcome;
        }
        outcome.totalAccesses += survival.accesses;
    }
    return outcome;
}

} // namespace lemons::arch
