/**
 * @file
 * Monte Carlo counterparts of the analytic structure models: sample
 * device lifetimes from a factory and report how many accesses a
 * structure actually survives.
 */

#ifndef LEMONS_ARCH_STRUCTURES_SIM_H_
#define LEMONS_ARCH_STRUCTURES_SIM_H_

#include <cstddef>
#include <cstdint>
#include <functional>

#include "fault/faulty_device.h"
#include "util/rng.h"
#include "wearout/population.h"

namespace lemons::arch {

/**
 * Arbitrary lifetime source: draws one device time-to-failure. Lets
 * the model-sensitivity studies run the same structure simulations on
 * non-Weibull populations (e.g. bathtub mixtures).
 */
using LifetimeSampler = std::function<double(Rng &)>;

/**
 * Generic version of sampleParallelSurvivedAccesses for any lifetime
 * distribution. Throws std::invalid_argument when @p sampler returns
 * NaN, which has no place in an order statistic.
 */
uint64_t sampleParallelSurvivedAccesses(const LifetimeSampler &sampler,
                                        size_t n, size_t k, Rng &rng);

/** Generic version of sampleSerialCopiesTotalAccesses. */
uint64_t sampleSerialCopiesTotalAccesses(const LifetimeSampler &sampler,
                                         size_t n, size_t k,
                                         uint64_t copies, Rng &rng);

/**
 * Sample the number of whole accesses a k-out-of-n parallel structure
 * survives: each access actuates every device; the structure works
 * while at least k devices still close. Equals floor of the k-th
 * largest sampled lifetime.
 *
 * @param factory Device fabrication model.
 * @param n Structure width. @param k Alive threshold (1 <= k <= n).
 * @param rng Randomness source.
 */
uint64_t sampleParallelSurvivedAccesses(const wearout::DeviceFactory &factory,
                                        size_t n, size_t k, Rng &rng);

/**
 * Sample the number of whole accesses an n-device series chain
 * survives: floor of the minimum sampled lifetime.
 */
uint64_t sampleSeriesSurvivedAccesses(const wearout::DeviceFactory &factory,
                                      size_t n, Rng &rng);

/**
 * Sample the total accesses served by @p copies serially-consumed
 * parallel structures (the N-copy architecture of Section 4.1): when
 * the current copy's structure dies, the next copy takes over; the
 * total is the sum of per-copy survived accesses. This is the
 * quantity behind the paper's "empirical access bounds" (Fig 4c).
 */
uint64_t sampleSerialCopiesTotalAccesses(const wearout::DeviceFactory &factory,
                                         size_t n, size_t k, uint64_t copies,
                                         Rng &rng);

/**
 * Coarse structure condition. Fault injection makes the old binary
 * dead/alive view insufficient: a structure can be functional yet
 * compromised (stuck-closed shares) or functional yet eroded (devices
 * lost but still >= threshold).
 */
enum class HealthStatus {
    Healthy,  ///< every device still closes
    Degraded, ///< devices lost, but the structure still works
    Dead,     ///< below threshold: the structure no longer conducts
};

/**
 * Degraded-but-alive health report for one structure at a probe
 * access. Produced by sampling a fresh population from a faulty
 * factory and asking which devices would still close at that access.
 */
struct StructureHealth
{
    size_t width = 0;       ///< n devices in the structure
    size_t threshold = 0;   ///< devices required for the structure to work
    size_t alive = 0;       ///< devices still closing at the probe access
    size_t stuckClosed = 0; ///< fail-short devices (always counted alive)
    HealthStatus status = HealthStatus::Dead;
    /**
     * Whether the structure can never die: enough fail-short devices
     * to meet the threshold forever, so the secret behind it outlives
     * every wearout bound the paper's analyses assume.
     */
    bool attackBoundViolated = false;
};

/**
 * Sample the health of a k-out-of-n parallel structure at access
 * @p probeAccess (the structure works while >= k devices close).
 * 1-of-n parallel structures are the k = 1 case.
 */
StructureHealth probeParallelHealth(const fault::FaultyDeviceFactory &factory,
                                    size_t n, size_t k, uint64_t probeAccess,
                                    Rng &rng);

/**
 * Sample the health of an n-device series chain at @p probeAccess:
 * the chain conducts only while every device closes, so threshold = n.
 * A stuck-closed device cannot break a series chain (it conducts);
 * the chain is unkillable only when every device is stuck.
 */
StructureHealth probeSeriesHealth(const fault::FaultyDeviceFactory &factory,
                                  size_t n, uint64_t probeAccess, Rng &rng);

/** Survived-access sample under fault injection. */
struct FaultySurvival
{
    /** Accesses survived; meaningless when unbounded. */
    uint64_t accesses = 0;
    /**
     * True when >= k devices are stuck closed: the structure never
     * degrades below threshold and the access bound is gone.
     */
    bool unbounded = false;
    /** Fail-short devices in the sampled population. */
    size_t stuckDevices = 0;
};

/**
 * Fault-injected counterpart of sampleParallelSurvivedAccesses.
 * Transient glitches are ignored here: they fail individual reads but
 * do not move the wearout order statistics. For a nominal lot under a
 * plan without drift, a bank kernel draws the devices' uniforms in
 * bulk and transforms only candidate order statistics; it consumes the
 * same draws as n sampleFaultyLifetime calls and returns a
 * bit-identical result.
 */
FaultySurvival
sampleFaultyParallelSurvivedAccesses(const fault::FaultyDeviceFactory &factory,
                                     size_t n, size_t k, Rng &rng);

/** Whole-architecture outcome under fault injection. */
struct FaultyArchitectureOutcome
{
    /** Accesses served before exhaustion (sum over consumed copies). */
    uint64_t totalAccesses = 0;
    /** True when some copy never dies (secret retrievable forever). */
    bool unbounded = false;
    /** Copies with >= k stuck-closed devices. */
    size_t stuckDominatedCopies = 0;
};

/**
 * Fault-injected counterpart of sampleSerialCopiesTotalAccesses:
 * copies are consumed serially until one of them turns out to be
 * unkillable (at which point the architecture serves unbounded
 * accesses) or all copies die.
 */
FaultyArchitectureOutcome
sampleFaultySerialCopiesOutcome(const fault::FaultyDeviceFactory &factory,
                                size_t n, size_t k, uint64_t copies,
                                Rng &rng);

} // namespace lemons::arch

#endif // LEMONS_ARCH_STRUCTURES_SIM_H_
