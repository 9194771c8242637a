/**
 * @file
 * Fault-injected device fabrication and the FaultyNemsSwitch wrapper.
 *
 * FaultyDeviceFactory mirrors wearout::DeviceFactory's interface
 * (sampleLifetime / fabricate / fabricateMany) but applies a FaultPlan
 * on top of the base factory's lot-level process variation.
 * FaultyNemsSwitch conforms to the wearout::NemsSwitch actuation
 * interface (actuate / failed / cyclesUsed / lifetime / aliveAt) and
 * adds stuck-closed and transient-glitch semantics, so every
 * architecture layer that consumes a switch can run under a fault plan
 * unchanged.
 */

#ifndef LEMONS_FAULT_FAULTY_DEVICE_H_
#define LEMONS_FAULT_FAULTY_DEVICE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "fault/fault_plan.h"
#include "util/rng.h"
#include "wearout/device.h"
#include "wearout/mixture.h"
#include "wearout/population.h"

namespace lemons::fault {

/**
 * A NEMS switch with non-ideal failure semantics.
 *
 * - Stuck-closed devices conduct on every actuation and never report
 *   failed(): the fail-short mode that silently breaks the attack
 *   bound.
 * - Transient glitches fail one actuation without consuming lifetime;
 *   the switch recovers on the next cycle.
 * - Healthy and infant-mortality devices behave exactly like
 *   wearout::NemsSwitch over their drawn lifetime.
 */
class FaultyNemsSwitch
{
  public:
    /** A healthy switch: indistinguishable from NemsSwitch. */
    explicit FaultyNemsSwitch(double lifetime);

    /**
     * @param fate Sampled lifetime + fault mode.
     * @param glitchRate Per-actuation transient misfire probability.
     * @param glitchSeed Seed of the private glitch stream (only used
     *        when glitchRate > 0).
     */
    FaultyNemsSwitch(const FaultyLifetime &fate, double glitchRate,
                     uint64_t glitchSeed);

    /**
     * Actuate once. Glitches fail the read without wearing the device;
     * stuck-closed devices always succeed; everything else follows the
     * NemsSwitch wearout contract.
     */
    bool actuate();

    /**
     * Whether the switch has permanently failed. Stuck-closed devices
     * never do (infinite lifetime).
     */
    bool failed() const { return inner.failed(); }

    /** Actuations attempted so far, including glitched ones. */
    uint64_t cyclesUsed() const { return inner.cyclesUsed() + glitches; }

    /** The drawn time-to-failure (+inf for stuck-closed devices). */
    double lifetime() const { return inner.lifetime(); }

    /** Whether the switch would close at the @p cycle -th wear cycle. */
    bool aliveAt(uint64_t cycle) const { return inner.aliveAt(cycle); }

    /** The fabrication fault this device carries. */
    DeviceFaultMode mode() const { return faultMode; }

    /** Whether the device is fail-short. */
    bool stuckClosed() const
    {
        return faultMode == DeviceFaultMode::StuckClosed;
    }

    /** Transient misfires so far. */
    uint64_t glitchCount() const { return glitches; }

    /**
     * Whether the next actuation would succeed barring a glitch: the
     * non-consuming health probe behind degraded-but-alive reporting.
     */
    bool alive() const;

  private:
    wearout::NemsSwitch inner;
    DeviceFaultMode faultMode = DeviceFaultMode::None;
    double glitchRate = 0.0;
    Rng glitchStream;
    uint64_t glitches = 0;
};

/**
 * Fault-injecting counterpart of wearout::DeviceFactory: wraps a base
 * factory and applies a FaultPlan per fabricated device.
 *
 * RNG contract: under a null plan every method takes the exact base-
 * factory code path, so results are bit-identical to the unfaulted
 * simulator for the same seed. Under a non-null plan, the per-device
 * draw sequence is fixed (lot spec, drift, stuck decision, infant
 * decision, one lifetime uniform) and the lifetime uniform is shared
 * across the candidate distributions, so plans that differ only in
 * their rates are coupled by common random numbers — which makes
 * monotonicity properties (e.g. attacker success non-decreasing in
 * the stuck-closed rate) hold per-trial, not just in expectation.
 * arch::sampleFaultyParallelSurvivedAccesses replays this sequence
 * from bulk uniforms for nominal lots without drift, so a new draw
 * here must be mirrored there.
 */
class FaultyDeviceFactory
{
  public:
    /**
     * @param base Fabrication model (spec + lot variation).
     * @param plan Fault rates to inject (validated).
     */
    FaultyDeviceFactory(const wearout::DeviceFactory &base,
                        const FaultPlan &plan);

    /** The wrapped ideal-device factory. */
    const wearout::DeviceFactory &base() const { return baseFactory; }

    /** The injected fault plan. */
    const FaultPlan &plan() const { return faultPlan; }

    /** Draw one device fate (lifetime + fault mode). */
    FaultyLifetime sampleFaultyLifetime(Rng &rng) const;

    /**
     * Lifetime-only view for order-statistic sampling: stuck-closed
     * devices report +inf. Bit-identical to base().sampleLifetime()
     * under a null plan.
     */
    double sampleLifetime(Rng &rng) const;

    /**
     * Bathtub-mixture view of the mortal (non-stuck) population: the
     * fault plan's infant leg mixed with the nominal wearout model via
     * the existing wearout::BathtubModel. This is the classic analytic
     * approximation; it ignores that the competing-risks sampler caps
     * each infant lifetime at the wearout draw, so it upper-bounds the
     * exact reliability in the deep tail.
     */
    wearout::BathtubModel populationModel() const;

    /**
     * Exact analytic lifetime reliability P(T > x) of a fabricated
     * device, assuming no lot variation or parameter drift. Infant
     * devices fail at the earlier of the comonotone early/wearout
     * draws — reliability min(R_early, R_main) — and stuck-closed
     * devices never fail:
     *   R(x) = eps + (1 - eps) * (w * min(Re, Rm) + (1 - w) * Rm).
     */
    double populationReliability(double x) const;

    /** Fabricate one switch (wires up the glitch stream if enabled). */
    FaultyNemsSwitch fabricate(Rng &rng) const;

    /** Fabricate @p count switches. */
    std::vector<FaultyNemsSwitch> fabricateMany(Rng &rng,
                                                size_t count) const;

  private:
    wearout::DeviceFactory baseFactory;
    FaultPlan faultPlan;
};

} // namespace lemons::fault

#endif // LEMONS_FAULT_FAULTY_DEVICE_H_
