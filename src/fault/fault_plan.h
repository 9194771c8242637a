/**
 * @file
 * Fault-injection plans for non-ideal NEMS populations.
 *
 * The paper's security bounds (Sections 4-6) assume ideal fail-open
 * Weibull wearout: every device eventually opens, and opens forever.
 * Real nano-scale contacts misbehave in ways that threaten exactly
 * those bounds:
 *
 *  - infant mortality: a fraction of devices dies far earlier than the
 *    designed wearout distribution (bathtub early-life leg), eroding
 *    the legitimate access bound (LAB),
 *  - stuck-closed (fail-short) contacts: adhesion welds the contact
 *    shut, so the device conducts forever and never wears out —
 *    silently breaking the attack bound, because the share behind it
 *    stays readable,
 *  - transient actuation glitches: a misfire fails one read without
 *    consuming lifetime — availability noise, not wearout,
 *  - Weibull parameter drift: calibration uncertainty in (alpha,
 *    beta), modelled as a per-device lognormal perturbation on top of
 *    lot-level ProcessVariation.
 *
 * A FaultPlan bundles the rates of all four modes. FaultPlan::none()
 * is the ideal-device plan: every fault-aware per-device path is
 * required to be bit-identical to the unfaulted simulator under it
 * (same seed, same RNG draw sequence), so fault injection can be
 * threaded through every analysis without perturbing the paper's
 * reproduced figures. The exact bank law (arch::bankLawOf) draws one
 * uniform per bank instead, so under the null plan it gives the
 * unfaulted law, not the unfaulted stream.
 */

#ifndef LEMONS_FAULT_FAULT_PLAN_H_
#define LEMONS_FAULT_FAULT_PLAN_H_

namespace lemons::fault {

/** Which fabrication-time fault befell one device. */
enum class DeviceFaultMode {
    None,            ///< ideal fail-open Weibull wearout
    InfantMortality, ///< early-failure mechanism competes with wearout
    StuckClosed,     ///< fail-short: conducts forever, never wears out
};

/**
 * Per-device fault rates for one fabricated population. All rates are
 * probabilities in [0, 1]; the default-constructed plan is all-zero
 * (ideal devices).
 */
struct FaultPlan
{
    /** epsilon: P(device is stuck-closed / fail-short). */
    double stuckClosedRate = 0.0;

    /** P(device belongs to the infant-mortality sub-population). */
    double infantFraction = 0.0;
    /** Infant Weibull scale as a fraction of the device's alpha. */
    double infantScaleFraction = 0.1;
    /** Infant Weibull shape (< 1: decreasing hazard). */
    double infantShape = 0.8;

    /**
     * Per-actuation probability of a transient misfire: the read
     * fails but no lifetime is consumed. Only affects runtime switch
     * objects (FaultyNemsSwitch); lifetime order statistics ignore it.
     */
    double glitchRate = 0.0;

    /** Lognormal sigma of per-device alpha drift (model uncertainty). */
    double alphaDriftSigma = 0.0;
    /** Lognormal sigma of per-device beta drift. */
    double betaDriftSigma = 0.0;

    /** The ideal-device plan (all rates zero). */
    static FaultPlan none() { return {}; }

    /** Convenience: only stuck-closed faults at rate @p epsilon. */
    static FaultPlan stuckClosed(double epsilon);

    /** Convenience: only infant mortality at fraction @p w. */
    static FaultPlan infantMortality(double w);

    /**
     * Whether the plan injects nothing. Null plans take the exact
     * unfaulted code path (bit-identical RNG draw sequence).
     */
    bool isNull() const;

    /** Throw std::invalid_argument on out-of-range rates. */
    void validate() const;
};

/**
 * One sampled device fate: the drawn time-to-failure plus the fault
 * mode it was drawn under. Stuck-closed devices report an infinite
 * lifetime — they conduct forever.
 */
struct FaultyLifetime
{
    double lifetime = 0.0;
    DeviceFaultMode mode = DeviceFaultMode::None;

    /** Whether this device can never wear out. */
    bool stuckClosed() const { return mode == DeviceFaultMode::StuckClosed; }
};

} // namespace lemons::fault

#endif // LEMONS_FAULT_FAULT_PLAN_H_
