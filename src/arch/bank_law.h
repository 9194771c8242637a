/**
 * @file
 * Exact law of a k-out-of-n parallel bank of iid devices, tabulated
 * once and sampled with one uniform per bank.
 *
 * A bank survives access j while at least k of its n devices still
 * close at j. Devices are iid, so the survived accesses X satisfy
 *
 *   S(j) = P(X >= j) = P(Binomial(n, eps + (1 - eps) R(j)) >= k),
 *
 * where R is one mortal device's reliability and eps the rate of
 * stuck-closed devices, which close forever. The mass at infinity,
 * P(Binomial(n, eps) >= k), is the chance that k devices are stuck and
 * the bank never dies. The per-device loops in structures_sim.h draw
 * the same law one device at a time and are its test oracle.
 */

#ifndef LEMONS_ARCH_BANK_LAW_H_
#define LEMONS_ARCH_BANK_LAW_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <vector>

namespace lemons::arch {

/**
 * One mortal device's chance to still close at access j, with its
 * complement carried separately so that both keep full relative
 * precision: the binomial tail near 1 is evaluated from the failure
 * side.
 */
struct DeviceSurvival
{
    double reliability = 1.0; ///< R(j) = P(T >= j)
    double failure = 0.0;     ///< 1 - R(j)
};

/** DeviceSurvival as a function of the access index j >= 1. */
using SurvivalFunction = std::function<DeviceSurvival(double)>;

/**
 * The tabulated law. Entries cover the j where S(j) lies strictly
 * between P(X = inf) + 2^-53 and 1 - 2^-53; the sampler's uniforms sit
 * on a 2^-53 grid, so the mass it misses outside that range is below
 * one grid step at each end. Every entry comes from the smaller
 * binomial tail, in log space, through scalar libm, so the table is the
 * same at every SIMD level.
 */
class BankLaw
{
  public:
    /**
     * Widest table tabulate() builds. A wider support (an alpha = 1e9
     * lot, say) returns nullopt, and the caller samples devices.
     */
    static constexpr uint64_t kMaxEntries = uint64_t{1} << 16;

    /** What accessesFor() returns for a bank that never dies. */
    static constexpr uint64_t kUnbounded =
        std::numeric_limits<uint64_t>::max();

    /**
     * Tabulate the law of a k-out-of-n bank. Finds both ends of the
     * support by bisection before allocating anything.
     *
     * @param device Mortal-device survival R(j) and its complement.
     * @param n Bank width. @param k Alive threshold (1 <= k <= n).
     * @param stuckRate Probability eps in [0, 1] that a device is stuck
     *        closed.
     * @return The law, or nullopt when its support holds more than
     *         kMaxEntries values or reaches past 2^62 accesses.
     */
    static std::optional<BankLaw> tabulate(const SurvivalFunction &device,
                                           size_t n, size_t k,
                                           double stuckRate = 0.0);

    /**
     * The largest j with @p u <= S(j), or kUnbounded when u <= P(X =
     * inf): the bank's survived accesses at uniform @p u in (0, 1].
     * A bank's sample is accessesFor(rng.nextDoubleOpenLow()). Counts
     * nothing, so batched callers count once per batch.
     */
    uint64_t accessesFor(double u) const;

    /** S(j) as the sampler uses it: 1 below the table, P(X = inf) past it. */
    double survival(uint64_t j) const;

    /** P(X = inf), the chance that the bank never dies. */
    double unboundedMass() const { return atInfinity; }

    /** Smallest j with a table entry; X >= firstEntry() - 1 always. */
    uint64_t firstEntry() const { return first; }

    /** Number of tabulated values of S. */
    size_t entries() const { return table.size(); }

  private:
    BankLaw(uint64_t firstJ, std::vector<double> values, double unbounded);

    uint64_t first;
    /** S(first + i), non-increasing. */
    std::vector<double> table;
    double atInfinity;
};

} // namespace lemons::arch

#endif // LEMONS_ARCH_BANK_LAW_H_
