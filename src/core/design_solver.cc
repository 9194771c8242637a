#include "core/design_solver.h"

#include <algorithm>
#include <cmath>

#include "arch/structures.h"
#include "lint/rules.h"
#include "obs/metrics.h"
#include "util/math.h"
#include "wearout/weibull.h"

namespace lemons::core {

namespace {

/** Widest structure the closed-form (k = 1) path will report. */
constexpr uint64_t unencodedWidthCap = 1'000'000'000'000'000ULL;

wearout::Weibull
weibullOf(const wearout::DeviceSpec &device)
{
    return {device.alpha, device.beta};
}

/** One k-out-of-n copy of the request's device (Eq. 6 / Eq. 8). */
arch::ParallelStructure
copyStructure(const wearout::DeviceSpec &device, uint64_t n, uint64_t k)
{
    return {weibullOf(device), n, k};
}

} // namespace

DesignSolver::DesignSolver(const DesignRequest &request) : spec(request)
{
    // Design-rule check (L0xx): bounds on device parameters, LAB,
    // encoding fraction, and degradation criteria. Throws LintError
    // (a std::invalid_argument) naming the violated rule.
    lint::checkDesignOrThrow(spec);
}

uint64_t
DesignSolver::thresholdFor(uint64_t n) const
{
    if (spec.kFraction == 0.0)
        return 1;
    const auto k = static_cast<uint64_t>(
        std::llround(spec.kFraction * static_cast<double>(n)));
    return std::clamp<uint64_t>(k, 1, n);
}

double
DesignSolver::copyReliability(uint64_t n, uint64_t k, double x) const
{
    return copyStructure(spec.device, n, k).reliabilityAt(x);
}

double
DesignSolver::expectedOvershoot(uint64_t n, uint64_t k, uint64_t t) const
{
    // A width-n structure dies once the per-device reliability falls to
    // ~k/n (encoded) or ~1/n (plain parallel); bound the scan there
    // with generous margin.
    const auto cap = static_cast<uint64_t>(overshootReach(
                         spec.device, static_cast<double>(n))) +
                     t + 64;

    const arch::ParallelStructure copy = copyStructure(spec.device, n, k);
    double overshoot = 0.0;
    for (uint64_t j = t + 1; j <= cap; ++j) {
        const double r = copy.reliabilityAt(static_cast<double>(j));
        overshoot += r;
        if (r < 1e-12)
            break;
    }
    return overshoot;
}

bool
DesignSolver::meetsMinReliability(uint64_t n, uint64_t t) const
{
    const uint64_t k = thresholdFor(n);
    // Through the failure side so "reliability >= 0.9999999" targets
    // stay representable: P(dead at t) <= 1 - minReliability.
    const double logFailAtBound =
        copyStructure(spec.device, n, k).logFailureAt(static_cast<double>(t));
    return logFailAtBound <= std::log1p(-spec.criteria.minReliability);
}

bool
DesignSolver::feasibleWidth(uint64_t n, uint64_t t, uint64_t tDead) const
{
    if (!meetsMinReliability(n, t))
        return false;
    const uint64_t k = thresholdFor(n);
    const double logAliveAtDeath =
        copyStructure(spec.device, n, k)
            .logReliabilityAt(static_cast<double>(tDead));
    return logAliveAtDeath <= std::log(spec.criteria.maxResidualReliability);
}

std::optional<uint64_t>
DesignSolver::minimalWidthUnencoded(uint64_t t, uint64_t tDead) const
{
    const wearout::Weibull device = weibullOf(spec.device);
    const double logRt = device.logReliability(static_cast<double>(t));
    const double logRd = device.logReliability(static_cast<double>(tDead));
    if (logRt == 0.0)
        return std::nullopt; // r_t == 1 exactly: degenerate
    const double logDeadT = log1mExp(logRt);  // ln(1 - r_t)
    const double logDeadD = log1mExp(logRd);  // ln(1 - r_d)

    // R(t) = 1 - (1 - r_t)^n >= minRel  <=>  n ln(1-r_t) <= ln(1-minRel)
    const double nMinReal =
        std::log1p(-spec.criteria.minReliability) / logDeadT;
    // R(tDead) <= p  <=>  (1 - r_d)^n >= 1 - p
    //            <=>  n ln(1-r_d) >= ln(1-p)
    if (logDeadD == 0.0)
        return std::nullopt; // r_d == 0 is impossible for finite tDead
    const double nMaxReal =
        std::log1p(-spec.criteria.maxResidualReliability) / logDeadD;

    const double nMin = std::max(1.0, std::ceil(nMinReal));
    const double nMax = std::floor(nMaxReal);
    if (nMin > nMax || nMin > static_cast<double>(unencodedWidthCap))
        return std::nullopt;
    return static_cast<uint64_t>(nMin);
}

std::optional<uint64_t>
DesignSolver::minimalWidth(uint64_t t, uint64_t tDead,
                           std::optional<double> overshootSlack) const
{
    if (spec.kFraction == 0.0) {
        if (!overshootSlack)
            return minimalWidthUnencoded(t, tDead);
        // With an upper-bound target, pick the smallest width meeting
        // the minimum-reliability criterion, then verify the overshoot
        // (which only grows with width in plain parallel structures).
        const double logRt =
            weibullOf(spec.device).logReliability(static_cast<double>(t));
        if (logRt == 0.0)
            return std::nullopt;
        const double nMinReal = std::log1p(-spec.criteria.minReliability) /
                                log1mExp(logRt);
        const double nMin = std::max(1.0, std::ceil(nMinReal));
        if (nMin > static_cast<double>(unencodedWidthCap))
            return std::nullopt;
        const auto n = static_cast<uint64_t>(nMin);
        if (expectedOvershoot(n, 1, t) > *overshootSlack)
            return std::nullopt;
        return n;
    }

    // Encoded case: both criteria improve with width once the
    // per-device survival straddles the encoding fraction, so the
    // feasible widths form (approximately) an up-set.
    const wearout::Weibull device = weibullOf(spec.device);
    const double rT = device.reliability(static_cast<double>(t));
    if (rT <= spec.kFraction)
        return std::nullopt;
    if (!overshootSlack) {
        const double rD = device.reliability(static_cast<double>(tDead));
        if (rD >= spec.kFraction)
            return std::nullopt;
    }

    auto feasible = [&](uint64_t n) {
        if (overshootSlack) {
            return meetsMinReliability(n, t) &&
                   expectedOvershoot(n, thresholdFor(n), t) <=
                       *overshootSlack;
        }
        return feasibleWidth(n, t, tDead);
    };

    uint64_t hi = std::max<uint64_t>(
        2, static_cast<uint64_t>(std::ceil(2.0 / spec.kFraction)));
    uint64_t lo = 0;
    while (hi <= spec.maxWidth && !feasible(hi)) {
        lo = hi;
        hi *= 2;
    }
    if (hi > spec.maxWidth)
        return std::nullopt;

    while (hi - lo > 1) {
        const uint64_t mid = lo + (hi - lo) / 2;
        if (mid == 0 || !feasible(mid))
            lo = mid;
        else
            hi = mid;
    }
    return hi;
}

Design
DesignSolver::solve() const
{
    LEMONS_OBS_SCOPED_TIMER("core.solver.solve");
    LEMONS_OBS_INCREMENT("core.solver.solves");
    const uint64_t tMax =
        spec.maxPerCopyBound != 0
            ? spec.maxPerCopyBound
            : static_cast<uint64_t>(std::ceil(3.0 * spec.device.alpha)) + 16;

    Design best;
    for (uint64_t t = 1; t <= tMax; ++t) {
        if (t > spec.legitimateAccessBound)
            break; // copies would outlive the whole LAB
        const uint64_t copies = ceilDiv(spec.legitimateAccessBound, t);
        const uint64_t tDead = t + 1;

        std::optional<double> overshootSlack;
        if (spec.upperBoundTarget) {
            // Expected system total N*(t + overshoot) must stay at or
            // below the target.
            const double slack =
                (static_cast<double>(*spec.upperBoundTarget) -
                 static_cast<double>(copies) * static_cast<double>(t)) /
                static_cast<double>(copies);
            if (slack <= 0.0)
                continue;
            overshootSlack = slack;
        }

        const std::optional<uint64_t> width =
            minimalWidth(t, tDead, overshootSlack);
        if (!width)
            continue;
        const uint64_t total = *width * copies;
        // Primary objective: fewest devices. Tie-break: smallest
        // nominal capacity N*t, i.e. the least attacker headroom above
        // the LAB.
        const bool better =
            !best.feasible || total < best.totalDevices ||
            (total == best.totalDevices &&
             copies * t < best.copies * best.perCopyBound);
        if (better) {
            const uint64_t k = thresholdFor(*width);
            best.feasible = true;
            best.perCopyBound = t;
            best.width = *width;
            best.threshold = k;
            best.copies = copies;
            best.totalDevices = total;
            best.deathCheckAccess = tDead;
            best.reliabilityAtBound =
                copyReliability(*width, k, static_cast<double>(t));
            best.reliabilityPastBound =
                copyReliability(*width, k, static_cast<double>(tDead));
            best.expectedSystemTotal =
                static_cast<double>(copies) *
                (static_cast<double>(t) + expectedOvershoot(*width, k, t));
        }
    }
    if (!best.feasible)
        LEMONS_OBS_INCREMENT("core.solver.infeasible");
    return best;
}

} // namespace lemons::core
