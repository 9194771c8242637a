#include "util/stats.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/require.h"

namespace lemons {

void
RunningStats::add(double x)
{
    if (!std::isfinite(x)) {
        ++nonFinite;
        return;
    }
    if (n == 0) {
        minValue = x;
        maxValue = x;
    } else {
        minValue = std::min(minValue, x);
        maxValue = std::max(maxValue, x);
    }
    ++n;
    const double delta = x - runningMean;
    runningMean += delta / static_cast<double>(n);
    m2 += delta * (x - runningMean);
}

void
RunningStats::merge(const RunningStats &other)
{
    if (other.n == 0) {
        nonFinite += other.nonFinite;
        return;
    }
    if (n == 0) {
        const uint64_t quarantined = nonFinite;
        *this = other;
        nonFinite += quarantined;
        return;
    }
    nonFinite += other.nonFinite;
    const double nA = static_cast<double>(n);
    const double nB = static_cast<double>(other.n);
    const double delta = other.runningMean - runningMean;
    const double total = nA + nB;
    runningMean += delta * (nB / total);
    m2 += other.m2 + delta * delta * (nA * nB / total);
    minValue = std::min(minValue, other.minValue);
    maxValue = std::max(maxValue, other.maxValue);
    n += other.n;
}

RunningStats::State
RunningStats::state() const
{
    State state;
    state.count = n;
    state.nonFiniteCount = nonFinite;
    state.mean = runningMean;
    state.m2 = m2;
    state.min = minValue;
    state.max = maxValue;
    return state;
}

RunningStats
RunningStats::fromState(const State &state)
{
    RunningStats stats;
    stats.n = state.count;
    stats.nonFinite = state.nonFiniteCount;
    stats.runningMean = state.mean;
    stats.m2 = state.m2;
    stats.minValue = state.min;
    stats.maxValue = state.max;
    return stats;
}

double
RunningStats::variance() const
{
    if (n < 2)
        return 0.0;
    return m2 / static_cast<double>(n - 1);
}

double
RunningStats::stddev() const
{
    return std::sqrt(variance());
}

double
quantile(std::vector<double> samples, double q)
{
    requireArg(!samples.empty(), "quantile: empty sample set");
    requireArg(q >= 0.0 && q <= 1.0, "quantile: q outside [0, 1]");
    std::sort(samples.begin(), samples.end());
    const double pos = q * static_cast<double>(samples.size() - 1);
    const auto lo = static_cast<size_t>(pos);
    const size_t hi = std::min(lo + 1, samples.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return samples[lo] * (1.0 - frac) + samples[hi] * frac;
}

ProportionInterval
wilsonInterval(uint64_t successes, uint64_t trials, double z)
{
    requireArg(trials > 0, "wilsonInterval: trials must be positive");
    requireArg(successes <= trials,
               "wilsonInterval: successes exceed trials");
    const double n = static_cast<double>(trials);
    const double pHat = static_cast<double>(successes) / n;
    const double z2 = z * z;
    const double denom = 1.0 + z2 / n;
    const double center = (pHat + z2 / (2.0 * n)) / denom;
    const double half =
        z * std::sqrt(pHat * (1.0 - pHat) / n + z2 / (4.0 * n * n)) / denom;
    return {pHat, std::max(0.0, center - half), std::min(1.0, center + half)};
}

} // namespace lemons
