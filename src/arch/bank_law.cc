#include "arch/bank_law.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "util/math.h"
#include "util/require.h"

namespace lemons::arch {

namespace {

/** Spacing of the uniforms nextDoubleOpenLow() returns. */
constexpr double kGridStep = 0x1.0p-53;

/** Supports that reach past this many accesses are not tabulated. */
constexpr uint64_t kMaxAccess = uint64_t{1} << 62;

/** S and 1 - S at one j, each to full relative precision. */
struct BankTail
{
    double survival;
    double complement;
};

/**
 * P(Binomial(n, p) >= k) and its complement, where one device closes
 * with p = eps + (1 - eps) R and fails with 1 - p = (1 - eps)(1 - R).
 * The smaller tail is evaluated and the other follows from it: beyond
 * the mean the upper tail is the small one, below it the complement
 * P(Binomial(n, 1 - p) >= n - k + 1).
 */
BankTail
bankTail(DeviceSurvival device, size_t n, size_t k, double stuckRate)
{
    const double p =
        std::min(1.0, stuckRate + (1.0 - stuckRate) * device.reliability);
    const double q = std::min(1.0, (1.0 - stuckRate) * device.failure);
    if (static_cast<double>(k) > static_cast<double>(n) * p) {
        const double survival = std::exp(logBinomialTailAtLeast(n, k, p));
        return {survival, 1.0 - survival};
    }
    const double logComplement = logBinomialTailAtLeast(n, n - k + 1, q);
    return {-std::expm1(logComplement), std::exp(logComplement)};
}

} // namespace

BankLaw::BankLaw(uint64_t firstJ, std::vector<double> values,
                 double unbounded)
    : first(firstJ), table(std::move(values)), atInfinity(unbounded)
{
}

std::optional<BankLaw>
BankLaw::tabulate(const SurvivalFunction &device, size_t n, size_t k,
                  double stuckRate)
{
    requireArg(n >= 1, "BankLaw::tabulate: n must be >= 1");
    requireArg(k >= 1 && k <= n, "BankLaw::tabulate: need 1 <= k <= n");
    requireArg(stuckRate >= 0.0 && stuckRate <= 1.0,
               "BankLaw::tabulate: stuck rate outside [0, 1]");
    const auto tailAt = [&](uint64_t j) {
        return bankTail(device(static_cast<double>(j)), n, k, stuckRate);
    };
    // A device that has failed for sure leaves only the stuck ones.
    const BankTail stuck = bankTail({0.0, 1.0}, n, k, stuckRate);
    if (stuck.complement <= kGridStep)
        return BankLaw(1, {}, 1.0); // never dies, to the grid's precision
    const double atInfinity = stuck.survival;

    // first: the smallest j >= 1 whose S(j) is a grid step or more
    // below 1. `certain` holds at j = 0 (S = 1) and fails from first on.
    const auto certain = [&](uint64_t j) {
        return tailAt(j).complement <= kGridStep;
    };
    uint64_t lo = 0;
    uint64_t hi = 1;
    while (certain(hi)) {
        if (hi >= kMaxAccess)
            return std::nullopt;
        lo = hi;
        hi *= 2;
    }
    while (hi - lo > 1) {
        const uint64_t mid = lo + (hi - lo) / 2;
        if (certain(mid))
            lo = mid;
        else
            hi = mid;
    }
    const uint64_t first = hi;

    // last: the largest j whose S(j) stays a grid step or more above
    // P(X = inf). Step out from first by doubling widths, giving up as
    // soon as the support passes the cap, then bisect.
    const auto open = [&](uint64_t j) {
        return tailAt(j).survival - atInfinity > kGridStep;
    };
    uint64_t last = first - 1;
    if (open(first)) {
        uint64_t width = 1;
        while (open(first + width)) {
            if (width >= kMaxEntries)
                return std::nullopt;
            width *= 2;
        }
        lo = first + width / 2;
        hi = first + width;
        while (hi - lo > 1) {
            const uint64_t mid = lo + (hi - lo) / 2;
            if (open(mid))
                lo = mid;
            else
                hi = mid;
        }
        last = lo;
    }

    std::vector<double> table;
    table.reserve(last + 1 - first);
    double previous = 1.0;
    for (uint64_t j = first; j <= last; ++j) {
        // Rounding may nudge a value up; the search needs it monotone.
        previous = std::min(previous, tailAt(j).survival);
        table.push_back(previous);
    }
    return BankLaw(first, std::move(table), atInfinity);
}

uint64_t
BankLaw::accessesFor(double u) const
{
    if (u <= atInfinity)
        return kUnbounded;
    // X >= j exactly when u <= S(j), and S is 1 below the table.
    const auto past = std::partition_point(
        table.begin(), table.end(), [u](double s) { return s >= u; });
    return first - 1 + static_cast<uint64_t>(past - table.begin());
}

double
BankLaw::survival(uint64_t j) const
{
    if (j < first)
        return 1.0;
    if (j - first < table.size())
        return table[j - first];
    return atInfinity;
}

} // namespace lemons::arch
