#include "engine/batch.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "obs/metrics.h"
#include "util/require.h"
#include "util/simd.h"

#if defined(__x86_64__) && !defined(LEMONS_NO_SIMD)
#define LEMONS_BATCH_AVX2 1
#include <immintrin.h>
#endif

namespace lemons::engine {

namespace {

/**
 * Per-thread uniform scratch for banks wider than the stack buffer:
 * structure widths recur (every trial of a run uses the same n), so
 * one thread-local buffer removes the per-structure allocation the
 * legacy path paid.
 */
thread_local std::vector<double> uniformScratch;

/** Bank widths up to this stay in a stack buffer (4 KiB): no TLS-init
 *  guard, no resize bookkeeping on the per-trial hot path. */
constexpr size_t kStackBankWidth = 512;

double *
scratchFor(size_t n, double *stackBuf)
{
    if (n <= kStackBankWidth)
        return stackBuf;
    std::vector<double> &u = uniformScratch;
    if (u.size() < n)
        u.resize(n);
    return u.data();
}

#if defined(LEMONS_BATCH_AVX2)

/**
 * Horizontal max over positive finite doubles. Comparisons are exact,
 * the data has no NaNs and no signed zeros, so the reduction returns
 * the identical VALUE as the scalar loop regardless of the association
 * order — which is all the bit-identity contract needs (the selected
 * uniform, not any intermediate, feeds the transform).
 */
__attribute__((target("avx2"))) double
maxOfAvx2(const double *values, size_t count)
{
    __m256d best = _mm256_loadu_pd(values);
    size_t i = 4;
    for (; i + 4 <= count; i += 4)
        best = _mm256_max_pd(best, _mm256_loadu_pd(values + i));
    const __m128d folded = _mm_max_pd(_mm256_castpd256_pd128(best),
                                      _mm256_extractf128_pd(best, 1));
    double lanes[2];
    _mm_storeu_pd(lanes, folded);
    double result = lanes[0] > lanes[1] ? lanes[0] : lanes[1];
    for (; i < count; ++i)
        result = values[i] > result ? values[i] : result;
    return result;
}

#endif // LEMONS_BATCH_AVX2

double
maxOf(const double *values, size_t count)
{
#if defined(LEMONS_BATCH_AVX2)
    if (count >= 4 && simd::activeLevel() == simd::Level::Avx2)
        return maxOfAvx2(values, count);
#endif
    double result = values[0];
    for (size_t i = 1; i < count; ++i)
        result = values[i] > result ? values[i] : result;
    return result;
}

/**
 * Banks narrower than this select with plain nth_element: below it the
 * partition pass costs about as much as the selection it saves.
 */
constexpr size_t kPivotMinBank = 64;

/**
 * Move every value <= @p pivot in front of every value above it and
 * return how many there are. The swap runs unconditionally and the
 * count advances by the comparison, so the loop has no data-dependent
 * branch; the values stay a permutation of the input.
 */
size_t
partitionAtOrBelow(double *u, size_t n, double pivot)
{
    size_t low = 0;
    for (size_t i = 0; i < n; ++i) {
        const double value = u[i];
        u[i] = u[low];
        u[low] = value;
        low += value <= pivot;
    }
    return low;
}

} // namespace

double
selectKthSmallestUniform(double *u, size_t n, size_t k)
{
    if (k == n)
        return maxOf(u, n);
    // Count rank k from the nearer end of the bank; for k > n/2 the
    // pivot mirrors to the top. About `expected` of n iid uniforms lie
    // within `expected / n` of that end, and fewer than `rank` do with
    // probability about 1e-4 at rank 2 and 1e-5 at rank 100. So rank k
    // nearly always lies in that narrow side, which at rank 100 holds
    // about 1.4 x 100 values.
    const bool fromTop = k > n / 2;
    const double rank = static_cast<double>(fromTop ? n - k + 1 : k);
    const double expected = rank + 4.0 * std::sqrt(rank) + 4.0;
    if (n < kPivotMinBank || 2.0 * expected > static_cast<double>(n)) {
        std::nth_element(u, u + (k - 1), u + n);
        return u[k - 1];
    }
    const double share = expected / static_cast<double>(n);
    const size_t low = partitionAtOrBelow(u, n, fromTop ? 1.0 - share : share);
    // Every value in u[0..low) is <= every value in u[low..n), so
    // selecting rank k inside the side that holds it meets the same
    // post-condition as nth_element over the whole bank: the k-th
    // smallest at u[k - 1], nothing larger before it, nothing smaller
    // after it. The pivot only decides how much work that takes.
    if (k <= low)
        std::nth_element(u, u + (k - 1), u + low);
    else
        std::nth_element(u + low, u + (k - 1), u + n);
    return u[k - 1];
}

uint64_t
floorToAccesses(double lifetime)
{
    // A device with lifetime L serves floor(L) whole accesses (the
    // t-th access succeeds iff t <= L). NaN has no whole part, and
    // casting it to an integer is undefined.
    requireArg(!std::isnan(lifetime), "floorToAccesses: lifetime is NaN");
    if (lifetime <= 0.0)
        return 0;
    const double f = std::floor(lifetime);
    if (f >= static_cast<double>(std::numeric_limits<int64_t>::max()))
        return std::numeric_limits<uint64_t>::max() / 2;
    return static_cast<uint64_t>(f);
}

uint64_t
sampleParallelBankSurvival(const wearout::Weibull &model, size_t n, size_t k,
                           Rng &rng)
{
    requireArg(n >= 1, "sampleParallelBankSurvival: n must be >= 1");
    requireArg(k >= 1 && k <= n,
               "sampleParallelBankSurvival: need 1 <= k <= n");
    // Bulk-bump the same counter n individual Weibull::sample calls
    // would have incremented, keeping the atomic off the inner loop.
    LEMONS_OBS_COUNT("wearout.weibull.samples", n);
    // T(u) = alpha * (-ln u)^(1/beta) is monotone non-increasing, so
    // the k-th LARGEST lifetime is T of the k-th SMALLEST uniform:
    // select first, transform once. The dominant k == 1 configuration
    // reduces fused with generation (no uniform array at all).
    if (k == 1)
        return floorToAccesses(
            model.sampleFromUniform(rng.minUniformOpenLow(n)));
    double stackBuf[kStackBankWidth];
    double *u = scratchFor(n, stackBuf);
    rng.fillUniformOpenLow(u, n);
    return floorToAccesses(
        model.sampleFromUniform(selectKthSmallestUniform(u, n, k)));
}

uint64_t
sampleSeriesBankSurvival(const wearout::Weibull &model, size_t n, Rng &rng)
{
    requireArg(n >= 1, "sampleSeriesBankSurvival: n must be >= 1");
    LEMONS_OBS_COUNT("wearout.weibull.samples", n);
    // min over lifetimes == T(max over uniforms), by the same
    // monotonicity argument as the parallel kernel; the max reduces
    // fused with generation.
    return floorToAccesses(
        model.sampleFromUniform(rng.maxUniformOpenLow(n)));
}

void
sampleParallelBankSurvivalMany(const wearout::Weibull &model, size_t n,
                               size_t k, Rng &rng, uint64_t *out,
                               size_t trials)
{
    requireArg(n >= 1, "sampleParallelBankSurvivalMany: n must be >= 1");
    requireArg(k >= 1 && k <= n,
               "sampleParallelBankSurvivalMany: need 1 <= k <= n");
    LEMONS_OBS_COUNT("wearout.weibull.samples", n * trials);
    double stackBuf[kStackBankWidth];
    double *u = scratchFor(n, stackBuf);
    // The same draws, selection and transform as `trials` sequential
    // sampleParallelBankSurvival calls, hence bit-identical results.
    for (size_t t = 0; t < trials; ++t) {
        double selected = 0.0;
        if (k == 1) {
            selected = rng.minUniformOpenLow(n);
        } else {
            rng.fillUniformOpenLow(u, n);
            selected = selectKthSmallestUniform(u, n, k);
        }
        out[t] = floorToAccesses(model.sampleFromUniform(selected));
    }
}

} // namespace lemons::engine
