/**
 * @file
 * Structure-of-arrays trial kernels for whole device banks.
 *
 * The generic simulation path draws n lifetimes through a per-device
 * virtual/std::function hop, materializes them in a freshly allocated
 * vector, and order-selects with one pow/log pair per device. These
 * kernels exploit the inverse-CDF structure of the iid-Weibull case:
 * the transform T(u) = alpha * (-ln u)^(1/beta) is monotone
 * non-increasing in u, so the k-th largest of n lifetimes is T applied
 * to the k-th smallest of the n uniforms. The kernel therefore
 * order-selects the raw uniforms first and pays for exactly ONE
 * pow/log transform per structure instead of n — bit-identical to the
 * legacy per-device path (monotone maps preserve order statistics, and
 * the selected uniform goes through the very same sampleFromUniform),
 * while consuming the identical RNG stream.
 *
 * The k-th smallest of n uniforms (1 < k < n) comes from
 * selectKthSmallestUniform: one branchless pass partitions the bank
 * around a pivot set by n and k alone, just past where the k-th
 * smallest of n iid uniforms almost always falls, and nth_element then
 * runs only on the side that holds rank k (about 1.4k values at
 * k = 100; the far side in the rare bank where the near one falls
 * short). The partition keeps every value, and the result is a member
 * of the input, so it is the same double nth_element over the whole
 * bank returns; the pivot decides only how much work that takes.
 *
 * On counter-based trial streams (Rng::trialStream) the uniforms are
 * bulk-generated through the dispatched Philox batch, and a k == 1 /
 * k == n selection over an array already in memory reduces with AVX2
 * min/max (the fault kernel's 34,311-wide plain banks with infant
 * mortality select that way). Both are bit-identical to the scalar
 * path, so SIMD width never changes results (enforced by the
 * determinism suites). The Weibull transform itself is scalar: each
 * bank pays for one.
 */

#ifndef LEMONS_ENGINE_BATCH_H_
#define LEMONS_ENGINE_BATCH_H_

#include <cstddef>
#include <cstdint>

#include "util/rng.h"
#include "wearout/weibull.h"

namespace lemons::engine {

/**
 * Whole accesses a lifetime supports: floor(L), with huge lifetimes
 * clamped representably. Identical semantics to the arch simulation
 * layer (which now delegates here). Throws std::invalid_argument on
 * NaN.
 */
uint64_t floorToAccesses(double lifetime);

/**
 * k-th smallest of @p u[0..n), 1 <= k <= n, over values without NaNs.
 * k == 1 and k == n reduce with SIMD min/max, other k run
 * nth_element; the result is a member of the input either way, so it
 * does not depend on the strategy. May reorder @p u.
 */
double selectKthSmallest(double *u, size_t n, size_t k);

/**
 * k-th smallest of @p u[0..n), 1 <= k <= n, for values drawn as iid
 * uniforms on (0, 1]. For k < n it leaves @p u as
 * std::nth_element(u, u + k - 1, u + n) would: the k-th smallest at
 * u[k - 1] and the k smallest in u[0..k). It partitions around a
 * pivot predicted from n and k and selects on the side that holds
 * rank k; any input without NaNs gives the exact result, and only the
 * speed depends on the values being uniform. k == n reduces with
 * max and leaves @p u as it is.
 */
double selectKthSmallestUniform(double *u, size_t n, size_t k);

/**
 * Survived accesses of one k-out-of-n parallel bank of iid
 * Weibull(@p model) devices: floor of the k-th largest lifetime.
 * Consumes exactly n uniforms from @p rng, in the same order as n
 * individual Weibull::sample calls, and returns a bit-identical
 * result — but with one transform instead of n.
 */
uint64_t sampleParallelBankSurvival(const wearout::Weibull &model, size_t n,
                                    size_t k, Rng &rng);

/**
 * Survived accesses of one n-device series bank: floor of the minimum
 * lifetime, i.e. the transform of the maximum uniform. Same stream
 * consumption and bit-identity guarantee as the parallel kernel.
 */
uint64_t sampleSeriesBankSurvival(const wearout::Weibull &model, size_t n,
                                  Rng &rng);

/**
 * Batched form: fill @p out[0..trials) with independent parallel-bank
 * survivals, drawing all randomness from @p rng in trial order. The
 * per-trial draws and results match `trials` sequential
 * sampleParallelBankSurvival calls exactly. The end-to-end benchmark's
 * engine.kernel_ns_per_device metric times this loop.
 */
void sampleParallelBankSurvivalMany(const wearout::Weibull &model, size_t n,
                                    size_t k, Rng &rng, uint64_t *out,
                                    size_t trials);

} // namespace lemons::engine

#endif // LEMONS_ENGINE_BATCH_H_
