/**
 * @file
 * Seeded goodness-of-fit tests for the stochastic substrates.
 *
 * Every test here drives a fixed-seed Rng, so the sampled statistics
 * are deterministic and the assertions are exact regressions, not
 * flaky hypothesis tests: the bounds are chosen with comfortable
 * margin over the observed seeded values, yet tight enough that a
 * broken sampler (wrong transform, wrong branch, biased rounding)
 * fails loudly.
 *
 *  - Kolmogorov-Smirnov distance of Weibull and bathtub-mixture
 *    sampling against their analytic CDFs;
 *  - chi-square of sim::poissonSample against the exact Poisson pmf,
 *    on both sides of the Knuth <-> PTRS crossover at mean = 10.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <map>
#include <vector>

#include "sim/workload.h"
#include "util/rng.h"
#include "wearout/mixture.h"
#include "wearout/weibull.h"

namespace lemons {
namespace {

/**
 * Two-sided Kolmogorov-Smirnov distance between the empirical CDF of
 * @p samples and the analytic @p cdf.
 */
double
ksDistance(std::vector<double> samples,
           const std::function<double(double)> &cdf)
{
    std::sort(samples.begin(), samples.end());
    const double n = static_cast<double>(samples.size());
    double d = 0.0;
    for (size_t i = 0; i < samples.size(); ++i) {
        const double f = cdf(samples[i]);
        d = std::max(d, f - static_cast<double>(i) / n);
        d = std::max(d, static_cast<double>(i + 1) / n - f);
    }
    return d;
}

/** KS critical value at the 99.9 % level: 1.95 / sqrt(n). */
double
ksCritical(size_t n)
{
    return 1.95 / std::sqrt(static_cast<double>(n));
}

double
poissonPmf(uint64_t k, double mean)
{
    return std::exp(static_cast<double>(k) * std::log(mean) - mean -
                    std::lgamma(static_cast<double>(k) + 1.0));
}

struct ChiSquare
{
    double stat;
    size_t degreesOfFreedom;
};

/**
 * Chi-square statistic of @p n seeded poissonSample draws against the
 * exact Poisson(@p mean) pmf, pooling adjacent outcomes into bins of
 * expected count >= 5 (the textbook validity threshold).
 */
ChiSquare
poissonChiSquare(double mean, uint64_t seed, size_t n)
{
    Rng rng(seed);
    std::map<uint64_t, uint64_t> observed;
    for (size_t i = 0; i < n; ++i)
        ++observed[sim::poissonSample(rng, mean)];

    const double nd = static_cast<double>(n);
    double stat = 0.0;
    size_t bins = 0;
    double expAcc = 0.0;
    double obsAcc = 0.0;
    const auto kMax =
        static_cast<uint64_t>(mean + 12.0 * std::sqrt(mean) + 20.0);
    double tailExp = nd;
    for (uint64_t k = 0; k <= kMax; ++k) {
        const double e = nd * poissonPmf(k, mean);
        tailExp -= e;
        expAcc += e;
        const auto it = observed.find(k);
        obsAcc +=
            it == observed.end() ? 0.0 : static_cast<double>(it->second);
        if (expAcc >= 5.0) {
            const double diff = obsAcc - expAcc;
            stat += diff * diff / expAcc;
            ++bins;
            expAcc = obsAcc = 0.0;
        }
    }
    expAcc += std::max(tailExp, 0.0);
    for (const auto &[k, count] : observed)
        if (k > kMax)
            obsAcc += static_cast<double>(count);
    if (expAcc > 0.0) {
        const double diff = obsAcc - expAcc;
        stat += diff * diff / expAcc;
        ++bins;
    }
    return {stat, bins - 1};
}

/**
 * Approximate chi-square 99.9 % critical value (normal approximation
 * df + z * sqrt(2 df) with z = 3.29; slightly conservative for the
 * df ~ 15..100 used here).
 */
double
chiSquareCritical(size_t df)
{
    const double d = static_cast<double>(df);
    return d + 3.29 * std::sqrt(2.0 * d);
}

TEST(Statistical, WeibullSamplingMatchesAnalyticCdf)
{
    const wearout::Weibull device(10.0, 12.0);
    Rng rng(12345);
    const auto samples = device.sampleMany(rng, 20000);
    const double d =
        ksDistance(samples, [&](double x) { return device.cdf(x); });
    EXPECT_LT(d, ksCritical(samples.size()));
}

TEST(Statistical, WeibullLowShapeSamplingMatchesAnalyticCdf)
{
    // shape < 1 (infant-mortality regime): exercises the heavy left
    // tail of the inverse-CDF transform.
    const wearout::Weibull device(14.0, 0.8);
    Rng rng(54321);
    const auto samples = device.sampleMany(rng, 20000);
    const double d =
        ksDistance(samples, [&](double x) { return device.cdf(x); });
    EXPECT_LT(d, ksCritical(samples.size()));
}

TEST(Statistical, BathtubMixtureSamplingMatchesMixtureCdf)
{
    const wearout::Weibull main(10.0, 12.0);
    const wearout::BathtubModel mix =
        wearout::BathtubModel::withInfantMortality(main, 0.2);
    Rng rng(777);
    std::vector<double> samples;
    samples.reserve(20000);
    for (int i = 0; i < 20000; ++i)
        samples.push_back(mix.sample(rng));
    const double d =
        ksDistance(samples, [&](double x) { return mix.cdf(x); });
    EXPECT_LT(d, ksCritical(samples.size()));
}

TEST(Statistical, PoissonKnuthBranchChiSquare)
{
    // Means below 10 use Knuth's product-of-uniforms algorithm; the
    // chi-square against the exact pmf must clear the standard 99.9 %
    // critical value.
    for (const double mean : {0.5, 5.0, 9.9}) {
        const ChiSquare c = poissonChiSquare(mean, 2024, 20000);
        EXPECT_LT(c.stat, chiSquareCritical(c.degreesOfFreedom))
            << "mean = " << mean;
    }
}

TEST(Statistical, PoissonPtrsBranchChiSquare)
{
    // Means of 10 and above use PTRS transformed rejection, which is
    // exact too: the same 99.9 % critical value applies, from the
    // crossover through the fleet's 50/day and 3x-burst 150/day rates.
    for (const double mean : {10.0, 40.0, 50.0, 64.0, 150.0, 500.0}) {
        const ChiSquare c = poissonChiSquare(mean, 2024, 20000);
        EXPECT_LT(c.stat, chiSquareCritical(c.degreesOfFreedom))
            << "mean = " << mean;
    }
}

TEST(Statistical, PoissonCrossoverMoments)
{
    // Straddle the crossover: both branches must deliver the Poisson
    // mean and variance to within sampling error (4 sigma).
    for (const double mean : {9.5, 10.5}) {
        Rng rng(31415);
        const size_t n = 50000;
        double sum = 0.0;
        double sumSq = 0.0;
        for (size_t i = 0; i < n; ++i) {
            const double x =
                static_cast<double>(sim::poissonSample(rng, mean));
            sum += x;
            sumSq += x * x;
        }
        const double nd = static_cast<double>(n);
        const double sampleMean = sum / nd;
        const double sampleVar =
            (sumSq - nd * sampleMean * sampleMean) / (nd - 1.0);
        // SE(mean) = sqrt(mean/n); SE(var) ~ var * sqrt(2/n).
        EXPECT_NEAR(sampleMean, mean, 4.0 * std::sqrt(mean / nd))
            << "mean = " << mean;
        EXPECT_NEAR(sampleVar, mean, 4.0 * mean * std::sqrt(2.0 / nd))
            << "mean = " << mean;
    }
}

TEST(Statistical, PoissonZeroMeanAndDeterminism)
{
    Rng rng(99);
    EXPECT_EQ(sim::poissonSample(rng, 0.0), 0u);

    // Seeded draws are pinned: a change to either branch of the
    // sampler shows up as an exact-value failure here before it shows
    // up as a distributional drift above.
    Rng golden(99);
    const uint64_t exact[] = {4, 1, 2, 4};
    for (const uint64_t want : exact)
        EXPECT_EQ(sim::poissonSample(golden, 5.0), want);
    const uint64_t ptrs[] = {471, 487, 505, 500};
    for (const uint64_t want : ptrs)
        EXPECT_EQ(sim::poissonSample(golden, 500.0), want);
}

// ---------------------------------------------------------------------
// Counter-based (Philox) trial streams: the engine's definitional
// randomness must pass the same goodness-of-fit battery as the seeded
// Rng(seed) streams above, plus independence across adjacent trial
// indices — the pattern the embarrassingly-parallel kernels rely on.
// ---------------------------------------------------------------------

TEST(Statistical, PhiloxUniformsMatchUniformCdf)
{
    Rng rng = Rng::trialStream(2026, 0);
    std::vector<double> samples(20000);
    rng.fillUniformOpenLow(samples.data(), samples.size());
    const double d = ksDistance(samples, [](double x) {
        return std::clamp(x, 0.0, 1.0);
    });
    EXPECT_LT(d, ksCritical(samples.size()));
}

TEST(Statistical, PhiloxWeibullSamplingMatchesAnalyticCdf)
{
    const wearout::Weibull device(10.0, 12.0);
    Rng rng = Rng::trialStream(2026, 1);
    const auto samples = device.sampleMany(rng, 20000);
    const double d =
        ksDistance(samples, [&](double x) { return device.cdf(x); });
    EXPECT_LT(d, ksCritical(samples.size()));
}

TEST(Statistical, PhiloxBathtubMixtureMatchesMixtureCdf)
{
    const wearout::Weibull main(10.0, 12.0);
    const wearout::BathtubModel mix =
        wearout::BathtubModel::withInfantMortality(main, 0.2);
    Rng rng = Rng::trialStream(2026, 2);
    std::vector<double> samples;
    samples.reserve(20000);
    for (int i = 0; i < 20000; ++i)
        samples.push_back(mix.sample(rng));
    const double d =
        ksDistance(samples, [&](double x) { return mix.cdf(x); });
    EXPECT_LT(d, ksCritical(samples.size()));
}

TEST(Statistical, PhiloxPoissonChiSquare)
{
    // Re-run the chi-square on both branches with a counter-based
    // stream: the sampler must be generator-agnostic.
    for (const double mean : {5.0, 40.0, 150.0}) {
        Rng rng = Rng::trialStream(2024, 3);
        std::map<uint64_t, uint64_t> observed;
        const size_t n = 20000;
        for (size_t i = 0; i < n; ++i)
            ++observed[sim::poissonSample(rng, mean)];
        // Reuse the pooled chi-square machinery by replaying the same
        // stream through it (identical draws, identical pmf bins).
        double stat = 0.0;
        size_t bins = 0;
        double expAcc = 0.0, obsAcc = 0.0;
        const double nd = static_cast<double>(n);
        const auto kMax =
            static_cast<uint64_t>(mean + 12.0 * std::sqrt(mean) + 20.0);
        for (uint64_t k = 0; k <= kMax; ++k) {
            expAcc += nd * poissonPmf(k, mean);
            const auto it = observed.find(k);
            obsAcc += it == observed.end()
                          ? 0.0
                          : static_cast<double>(it->second);
            if (expAcc >= 5.0) {
                const double diff = obsAcc - expAcc;
                stat += diff * diff / expAcc;
                ++bins;
                expAcc = obsAcc = 0.0;
            }
        }
        EXPECT_LT(stat, chiSquareCritical(bins - 1)) << "mean = " << mean;
    }
}

TEST(Statistical, PhiloxAdjacentStreamsIndependentChiSquare)
{
    // 64 adjacent trial streams under one master seed. For each pair of
    // neighbouring streams (t, t+1), bin the joint draw (u_t[i],
    // u_{t+1}[i]) into an 8x8 grid; under independence every cell is
    // equally likely. Counter-layout bugs (trial bits aliasing block
    // bits, lost key mixing) correlate neighbours and light this up.
    constexpr size_t kStreams = 64;
    constexpr size_t kDraws = 2048;
    constexpr size_t kGrid = 8;
    std::vector<std::vector<double>> u(kStreams,
                                       std::vector<double>(kDraws));
    for (size_t t = 0; t < kStreams; ++t) {
        Rng rng = Rng::trialStream(31337, t);
        rng.fillUniformOpenLow(u[t].data(), kDraws);
    }
    std::array<uint64_t, kGrid * kGrid> cells{};
    for (size_t t = 0; t + 1 < kStreams; ++t) {
        for (size_t i = 0; i < kDraws; ++i) {
            const auto a = std::min(
                kGrid - 1, static_cast<size_t>(u[t][i] * kGrid));
            const auto b = std::min(
                kGrid - 1, static_cast<size_t>(u[t + 1][i] * kGrid));
            ++cells[a * kGrid + b];
        }
    }
    const double total =
        static_cast<double>((kStreams - 1) * kDraws);
    const double expect = total / static_cast<double>(kGrid * kGrid);
    double stat = 0.0;
    for (const uint64_t c : cells) {
        const double diff = static_cast<double>(c) - expect;
        stat += diff * diff / expect;
    }
    EXPECT_LT(stat, chiSquareCritical(kGrid * kGrid - 1));
}

} // namespace
} // namespace lemons
