#include "wearout/weibull.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "obs/metrics.h"
#include "util/fastmath.h"
#include "util/require.h"

namespace lemons::wearout {

Weibull::Weibull(double alpha, double beta)
    : scale(alpha), shape(beta), invShape(1.0 / beta)
{
    requireArg(alpha > 0.0 && std::isfinite(alpha),
               "Weibull: alpha must be positive and finite");
    requireArg(beta > 0.0 && std::isfinite(beta),
               "Weibull: beta must be positive and finite");
}

double
Weibull::pdf(double x) const
{
    if (x < 0.0)
        return 0.0;
    if (x == 0.0)
        return shape > 1.0 ? 0.0
                           : (shape == 1.0
                                  ? 1.0 / scale
                                  : std::numeric_limits<double>::infinity());
    const double z = x / scale;
    return (shape / scale) * std::pow(z, shape - 1.0) *
           std::exp(-std::pow(z, shape));
}

double
Weibull::cdf(double x) const
{
    if (x <= 0.0)
        return 0.0;
    return -std::expm1(logReliability(x));
}

double
Weibull::reliability(double x) const
{
    if (x <= 0.0)
        return 1.0;
    return std::exp(logReliability(x));
}

double
Weibull::logReliability(double x) const
{
    if (x <= 0.0)
        return 0.0;
    return -std::pow(x / scale, shape);
}

double
Weibull::hazard(double x) const
{
    requireArg(x >= 0.0, "Weibull::hazard: x must be non-negative");
    if (x == 0.0)
        return pdf(0.0);
    const double z = x / scale;
    return (shape / scale) * std::pow(z, shape - 1.0);
}

double
Weibull::quantile(double p) const
{
    requireArg(p >= 0.0 && p < 1.0, "Weibull::quantile: p outside [0, 1)");
    if (p == 0.0)
        return 0.0;
    return scale * std::pow(-std::log1p(-p), 1.0 / shape);
}

double
Weibull::mttf() const
{
    return scale * std::tgamma(1.0 + 1.0 / shape);
}

double
Weibull::lifetimeVariance() const
{
    const double g1 = std::tgamma(1.0 + 1.0 / shape);
    const double g2 = std::tgamma(1.0 + 2.0 / shape);
    return scale * scale * (g2 - g1 * g1);
}

double
Weibull::sample(Rng &rng) const
{
    LEMONS_OBS_INCREMENT("wearout.weibull.samples");
    return sampleFromUniform(rng.nextDoubleOpenLow());
}

double
Weibull::sampleFromUniform(double u) const
{
    // Inverse-CDF sampling: T = alpha * (-ln U)^(1/beta), U in (0, 1].
    // The transform runs on lemons::fastmath so the sampled stream is
    // pinned to a fixed operation sequence (libm-version independent);
    // the closed-form analytics above stay on libm.
    requireArg(u > 0.0 && u <= 1.0,
               "Weibull::sampleFromUniform: u outside (0, 1]");
    return scale * fastmath::detPow(-fastmath::detLog(u), invShape);
}

std::vector<double>
Weibull::sampleMany(Rng &rng, size_t count) const
{
    // Bulk path: one counter bump for the whole batch instead of one
    // per draw (the draws themselves go through the same inverse CDF).
    LEMONS_OBS_COUNT("wearout.weibull.samples", count);
    std::vector<double> out;
    out.reserve(count);
    for (size_t i = 0; i < count; ++i)
        out.push_back(sampleFromUniform(rng.nextDoubleOpenLow()));
    return out;
}

Weibull
Weibull::fit(const std::vector<double> &lifetimes)
{
    requireArg(lifetimes.size() >= 2,
               "Weibull::fit: need at least two observations");
    for (double t : lifetimes)
        requireArg(t > 0.0, "Weibull::fit: lifetimes must be positive");

    const auto n = static_cast<double>(lifetimes.size());
    std::vector<double> logs;
    logs.reserve(lifetimes.size());
    for (double t : lifetimes)
        logs.push_back(std::log(t));
    const double meanLog =
        std::accumulate(logs.begin(), logs.end(), 0.0) / n;

    // MLE profile equation for the shape b:
    //   g(b) = sum(t^b ln t)/sum(t^b) - 1/b - meanLog = 0.
    // t^b overflows for large b, so work with the scaled weights
    // exp(b (ln t - maxLog)) which stay in [0, 1]; the ratio is
    // unchanged. Solve by bisection on b in [1e-3, 1e3].
    const double maxLog = *std::max_element(logs.begin(), logs.end());
    auto g = [&](double b) {
        double sumW = 0.0, sumWLog = 0.0;
        for (double lt : logs) {
            const double w = std::exp(b * (lt - maxLog));
            sumW += w;
            sumWLog += w * lt;
        }
        return sumWLog / sumW - 1.0 / b - meanLog;
    };

    double lo = 1e-3, hi = 1e3;
    // g(lo) < 0 and g(hi) > 0 for non-degenerate data; fall back to the
    // bounds if the data is (nearly) constant.
    if (g(lo) > 0.0)
        return Weibull(std::exp(meanLog), hi);
    double b = 1.0;
    for (int iter = 0; iter < 100; ++iter) {
        const double value = g(b);
        if (std::abs(value) < 1e-12)
            break;
        if (value > 0.0)
            hi = b;
        else
            lo = b;
        b = 0.5 * (lo + hi);
    }

    // alpha = (sum t^b / n)^(1/b), with the same overflow-safe scaling:
    // ln a = maxLog + ln(sum exp(b (ln t - maxLog)) / n) / b.
    double sumW = 0.0;
    for (double lt : logs)
        sumW += std::exp(b * (lt - maxLog));
    const double a = std::exp(maxLog + std::log(sumW / n) / b);
    return Weibull(a, b);
}

} // namespace lemons::wearout
