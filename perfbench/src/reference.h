/**
 * @file
 * Correctness references and checks, computed in the benchmark's own
 * code rather than taken from the library under test.
 *
 * Every check returns an empty string on success and a one-line reason
 * on failure. Each takes its reference as an argument, so the
 * self-test can hand it a deliberately wrong one and confirm that the
 * check fails.
 */

#ifndef PERFBENCH_REFERENCE_H_
#define PERFBENCH_REFERENCE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>

#include "core/design_solver.h"

namespace perfbench {

/** Expected shape of a solved design; 0 fields are not checked. */
struct DesignRef
{
    uint64_t width = 0;
    uint64_t threshold = 0;
    uint64_t copies = 0;
    uint64_t totalDevices = 0;
};

/** Fig 4b flagship: alpha 14, beta 8, k/n = 10 %, LAB 91,250. */
inline constexpr DesignRef kFig4bFlagship{175, 18, 6084, 1064700};
/** Fig 4c relaxed criteria (p = 10 %) on the same technology. */
inline constexpr DesignRef kFig4cRelaxed{0, 0, 0, 669240};
/** Fig 5 targeting system: alpha 13, beta 8, k/n = 10 %, LAB 100. */
inline constexpr DesignRef kFig5Targeting{0, 0, 0, 1200};

std::string checkDesign(const lemons::core::Design &design,
                        const DesignRef &expected);

/**
 * Smallest b with P(Poisson(@p mean) <= b) >= @p p, from a direct sum
 * of exp(log pmf) terms.
 */
uint64_t poissonQuantile(double mean, double p);

/**
 * Tolerance of the usage-budget check in Poisson standard deviations
 * sqrt(lambda d). The Monte Carlo budget at 100 trials is the second
 * largest of 100 demand totals; it lies within 1.5 sd of the exact
 * 99 % quantile except with probability below 1e-4 per profile, while
 * answers such as the mean demand (2.33 sd low) fall outside. An exact
 * method lands on the quantile itself.
 */
inline constexpr double kUsageToleranceSd = 1.5;

/** |budget - exactQuantile| <= kUsageToleranceSd * sqrt(mean). */
std::string checkUsageBudget(uint64_t budget, double mean,
                             uint64_t exactQuantile);

/** @p body is one lemons-api/1 envelope (schema, ok, diagnostics,
 *  result). */
std::string checkEnvelope(std::string_view body,
                          std::string_view schema = "lemons-api/1");

/** 64-bit FNV-1a hash of @p bytes: what the serve workloads keep of a
 *  response body instead of the body itself. */
uint64_t bodyHash(std::string_view bytes);

/** A served body, kept as its bodyHash(), equals the in-process
 *  reference bytes. */
std::string checkSameBody(uint64_t servedHash, std::string_view reference,
                          const std::string &what);

/**
 * z of the premature-lockout interval in the fleet check. The
 * campaign's own prematureInterval() is a 95 % Wilson interval, which
 * misses a certified bracket in about one run in twenty even when the
 * library is right; at z = 4 a correct campaign fails with probability
 * below 1e-4 per cohort.
 */
inline constexpr double kPrematureZ = 4.0;

/** Wilson score interval for @p successes of @p trials at @p z. */
std::pair<double, double> wilsonInterval(uint64_t successes, uint64_t trials,
                                         double z);

/** Closed intervals [lo1, hi1] and [lo2, hi2] intersect. */
std::string checkOverlap(double lo1, double hi1, double lo2, double hi2,
                         const std::string &what);

/** Two digests are equal. */
std::string checkSameDigest(uint64_t a, uint64_t b, const std::string &what);

} // namespace perfbench

#endif // PERFBENCH_REFERENCE_H_
