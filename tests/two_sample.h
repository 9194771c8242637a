/**
 * @file
 * Two-sample Kolmogorov-Smirnov statistic shared by the suites that
 * check an exact law against its per-device Monte Carlo oracle
 * (test_fleet, test_structures).
 */

#ifndef LEMONS_TESTS_TWO_SAMPLE_H_
#define LEMONS_TESTS_TWO_SAMPLE_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace lemons::testutil {

/** Two-sample Kolmogorov-Smirnov statistic sup |F_x - F_y| (ties
 *  stepped together, so integer-valued samples are handled exactly). */
inline double
ksStatistic(std::vector<double> x, std::vector<double> y)
{
    std::sort(x.begin(), x.end());
    std::sort(y.begin(), y.end());
    size_t i = 0;
    size_t j = 0;
    double sup = 0.0;
    while (i < x.size() && j < y.size()) {
        const double value = std::min(x[i], y[j]);
        while (i < x.size() && x[i] == value)
            ++i;
        while (j < y.size() && y[j] == value)
            ++j;
        sup = std::max(
            sup, std::abs(static_cast<double>(i) /
                              static_cast<double>(x.size()) -
                          static_cast<double>(j) /
                              static_cast<double>(y.size())));
    }
    return sup;
}

} // namespace lemons::testutil

#endif // LEMONS_TESTS_TWO_SAMPLE_H_
