/**
 * @file
 * The benchmark's own self-test: each correctness check passes on the
 * true reference and fails on a deliberately wrong one, the span
 * self-time rule holds on a hand-built trace, and every declared
 * metric has a unique name and a unit. run.py --self-test adds a short
 * smoke run of every workload on top.
 */

#include <iostream>
#include <set>
#include <string>
#include <vector>

#include "api/service.h"
#include "common.h"
#include "core/design_solver.h"
#include "reference.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {

namespace {

int failures = 0;

void
expect(bool condition, const std::string &what)
{
    std::cout << (condition ? "ok   " : "FAIL ") << what << "\n";
    if (!condition)
        ++failures;
}

void
expectPass(const std::string &why, const std::string &what)
{
    expect(why.empty(), what + (why.empty() ? "" : " (" + why + ")"));
}

void
expectFail(const std::string &why, const std::string &what)
{
    expect(!why.empty(), what);
}

} // namespace

int
runSelfTest(const Options &)
{
    using namespace lemons;

    core::DesignRequest request;
    request.device = {14.0, 8.0};
    request.kFraction = 0.1;
    const core::Design flagship = core::DesignSolver(request).solve();
    expectPass(checkDesign(flagship, kFig4bFlagship),
               "fig 4b flagship matches its reference");
    DesignRef wrong = kFig4bFlagship;
    wrong.width += 1;
    expectFail(checkDesign(flagship, wrong),
               "fig 4b check fails on a wrong width");

    // Known small quantiles: Poisson(10) median is 10; Poisson(1) 99 %
    // quantile is 4 (CDF(3) = 0.981, CDF(4) = 0.9963).
    expect(poissonQuantile(10.0, 0.5) == 10, "Poisson(10) median is 10");
    expect(poissonQuantile(1.0, 0.99) == 4, "Poisson(1) 99% quantile is 4");
    const double lambdaD = 50.0 * 1825.0;
    const uint64_t exact = poissonQuantile(lambdaD, 0.99);
    expectPass(checkUsageBudget(exact, lambdaD, exact),
               "exact usage budget passes");
    expectFail(checkUsageBudget(exact, lambdaD,
                                poissonQuantile(lambdaD * 1.02, 0.99)),
               "usage check fails on a wrong reference quantile");
    expectFail(checkUsageBudget(static_cast<uint64_t>(lambdaD), lambdaD,
                                exact),
               "usage check fails on the mean demand");

    const api::Service service;
    const std::string body =
        service.solve("{\"alpha\": 14, \"beta\": 8, \"lab\": 91250, "
                      "\"k_fraction\": 0.1}")
            .body;
    expectPass(checkEnvelope(body), "solve body is a lemons-api/1 envelope");
    expectFail(checkEnvelope(body, "lemons-api/2"),
               "envelope check fails on a wrong schema");
    expectFail(checkEnvelope(body.substr(0, body.size() / 2)),
               "envelope check fails on a truncated body");
    const std::string other =
        service.solve("{\"alpha\": 14, \"beta\": 8, \"lab\": 91250, "
                      "\"k_fraction\": 0.2}")
            .body;
    expectPass(checkSameBody(bodyHash(body), body, "solve"),
               "same bytes pass");
    expectFail(checkSameBody(bodyHash(body), other, "solve"),
               "byte-equality fails on another request's reference");

    // Wilson 95 % for 10 of 100: [0.0552, 0.1744].
    const auto [low, high] = wilsonInterval(10, 100, 1.959964);
    expect(std::abs(low - 0.0552) < 1e-4 && std::abs(high - 0.1744) < 1e-4,
           "Wilson interval of 10/100 is [0.0552, 0.1744]");
    expectPass(checkOverlap(0.1, 0.2, 0.15, 0.5, "x"), "overlap passes");
    expectFail(checkOverlap(0.1, 0.2, 0.3, 0.4, "x"),
               "overlap fails on a disjoint bracket");
    expectPass(checkSameDigest(7, 7, "x"), "equal digests pass");
    expectFail(checkSameDigest(7, 8, "x"), "unequal digests fail");

    // Parent [0, 100] with children [10, 30], [20, 50], [60, 70]: the
    // children cover 50 ns, so the parent's self time is 50 ns.
    const std::vector<SpanRecord> spans = {
        {1, 0, 1, "parent", 0, 100},
        {2, 1, 1, "child", 10, 30},
        {3, 1, 1, "child", 20, 50},
        {4, 1, 1, "child", 60, 70},
    };
    const auto totals = spanTotals(spans);
    expect(std::abs(totals.at("parent").selfSeconds - 50e-9) < 1e-15,
           "span self time subtracts the union of child intervals");
    expect(totals.at("child").count == 3, "span totals count every span");

    // Units keep when their stolen share is at most the median.
    const std::vector<WorkUnit> stolenUnits = {
        {1.0, 1.0, 0.10}, {1.0, 1.0, 0.0}, {1.0, 1.0, 0.30}, {1.0, 1.0, 0.0}};
    expect(leastStolen(stolenUnits) == std::vector<size_t>{1, 3},
           "leastStolen keeps the units at or below the median share");
    expect(leastStolen({{1.0, 1.0, 0.0}, {2.0, 2.0, 0.0}, {3.0, 3.0, 0.0}})
                   .size() == 3,
           "leastStolen keeps every unit when nothing was stolen");

    std::set<std::string> names;
    bool unique = true;
    bool units = true;
    for (const auto *list :
         {&endToEndMetrics(), &ungatedMetrics(), &perLayerMetrics()})
        for (const MetricDef &metric : *list) {
            units = units && metric.unit[0] != '\0';
            unique = names.insert(metric.name).second && unique;
        }
    expect(unique, "metric names are unique");
    expect(units, "every metric declares a unit");

    std::cout << (failures == 0 ? "self-test passed" : "self-test FAILED")
              << "\n";
    return failures == 0 ? 0 : 1;
}

} // namespace perfbench
