/**
 * @file
 * Pins the Prometheus text-exposition format behind GET /metrics
 * (obs/prometheus.h). Dashboards scrape this output, so the mapping —
 * counter -> counter, Timer -> summary in *seconds* — is contract,
 * not implementation detail. These tests
 * compare whole rendered documents, so any format drift fails loudly.
 */

#include <gtest/gtest.h>

#include <string>

#include "obs/metrics.h"
#include "obs/prometheus.h"

namespace lemons::obs {
namespace {

TEST(Prometheus, NameSanitization)
{
    EXPECT_EQ(prometheusName("sim.mc.trials"), "sim_mc_trials");
    EXPECT_EQ(prometheusName("serve.responses.2xx"),
              "serve_responses_2xx");
    EXPECT_EQ(prometheusName("already_legal:name"),
              "already_legal:name");
    EXPECT_EQ(prometheusName("weird name/metric"),
              "weird_name_metric");
    // A leading digit gets a '_' prefix (Prometheus names cannot
    // start with a digit).
    EXPECT_EQ(prometheusName("2fast"), "_2fast");
    EXPECT_EQ(prometheusName(""), "");
}

TEST(Prometheus, CounterExposition)
{
    Registry registry;
    registry.counter("serve.requests").add(3);
    EXPECT_EQ(registry.toPrometheus(),
              "# HELP lemons_serve_requests lemons counter "
              "serve.requests\n"
              "# TYPE lemons_serve_requests counter\n"
              "lemons_serve_requests 3\n");
}

TEST(Prometheus, TimerBecomesSummaryInSeconds)
{
    Registry registry;
    // 1.5 ms and 0.5 ms -> 2 observations summing to 0.002 s.
    registry.timer("serve.request").record(1500000);
    registry.timer("serve.request").record(500000);
    EXPECT_EQ(registry.toPrometheus(),
              "# HELP lemons_serve_request_seconds lemons summary "
              "serve.request\n"
              "# TYPE lemons_serve_request_seconds summary\n"
              "lemons_serve_request_seconds_sum 0.002\n"
              "lemons_serve_request_seconds_count 2\n");
}

TEST(Prometheus, MetricsRenderInNameOrder)
{
    // Snapshot order is name-sorted, so the exposition is stable
    // across runs regardless of registration order.
    Registry registry;
    registry.counter("b.second").add(2);
    registry.counter("a.first").add(1);
    const std::string text = registry.toPrometheus();
    const size_t first = text.find("lemons_a_first 1");
    const size_t second = text.find("lemons_b_second 2");
    ASSERT_NE(first, std::string::npos);
    ASSERT_NE(second, std::string::npos);
    EXPECT_LT(first, second);
}

TEST(Prometheus, HelpLineEscapesNewlines)
{
    Registry registry;
    registry.counter("odd\nname").add(1);
    const std::string text = registry.toPrometheus();
    EXPECT_NE(text.find("# HELP lemons_odd_name lemons counter "
                        "odd\\nname\n"),
              std::string::npos);
    EXPECT_NE(text.find("lemons_odd_name 1\n"), std::string::npos);
}

} // namespace
} // namespace lemons::obs
