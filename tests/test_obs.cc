/**
 * @file
 * lemons::obs in its default (enabled) configuration: metric
 * primitives, registry semantics, snapshot deltas, JSON serialization,
 * and the global-registry macros. The disabled configuration is pinned
 * separately by test_obs_disabled.cc, whose translation unit defines
 * LEMONS_OBS_DISABLED.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <sstream>
#include <string>
#include <thread>

#include "obs/json.h"
#include "obs/metrics.h"

namespace lemons::obs {
namespace {

TEST(ObsCounter, AddGetReset)
{
    Counter c;
    EXPECT_EQ(c.get(), 0u);
    c.add();
    c.add(41);
    EXPECT_EQ(c.get(), 42u);
    c.reset();
    EXPECT_EQ(c.get(), 0u);
}

TEST(ObsTimer, RecordAndMean)
{
    Timer t;
    EXPECT_EQ(t.count(), 0u);
    EXPECT_DOUBLE_EQ(t.meanNs(), 0.0);
    t.record(100);
    t.record(300);
    EXPECT_EQ(t.count(), 2u);
    EXPECT_EQ(t.totalNs(), 400u);
    EXPECT_DOUBLE_EQ(t.meanNs(), 200.0);
    t.reset();
    EXPECT_EQ(t.count(), 0u);
    EXPECT_EQ(t.totalNs(), 0u);
}

TEST(ObsTimer, ScopedTimerRecordsElapsedTime)
{
    Timer t;
    {
        const ScopedTimer guard(t);
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    EXPECT_EQ(t.count(), 1u);
    EXPECT_GE(t.totalNs(), 1000000u); // at least 1 ms of the 2 ms sleep
}

TEST(ObsRegistry, LookupOrCreateReturnsStableReferences)
{
    Registry registry;
    Counter &a = registry.counter("alpha");
    Counter &b = registry.counter("alpha");
    EXPECT_EQ(&a, &b);
    Timer &t1 = registry.timer("alpha"); // same name, different kind
    Timer &t2 = registry.timer("alpha");
    EXPECT_EQ(&t1, &t2);

    EXPECT_EQ(registry.size(), 2u);
    EXPECT_TRUE(registry.contains("alpha"));
    EXPECT_FALSE(registry.contains("beta"));
}

TEST(ObsRegistry, SnapshotIsNameSorted)
{
    Registry registry;
    registry.counter("zeta").add(1);
    registry.counter("alpha").add(2);
    registry.counter("mid").add(3);
    const Snapshot snap = registry.snapshot();
    ASSERT_EQ(snap.counters.size(), 3u);
    EXPECT_EQ(snap.counters[0].name, "alpha");
    EXPECT_EQ(snap.counters[1].name, "mid");
    EXPECT_EQ(snap.counters[2].name, "zeta");
    EXPECT_EQ(snap.counters[0].value, 2u);
}

TEST(ObsRegistry, SnapshotDeltasDropUnchangedMetrics)
{
    Registry registry;
    registry.counter("steady").add(10);
    registry.counter("active").add(1);
    registry.timer("quiet").record(50);
    const Snapshot before = registry.snapshot();

    registry.counter("active").add(4);
    registry.counter("fresh").add(7);
    registry.timer("busy").record(300);
    const Snapshot after = registry.snapshot();

    const auto counterDeltas = after.countersSince(before);
    ASSERT_EQ(counterDeltas.size(), 2u);
    EXPECT_EQ(counterDeltas[0].name, "active");
    EXPECT_EQ(counterDeltas[0].value, 4u);
    EXPECT_EQ(counterDeltas[1].name, "fresh");
    EXPECT_EQ(counterDeltas[1].value, 7u);

    const auto timerDeltas = after.timersSince(before);
    ASSERT_EQ(timerDeltas.size(), 1u);
    EXPECT_EQ(timerDeltas[0].name, "busy");
    EXPECT_EQ(timerDeltas[0].count, 1u);
    EXPECT_EQ(timerDeltas[0].totalNs, 300u);
}

TEST(ObsRegistry, ResetAllZeroesValuesButKeepsRegistrations)
{
    Registry registry;
    Counter &c = registry.counter("events");
    c.add(9);
    registry.timer("span").record(1000);
    registry.resetAll();
    EXPECT_EQ(registry.size(), 2u);
    EXPECT_EQ(c.get(), 0u); // cached call-site reference still valid
    EXPECT_EQ(registry.timer("span").totalNs(), 0u);
}

TEST(ObsRegistry, ToJsonRoundTrip)
{
    Registry registry;
    registry.counter("sim.trials").add(3);
    registry.timer("sim.run").record(1500);
    EXPECT_EQ(registry.toJson(),
              "{\"counters\":{\"sim.trials\":3},"
              "\"timers\":{\"sim.run\":{\"count\":1,\"total_ns\":1500}}}");
}

TEST(ObsJson, WriterEscapesAndNestsCorrectly)
{
    std::ostringstream out;
    JsonWriter json(out);
    json.beginObject();
    json.key("quote\"backslash\\");
    json.value("line\nbreak");
    json.key("nums");
    json.beginArray();
    json.value(1.5);
    json.value(uint64_t{7});
    json.value(-2);
    json.value(true);
    json.null();
    json.endArray();
    json.endObject();
    EXPECT_TRUE(json.complete());
    EXPECT_EQ(out.str(),
              "{\"quote\\\"backslash\\\\\":\"line\\nbreak\","
              "\"nums\":[1.5,7,-2,true,null]}");
}

TEST(ObsJson, NonFiniteDoublesBecomeNull)
{
    std::ostringstream out;
    JsonWriter json(out);
    json.beginArray();
    json.value(std::numeric_limits<double>::infinity());
    json.value(std::numeric_limits<double>::quiet_NaN());
    json.endArray();
    EXPECT_EQ(out.str(), "[null,null]");
}

TEST(ObsMacros, RegisterAndCountInGlobalRegistry)
{
    // Names unique to this test so the global registry's state from
    // other instrumented code paths cannot interfere.
    LEMONS_OBS_COUNT("test.obs.macro.count", 5);
    LEMONS_OBS_INCREMENT("test.obs.macro.count");
    ASSERT_TRUE(Registry::global().contains("test.obs.macro.count"));
    EXPECT_EQ(Registry::global().counter("test.obs.macro.count").get(),
              6u);

    {
        LEMONS_OBS_SCOPED_TIMER("test.obs.macro.timer");
    }
    ASSERT_TRUE(Registry::global().contains("test.obs.macro.timer"));
    EXPECT_EQ(Registry::global().timer("test.obs.macro.timer").count(),
              1u);
}

} // namespace
} // namespace lemons::obs
