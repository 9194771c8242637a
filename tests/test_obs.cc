/**
 * @file
 * lemons::obs: metric primitives, registry semantics, snapshot
 * deltas, JSON serialization, and the global-registry macros.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

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

TEST(ObsCounter, StripedCountsStayExactAcrossThreads)
{
    // More writer threads than shards, so some threads share a shard,
    // while a reader snapshots the registry the whole time.
    constexpr size_t kWriters = Counter::kShards + 5;
    constexpr uint64_t kAddsPerWriter = 20000;
    Registry registry;
    Counter &events = registry.counter("events");
    registry.counter("idle").add(3);
    const Snapshot before = registry.snapshot();

    std::atomic<bool> done{false};
    std::thread reader([&] {
        uint64_t last = 0;
        while (!done.load()) {
            const uint64_t now = registry.snapshot().counters[0].value;
            EXPECT_GE(now, last); // monotone while only adds happen
            last = now;
        }
    });
    std::vector<std::thread> writers;
    for (size_t w = 0; w < kWriters; ++w) {
        writers.emplace_back([&events, w] {
            for (uint64_t i = 0; i < kAddsPerWriter; ++i)
                events.add(w + 1);
        });
    }
    for (std::thread &writer : writers)
        writer.join();
    done.store(true);
    reader.join();

    // Sum over writers of (w + 1) * kAddsPerWriter.
    const uint64_t expected = kAddsPerWriter * kWriters * (kWriters + 1) / 2;
    EXPECT_EQ(events.get(), expected);
    const Snapshot after = registry.snapshot();
    ASSERT_EQ(after.counters.size(), 2u);
    EXPECT_EQ(after.counters[0].name, "events");
    EXPECT_EQ(after.counters[0].value, expected);
    const auto deltas = after.countersSince(before);
    ASSERT_EQ(deltas.size(), 1u);
    EXPECT_EQ(deltas[0].name, "events");
    EXPECT_EQ(deltas[0].value, expected);

    // reset() zeroes every shard: the sum is 0, and fresh adds from
    // new threads count from zero again.
    events.reset();
    EXPECT_EQ(events.get(), 0u);
    std::vector<std::thread> again;
    for (size_t w = 0; w < kWriters; ++w)
        again.emplace_back([&events] { events.add(2); });
    for (std::thread &writer : again)
        writer.join();
    EXPECT_EQ(events.get(), 2u * kWriters);
    registry.resetAll();
    EXPECT_EQ(events.get(), 0u);
    EXPECT_EQ(registry.counter("idle").get(), 0u);
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

TEST(ObsJson, EscapeWritesIllFormedUtf8AsReplacement)
{
    // Well-formed sequences (2, 3 and 4 bytes) pass through; each byte
    // of an ill-formed one becomes U+FFFD: a stray byte, a truncated
    // sequence, an encoded surrogate, an overlong form, and a code
    // point above U+10FFFF.
    EXPECT_EQ(jsonEscape("\xC3\xA9\xE2\x82\xAC\xF0\x9F\x98\x80"),
              "\xC3\xA9\xE2\x82\xAC\xF0\x9F\x98\x80");
    EXPECT_EQ(jsonEscape("a\xFF" "b"), "a\\ufffdb");
    EXPECT_EQ(jsonEscape("\xC3"), "\\ufffd");
    EXPECT_EQ(jsonEscape("\xED\xA0\x80"), "\\ufffd\\ufffd\\ufffd");
    EXPECT_EQ(jsonEscape("\xC0\xAF"), "\\ufffd\\ufffd");
    EXPECT_EQ(jsonEscape("\xF4\x90\x80\x80"),
              "\\ufffd\\ufffd\\ufffd\\ufffd");
    EXPECT_EQ(utf8SequenceLength("\xF4\x8F\xBF\xBF"), 4u); // U+10FFFF
    EXPECT_EQ(utf8SequenceLength("\xED\x9F\xBF"), 3u);     // U+D7FF
    EXPECT_EQ(utf8SequenceLength(""), 0u);
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
