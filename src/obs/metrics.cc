#include "obs/metrics.h"

#include <sstream>

#include "obs/json.h"
#include "obs/prometheus.h"

namespace lemons::obs {

uint32_t
detail::assignCounterShard()
{
    static std::atomic<uint32_t> nextShard{0};
    counterShardSlot =
        nextShard.fetch_add(1, std::memory_order_relaxed) % Counter::kShards +
        1;
    return counterShardSlot;
}

double
Timer::meanNs() const
{
    const uint64_t n = count();
    if (n == 0)
        return 0.0;
    return static_cast<double>(totalNs()) / static_cast<double>(n);
}

Registry &
Registry::global()
{
    static Registry instance;
    return instance;
}

Counter &
Registry::counter(std::string_view name)
{
    const MutexLock lock(mu);
    auto it = counters.find(name);
    if (it == counters.end()) {
        it = counters
                 .emplace(std::string(name), std::make_unique<Counter>())
                 .first;
    }
    return *it->second;
}

Timer &
Registry::timer(std::string_view name)
{
    const MutexLock lock(mu);
    auto it = timers.find(name);
    if (it == timers.end()) {
        it = timers.emplace(std::string(name), std::make_unique<Timer>())
                 .first;
    }
    return *it->second;
}

size_t
Registry::size() const
{
    const MutexLock lock(mu);
    return counters.size() + timers.size();
}

bool
Registry::contains(std::string_view name) const
{
    const MutexLock lock(mu);
    return counters.find(name) != counters.end() ||
           timers.find(name) != timers.end();
}

Snapshot
Registry::snapshot() const
{
    const MutexLock lock(mu);
    Snapshot snap;
    snap.counters.reserve(counters.size());
    for (const auto &[name, counter] : counters)
        snap.counters.push_back({name, counter->get()});
    snap.timers.reserve(timers.size());
    for (const auto &[name, timer] : timers)
        snap.timers.push_back({name, timer->count(), timer->totalNs()});
    return snap;
}

void
Registry::resetAll()
{
    const MutexLock lock(mu);
    for (const auto &[name, counter] : counters)
        counter->reset();
    for (const auto &[name, timer] : timers)
        timer->reset();
}

std::vector<CounterSample>
Snapshot::countersSince(const Snapshot &base) const
{
    std::vector<CounterSample> deltas;
    // Both sides are name-sorted (std::map iteration order).
    size_t b = 0;
    for (const CounterSample &sample : counters) {
        while (b < base.counters.size() &&
               base.counters[b].name < sample.name)
            ++b;
        uint64_t before = 0;
        if (b < base.counters.size() &&
            base.counters[b].name == sample.name)
            before = base.counters[b].value;
        if (sample.value != before)
            deltas.push_back({sample.name, sample.value - before});
    }
    return deltas;
}

std::vector<TimerSample>
Snapshot::timersSince(const Snapshot &base) const
{
    std::vector<TimerSample> deltas;
    size_t b = 0;
    for (const TimerSample &sample : timers) {
        while (b < base.timers.size() && base.timers[b].name < sample.name)
            ++b;
        uint64_t beforeCount = 0;
        uint64_t beforeNs = 0;
        if (b < base.timers.size() && base.timers[b].name == sample.name) {
            beforeCount = base.timers[b].count;
            beforeNs = base.timers[b].totalNs;
        }
        if (sample.count != beforeCount || sample.totalNs != beforeNs) {
            deltas.push_back({sample.name, sample.count - beforeCount,
                              sample.totalNs - beforeNs});
        }
    }
    return deltas;
}

std::string
Registry::toJson() const
{
    const Snapshot snap = snapshot();
    std::ostringstream out;
    JsonWriter json(out);
    json.beginObject();

    json.key("counters");
    json.beginObject();
    for (const CounterSample &sample : snap.counters) {
        json.key(sample.name);
        json.value(sample.value);
    }
    json.endObject();

    json.key("timers");
    json.beginObject();
    for (const TimerSample &sample : snap.timers) {
        json.key(sample.name);
        json.beginObject();
        json.key("count");
        json.value(sample.count);
        json.key("total_ns");
        json.value(sample.totalNs);
        json.endObject();
    }
    json.endObject();

    json.endObject();
    return out.str();
}

std::string
Registry::toPrometheus() const
{
    return obs::toPrometheus(snapshot());
}

} // namespace lemons::obs
