#include "trace.h"

#include <algorithm>
#include <fstream>
#include <unordered_map>
#include <utility>

#include "common.h"

namespace perfbench {

namespace {

thread_local const Span *currentSpan = nullptr;

} // namespace

Tracer &
Tracer::global()
{
    static Tracer tracer;
    return tracer;
}

void
Tracer::record(const SpanRecord &span)
{
    const std::lock_guard<std::mutex> lock(mu);
    records.push_back(span);
}

std::vector<SpanRecord>
Tracer::spans() const
{
    const std::lock_guard<std::mutex> lock(mu);
    return records;
}

std::map<std::string, SpanTotals>
Tracer::totals() const
{
    return spanTotals(spans());
}

bool
Tracer::write(const std::string &path) const
{
    std::ofstream out(path);
    if (!out)
        return false;
    for (const SpanRecord &span : spans()) {
        out << "{\"id\": " << span.id << ", \"parent\": " << span.parent
            << ", \"trace\": " << span.trace
            << ", \"name\": " << jsonString(span.name)
            << ", \"start_ns\": " << span.startNs
            << ", \"end_ns\": " << span.endNs << "}\n";
    }
    return static_cast<bool>(out);
}

Span::Span(const char *name)
{
    if (!Tracer::global().enabled())
        return;
    const Span *parent = currentSpan;
    open(name, parent != nullptr ? parent->trace() : 0,
         parent != nullptr ? parent->id() : 0);
    outer = currentSpan;
    currentSpan = this;
    scoped = true;
}

Span::Span(const char *name, uint64_t trace, uint64_t parent)
{
    if (!Tracer::global().enabled())
        return;
    open(name, trace, parent);
}

void
Span::open(const char *name, uint64_t trace, uint64_t parent)
{
    Tracer &tracer = Tracer::global();
    record.id = tracer.newSpan();
    record.parent = parent;
    record.trace = trace != 0 ? trace : tracer.newTrace();
    record.name = name;
    active = true;
    record.startNs = nowNs();
}

Span::~Span()
{
    if (!active)
        return;
    record.endNs = nowNs();
    if (scoped)
        currentSpan = outer;
    Tracer::global().record(record);
}

std::map<std::string, SpanTotals>
spanTotals(const std::vector<SpanRecord> &spans)
{
    std::unordered_map<uint64_t, std::vector<std::pair<uint64_t, uint64_t>>>
        children;
    for (const SpanRecord &span : spans)
        if (span.parent != 0)
            children[span.parent].emplace_back(span.startNs, span.endNs);

    std::map<std::string, SpanTotals> totals;
    for (const SpanRecord &span : spans) {
        const uint64_t duration = span.endNs - span.startNs;
        uint64_t covered = 0;
        const auto found = children.find(span.id);
        if (found != children.end()) {
            // Union of the children's intervals, clipped to the span.
            auto intervals = found->second;
            std::sort(intervals.begin(), intervals.end());
            uint64_t reach = span.startNs;
            for (const auto &[begin, end] : intervals) {
                const uint64_t lo = std::max(begin, reach);
                const uint64_t hi = std::min(end, span.endNs);
                if (hi > lo) {
                    covered += hi - lo;
                    reach = hi;
                }
            }
        }
        SpanTotals &entry = totals[span.name];
        ++entry.count;
        entry.totalSeconds += static_cast<double>(duration) * 1e-9;
        entry.selfSeconds +=
            static_cast<double>(duration - std::min(covered, duration)) *
            1e-9;
    }
    return totals;
}

} // namespace perfbench
