/**
 * @file
 * In-memory span tracer for the traced benchmark run.
 *
 * A span wraps one public library call the benchmark makes (or a
 * benchmark-level grouping of them: a figure pass, a request). Spans
 * of one request or trial batch share a trace id; a span's parent is
 * the span open on the same thread unless one is named explicitly, so
 * work fanned out to helper threads still nests under its pass. Spans
 * stay in memory while the workload runs and are written out once at
 * the end, so tracing adds no I/O to the timed region.
 *
 * When the tracer is disabled (the untraced run) a Span costs one
 * relaxed load.
 */

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/** One finished span. */
struct SpanRecord
{
    uint64_t id = 0;
    uint64_t parent = 0; ///< 0 for a root span
    uint64_t trace = 0;  ///< shared by the spans of one request/batch
    const char *name = "";
    uint64_t startNs = 0;
    uint64_t endNs = 0;
};

/** Per-name totals computed from the recorded spans. */
struct SpanTotals
{
    uint64_t count = 0;
    double totalSeconds = 0.0;
    /** Duration minus the part of it covered by child spans. */
    double selfSeconds = 0.0;
};

class Tracer
{
  public:
    static Tracer &global();

    void setEnabled(bool on) { on_.store(on, std::memory_order_relaxed); }
    bool enabled() const { return on_.load(std::memory_order_relaxed); }

    /** Fresh id for a request or trial batch. */
    uint64_t newTrace() { return nextTrace.fetch_add(1) + 1; }
    /** Fresh span id. */
    uint64_t newSpan() { return nextSpan.fetch_add(1) + 1; }

    void record(const SpanRecord &span);
    std::vector<SpanRecord> spans() const;
    /** Totals (count, total, self time) keyed by span name. */
    std::map<std::string, SpanTotals> totals() const;
    /** Write every span as one JSON object per line. */
    bool write(const std::string &path) const;

  private:
    std::atomic<bool> on_{false};
    std::atomic<uint64_t> nextTrace{0};
    std::atomic<uint64_t> nextSpan{0};
    mutable std::mutex mu;
    std::vector<SpanRecord> records;
};

/** RAII span; records itself into Tracer::global() when enabled. */
class Span
{
  public:
    /** Child of the span open on this thread, same trace id; becomes
     *  the thread's open span until it ends. */
    explicit Span(const char *name);
    /** Span with an explicit trace id and parent (0 = none). It does
     *  not become the thread's open span, so such spans may end in any
     *  order (the load generator interleaves its callers' requests). */
    Span(const char *name, uint64_t trace, uint64_t parent);
    ~Span();

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    uint64_t id() const { return record.id; }
    uint64_t trace() const { return record.trace; }

  private:
    void open(const char *name, uint64_t trace, uint64_t parent);

    SpanRecord record;
    const Span *outer = nullptr;
    bool active = false;
    bool scoped = false;
};

/**
 * Self seconds of @p spans, by the rule "a span's self time is its
 * duration minus the union of its children's intervals within it".
 * Exposed for the self-test.
 */
std::map<std::string, SpanTotals>
spanTotals(const std::vector<SpanRecord> &spans);

} // namespace perfbench

#endif // PERFBENCH_TRACE_H_
