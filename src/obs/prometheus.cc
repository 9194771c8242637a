#include "obs/prometheus.h"

#include <cstdio>
#include <sstream>

namespace lemons::obs {

namespace {

/** Shortest round-trip-ish rendering for exposition values. */
std::string
formatDouble(double value)
{
    char buffer[64];
    std::snprintf(buffer, sizeof buffer, "%.10g", value);
    return buffer;
}

bool
legalNameChar(char c)
{
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9') || c == '_' || c == ':';
}

/** HELP text may not contain newlines or stray backslashes. */
std::string
escapeHelp(std::string_view text)
{
    std::string out;
    out.reserve(text.size());
    for (char c : text) {
        if (c == '\\')
            out += "\\\\";
        else if (c == '\n')
            out += "\\n";
        else
            out += c;
    }
    return out;
}

void
writeHeader(std::ostream &out, const std::string &name,
            const char *kind, const std::string &original)
{
    out << "# HELP " << name << " lemons " << kind << " "
        << escapeHelp(original) << "\n";
    out << "# TYPE " << name << " " << kind << "\n";
}

} // namespace

std::string
prometheusName(std::string_view name)
{
    std::string out;
    out.reserve(name.size() + 1);
    if (!name.empty() && name.front() >= '0' && name.front() <= '9')
        out += '_';
    for (char c : name)
        out += legalNameChar(c) ? c : '_';
    return out;
}

std::string
toPrometheus(const Snapshot &snapshot)
{
    std::ostringstream out;
    for (const CounterSample &counter : snapshot.counters) {
        const std::string name =
            "lemons_" + prometheusName(counter.name);
        writeHeader(out, name, "counter", counter.name);
        out << name << " " << counter.value << "\n";
    }
    for (const TimerSample &timer : snapshot.timers) {
        const std::string name =
            "lemons_" + prometheusName(timer.name) + "_seconds";
        writeHeader(out, name, "summary", timer.name);
        out << name << "_sum "
            << formatDouble(static_cast<double>(timer.totalNs) * 1e-9)
            << "\n";
        out << name << "_count " << timer.count << "\n";
    }
    return out.str();
}

} // namespace lemons::obs
