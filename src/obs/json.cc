#include "obs/json.h"

#include <cmath>
#include <cstdio>
#include <limits>

#include "util/require.h"

namespace lemons::obs {

std::string
jsonEscape(std::string_view text)
{
    std::string out;
    out.reserve(text.size());
    for (size_t i = 0; i < text.size(); ++i) {
        const char c = text[i];
        switch (c) {
        case '"':
            out += "\\\"";
            break;
        case '\\':
            out += "\\\\";
            break;
        case '\b':
            out += "\\b";
            break;
        case '\f':
            out += "\\f";
            break;
        case '\n':
            out += "\\n";
            break;
        case '\r':
            out += "\\r";
            break;
        case '\t':
            out += "\\t";
            break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buffer[8];
                std::snprintf(buffer, sizeof buffer, "\\u%04x",
                              static_cast<unsigned>(
                                  static_cast<unsigned char>(c)));
                out += buffer;
            } else if (static_cast<unsigned char>(c) < 0x80) {
                out += c;
            } else if (const size_t length =
                           utf8SequenceLength(text.substr(i))) {
                out.append(text.substr(i, length));
                i += length - 1;
            } else {
                out += "\\ufffd";
            }
        }
    }
    return out;
}

size_t
utf8SequenceLength(std::string_view text)
{
    const auto at = [text](size_t i) {
        return static_cast<unsigned char>(text[i]);
    };
    if (text.empty())
        return 0;
    const unsigned lead = at(0);
    if (lead < 0x80)
        return 1;
    // RFC 3629 table: the lead byte fixes the length and the range of
    // the second byte, narrowed to exclude overlong forms (E0, F0),
    // encoded surrogates (ED) and code points above U+10FFFF (F4).
    const size_t length = lead < 0xC2 ? 0
        : lead < 0xE0                 ? 2
        : lead < 0xF0                 ? 3
        : lead < 0xF5                 ? 4
                                      : 0;
    const unsigned lo = lead == 0xE0 ? 0xA0 : lead == 0xF0 ? 0x90 : 0x80;
    const unsigned hi = lead == 0xED ? 0x9F : lead == 0xF4 ? 0x8F : 0xBF;
    if (length == 0 || text.size() < length || at(1) < lo || at(1) > hi)
        return 0;
    for (size_t i = 2; i < length; ++i)
        if ((at(i) & 0xC0) != 0x80)
            return 0;
    return length;
}

JsonWriter::JsonWriter(std::ostream &sink) : out(sink) {}

void
JsonWriter::onValue()
{
    requireArg(!wroteRoot || !stack.empty(),
               "JsonWriter: only one root value allowed");
    if (stack.empty()) {
        wroteRoot = true;
        return;
    }
    Level &level = stack.back();
    if (level.scope == Scope::Object) {
        requireArg(level.keyPending,
                   "JsonWriter: object member needs a key first");
        level.keyPending = false;
    } else {
        if (level.hasMembers)
            out << ',';
        level.hasMembers = true;
    }
}

void
JsonWriter::beginObject()
{
    onValue();
    out << '{';
    stack.push_back({Scope::Object});
}

void
JsonWriter::endObject()
{
    requireArg(!stack.empty() && stack.back().scope == Scope::Object &&
                   !stack.back().keyPending,
               "JsonWriter: mismatched endObject");
    stack.pop_back();
    out << '}';
}

void
JsonWriter::beginArray()
{
    onValue();
    out << '[';
    stack.push_back({Scope::Array});
}

void
JsonWriter::endArray()
{
    requireArg(!stack.empty() && stack.back().scope == Scope::Array,
               "JsonWriter: mismatched endArray");
    stack.pop_back();
    out << ']';
}

void
JsonWriter::key(std::string_view name)
{
    requireArg(!stack.empty() && stack.back().scope == Scope::Object,
               "JsonWriter: key outside of object");
    Level &level = stack.back();
    requireArg(!level.keyPending, "JsonWriter: key already pending");
    if (level.hasMembers)
        out << ',';
    level.hasMembers = true;
    level.keyPending = true;
    out << '"' << jsonEscape(name) << "\":";
}

void
JsonWriter::value(std::string_view text)
{
    onValue();
    out << '"' << jsonEscape(text) << '"';
}

void
JsonWriter::value(double number)
{
    if (!std::isfinite(number)) {
        null();
        return;
    }
    onValue();
    char buffer[40];
    std::snprintf(buffer, sizeof buffer, "%.*g",
                  std::numeric_limits<double>::max_digits10, number);
    out << buffer;
}

void
JsonWriter::value(uint64_t number)
{
    onValue();
    out << number;
}

void
JsonWriter::value(int number)
{
    onValue();
    out << number;
}

void
JsonWriter::value(bool flag)
{
    onValue();
    out << (flag ? "true" : "false");
}

void
JsonWriter::null()
{
    onValue();
    out << "null";
}

} // namespace lemons::obs
