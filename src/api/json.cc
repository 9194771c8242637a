#include "api/json.h"

#include <cmath>
#include <cstdlib>

#include "obs/json.h"

namespace lemons::api {

const char *
JsonValue::kindName() const
{
    switch (tag) {
    case Kind::Null:
        return "null";
    case Kind::Bool:
        return "bool";
    case Kind::Number:
        return "number";
    case Kind::String:
        return "string";
    case Kind::Array:
        return "array";
    case Kind::Object:
        return "object";
    }
    return "unknown";
}

const JsonValue *
JsonValue::find(std::string_view key) const
{
    if (tag != Kind::Object)
        return nullptr;
    for (const auto &[name, value] : fields)
        if (name == key)
            return &value;
    return nullptr;
}

bool
JsonValue::asUint64(uint64_t &out) const
{
    if (tag != Kind::Number || !std::isfinite(number) || number < 0.0)
        return false;
    if (number != std::floor(number))
        return false;
    // 2^53 is the last double-exact integer boundary.
    if (number > 9007199254740992.0)
        return false;
    out = static_cast<uint64_t>(number);
    return true;
}

JsonValue
JsonValue::makeBool(bool v)
{
    JsonValue out;
    out.tag = Kind::Bool;
    out.boolean = v;
    return out;
}

JsonValue
JsonValue::makeNumber(double v)
{
    JsonValue out;
    out.tag = Kind::Number;
    out.number = v;
    return out;
}

JsonValue
JsonValue::makeString(std::string v)
{
    JsonValue out;
    out.tag = Kind::String;
    out.text = std::move(v);
    return out;
}

JsonValue
JsonValue::makeArray(std::vector<JsonValue> v)
{
    JsonValue out;
    out.tag = Kind::Array;
    out.children = std::move(v);
    return out;
}

JsonValue
JsonValue::makeObject(Members v)
{
    JsonValue out;
    out.tag = Kind::Object;
    out.fields = std::move(v);
    return out;
}

namespace {

/** Recursive-descent parser state over the input bytes. */
class Parser
{
  public:
    Parser(std::string_view input, size_t maxDepth)
        : text(input), depthLimit(maxDepth)
    {
    }

    JsonParseResult run()
    {
        JsonParseResult result;
        skipWhitespace();
        if (!parseValue(result.value, 0)) {
            result.error = message;
            result.offset = errorAt;
            return result;
        }
        skipWhitespace();
        if (pos != text.size()) {
            result.error = "trailing bytes after the JSON value";
            result.offset = pos;
            return result;
        }
        result.ok = true;
        return result;
    }

  private:
    bool fail(const std::string &what)
    {
        // Keep the first (innermost) failure; outer frames re-fail as
        // the recursion unwinds and must not clobber the real cause.
        if (message.empty()) {
            message = what;
            errorAt = pos;
        }
        return false;
    }

    bool atEnd() const { return pos >= text.size(); }
    char peek() const { return text[pos]; }

    void skipWhitespace()
    {
        while (!atEnd()) {
            const char c = text[pos];
            if (c != ' ' && c != '\t' && c != '\n' && c != '\r')
                return;
            ++pos;
        }
    }

    bool consume(char expected)
    {
        if (atEnd() || text[pos] != expected)
            return fail(std::string("expected '") + expected + "'");
        ++pos;
        return true;
    }

    bool parseValue(JsonValue &out, size_t depth)
    {
        if (depth >= depthLimit)
            return fail("nesting deeper than the parser limit");
        if (atEnd())
            return fail("unexpected end of input");
        switch (peek()) {
        case '{':
            return parseObject(out, depth);
        case '[':
            return parseArray(out, depth);
        case '"': {
            std::string s;
            if (!parseString(s))
                return false;
            out = JsonValue::makeString(std::move(s));
            return true;
        }
        case 't':
            if (!literal("true"))
                return false;
            out = JsonValue::makeBool(true);
            return true;
        case 'f':
            if (!literal("false"))
                return false;
            out = JsonValue::makeBool(false);
            return true;
        case 'n':
            if (!literal("null"))
                return false;
            out = JsonValue::makeNull();
            return true;
        default:
            return parseNumber(out);
        }
    }

    bool literal(std::string_view word)
    {
        if (text.substr(pos, word.size()) != word)
            return fail("invalid literal");
        pos += word.size();
        return true;
    }

    bool parseObject(JsonValue &out, size_t depth)
    {
        ++pos; // '{'
        JsonValue::Members members;
        skipWhitespace();
        if (!atEnd() && peek() == '}') {
            ++pos;
            out = JsonValue::makeObject(std::move(members));
            return true;
        }
        for (;;) {
            skipWhitespace();
            std::string key;
            if (!parseString(key))
                return false;
            for (const auto &[existing, ignored] : members) {
                static_cast<void>(ignored);
                if (existing == key)
                    return fail("duplicate object key \"" + key + "\"");
            }
            skipWhitespace();
            if (!consume(':'))
                return false;
            skipWhitespace();
            JsonValue value;
            if (!parseValue(value, depth + 1))
                return false;
            members.emplace_back(std::move(key), std::move(value));
            skipWhitespace();
            if (atEnd())
                return fail("unterminated object");
            if (peek() == ',') {
                ++pos;
                continue;
            }
            if (peek() == '}') {
                ++pos;
                out = JsonValue::makeObject(std::move(members));
                return true;
            }
            return fail("expected ',' or '}' in object");
        }
    }

    bool parseArray(JsonValue &out, size_t depth)
    {
        ++pos; // '['
        std::vector<JsonValue> items;
        skipWhitespace();
        if (!atEnd() && peek() == ']') {
            ++pos;
            out = JsonValue::makeArray(std::move(items));
            return true;
        }
        for (;;) {
            skipWhitespace();
            JsonValue value;
            if (!parseValue(value, depth + 1))
                return false;
            items.push_back(std::move(value));
            skipWhitespace();
            if (atEnd())
                return fail("unterminated array");
            if (peek() == ',') {
                ++pos;
                continue;
            }
            if (peek() == ']') {
                ++pos;
                out = JsonValue::makeArray(std::move(items));
                return true;
            }
            return fail("expected ',' or ']' in array");
        }
    }

    static void appendUtf8(std::string &out, uint32_t codepoint)
    {
        if (codepoint <= 0x7F) {
            out.push_back(static_cast<char>(codepoint));
        } else if (codepoint <= 0x7FF) {
            out.push_back(static_cast<char>(0xC0 | (codepoint >> 6)));
            out.push_back(static_cast<char>(0x80 | (codepoint & 0x3F)));
        } else if (codepoint <= 0xFFFF) {
            out.push_back(static_cast<char>(0xE0 | (codepoint >> 12)));
            out.push_back(
                static_cast<char>(0x80 | ((codepoint >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (codepoint & 0x3F)));
        } else {
            out.push_back(static_cast<char>(0xF0 | (codepoint >> 18)));
            out.push_back(
                static_cast<char>(0x80 | ((codepoint >> 12) & 0x3F)));
            out.push_back(
                static_cast<char>(0x80 | ((codepoint >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (codepoint & 0x3F)));
        }
    }

    bool parseHex4(uint32_t &out)
    {
        if (pos + 4 > text.size())
            return fail("truncated \\u escape");
        uint32_t value = 0;
        for (int i = 0; i < 4; ++i) {
            const char c = text[pos + static_cast<size_t>(i)];
            value <<= 4;
            if (c >= '0' && c <= '9')
                value |= static_cast<uint32_t>(c - '0');
            else if (c >= 'a' && c <= 'f')
                value |= static_cast<uint32_t>(c - 'a' + 10);
            else if (c >= 'A' && c <= 'F')
                value |= static_cast<uint32_t>(c - 'A' + 10);
            else
                return fail("invalid \\u escape digit");
        }
        pos += 4;
        out = value;
        return true;
    }

    bool parseString(std::string &out)
    {
        if (atEnd() || peek() != '"')
            return fail("expected string");
        ++pos;
        out.clear();
        while (!atEnd()) {
            const char c = text[pos];
            if (c == '"') {
                ++pos;
                return true;
            }
            if (static_cast<unsigned char>(c) < 0x20)
                return fail("raw control character in string");
            if (static_cast<unsigned char>(c) >= 0x80) {
                const size_t length =
                    obs::utf8SequenceLength(text.substr(pos));
                if (length == 0)
                    return fail("invalid UTF-8 in string");
                out.append(text.substr(pos, length));
                pos += length;
                continue;
            }
            if (c != '\\') {
                out.push_back(c);
                ++pos;
                continue;
            }
            ++pos;
            if (atEnd())
                return fail("truncated escape");
            const char esc = text[pos];
            ++pos;
            switch (esc) {
            case '"':
                out.push_back('"');
                break;
            case '\\':
                out.push_back('\\');
                break;
            case '/':
                out.push_back('/');
                break;
            case 'b':
                out.push_back('\b');
                break;
            case 'f':
                out.push_back('\f');
                break;
            case 'n':
                out.push_back('\n');
                break;
            case 'r':
                out.push_back('\r');
                break;
            case 't':
                out.push_back('\t');
                break;
            case 'u': {
                uint32_t unit = 0;
                if (!parseHex4(unit))
                    return false;
                if (unit >= 0xD800 && unit <= 0xDBFF) {
                    // High surrogate: a low surrogate must follow.
                    if (pos + 2 > text.size() || text[pos] != '\\' ||
                        text[pos + 1] != 'u')
                        return fail("unpaired high surrogate");
                    pos += 2;
                    uint32_t low = 0;
                    if (!parseHex4(low))
                        return false;
                    if (low < 0xDC00 || low > 0xDFFF)
                        return fail("invalid low surrogate");
                    const uint32_t codepoint = 0x10000 +
                        ((unit - 0xD800) << 10) + (low - 0xDC00);
                    appendUtf8(out, codepoint);
                } else if (unit >= 0xDC00 && unit <= 0xDFFF) {
                    return fail("unpaired low surrogate");
                } else {
                    appendUtf8(out, unit);
                }
                break;
            }
            default:
                return fail("unknown escape character");
            }
        }
        return fail("unterminated string");
    }

    bool parseNumber(JsonValue &out)
    {
        const size_t start = pos;
        if (!atEnd() && peek() == '-')
            ++pos;
        // RFC 8259 grammar: int frac? exp?, no leading zeros, no
        // leading '+', no bare '.'; strtod accepts more, so validate
        // the shape first and use strtod only for the value.
        if (atEnd() || peek() < '0' || peek() > '9')
            return fail("invalid number");
        if (peek() == '0') {
            ++pos;
        } else {
            while (!atEnd() && peek() >= '0' && peek() <= '9')
                ++pos;
        }
        if (!atEnd() && peek() == '.') {
            ++pos;
            if (atEnd() || peek() < '0' || peek() > '9')
                return fail("digit required after decimal point");
            while (!atEnd() && peek() >= '0' && peek() <= '9')
                ++pos;
        }
        if (!atEnd() && (peek() == 'e' || peek() == 'E')) {
            ++pos;
            if (!atEnd() && (peek() == '+' || peek() == '-'))
                ++pos;
            if (atEnd() || peek() < '0' || peek() > '9')
                return fail("digit required in exponent");
            while (!atEnd() && peek() >= '0' && peek() <= '9')
                ++pos;
        }
        const std::string token(text.substr(start, pos - start));
        const double value = std::strtod(token.c_str(), nullptr);
        if (!std::isfinite(value)) {
            pos = start;
            return fail("number out of double range");
        }
        out = JsonValue::makeNumber(value);
        return true;
    }

    std::string_view text;
    size_t pos = 0;
    size_t depthLimit;
    std::string message;
    size_t errorAt = 0;
};

} // namespace

JsonParseResult
parseJson(std::string_view text, size_t maxDepth)
{
    return Parser(text, maxDepth).run();
}

} // namespace lemons::api
