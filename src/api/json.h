/**
 * @file
 * Strict JSON reader for the lemons::api request surface.
 *
 * The obs layer already owns the *writer* half (obs::JsonWriter); this
 * is the missing reader half, sized for request bodies rather than
 * data lakes: a recursive-descent parser over an owned value tree with
 * a hard nesting limit, full-token validation (trailing bytes after
 * the root value are an error), and no implicit coercions — a caller
 * asks a value what it is before asking what it holds.
 *
 * Deliberately rejected inputs that "lenient" parsers wave through:
 * comments, trailing commas, unquoted keys, single quotes, NaN/Inf
 * literals, control characters inside strings, and duplicate object
 * keys (the last-wins behaviour of most parsers is an injection
 * hazard for a security-facing API, so duplicates are an error).
 */

#ifndef LEMONS_API_JSON_H_
#define LEMONS_API_JSON_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace lemons::api {

/** An owned, immutable-after-parse JSON value. */
class JsonValue
{
  public:
    enum class Kind { Null, Bool, Number, String, Array, Object };

    /** Ordered object members (insertion order, keys unique). */
    using Members = std::vector<std::pair<std::string, JsonValue>>;

    JsonValue() = default;

    Kind kind() const { return tag; }
    bool isNull() const { return tag == Kind::Null; }
    bool isBool() const { return tag == Kind::Bool; }
    bool isNumber() const { return tag == Kind::Number; }
    bool isString() const { return tag == Kind::String; }
    bool isArray() const { return tag == Kind::Array; }
    bool isObject() const { return tag == Kind::Object; }

    /** Human-readable kind name ("null", "bool", "number", ...). */
    const char *kindName() const;

    /** @pre isBool(). */
    bool asBool() const { return boolean; }
    /** @pre isNumber(). */
    double asNumber() const { return number; }
    /** @pre isString(). */
    const std::string &asString() const { return text; }
    /** @pre isArray(). */
    const std::vector<JsonValue> &items() const { return children; }
    /** @pre isObject(). */
    const Members &members() const { return fields; }

    /** Object member by key; nullptr when absent or not an object. */
    const JsonValue *find(std::string_view key) const;

    /**
     * Number as an exact unsigned integer: true only when the value is
     * a number that is finite, non-negative, integral, and below 2^53
     * (the largest range a JSON double carries exactly).
     */
    bool asUint64(uint64_t &out) const;

    // Construction is the parser's business, but tests build values too.
    static JsonValue makeNull() { return JsonValue(); }
    static JsonValue makeBool(bool v);
    static JsonValue makeNumber(double v);
    static JsonValue makeString(std::string v);
    static JsonValue makeArray(std::vector<JsonValue> v);
    static JsonValue makeObject(Members v);

  private:
    Kind tag = Kind::Null;
    bool boolean = false;
    double number = 0.0;
    std::string text;
    std::vector<JsonValue> children;
    Members fields;
};

/** Outcome of parseJson: the value, or where and why parsing failed. */
struct JsonParseResult
{
    bool ok = false;
    JsonValue value;
    /** Parse error description; empty on success. */
    std::string error;
    /** Byte offset of the error in the input; 0 on success. */
    size_t offset = 0;
};

/** Nesting limit guarding the recursive-descent stack. */
inline constexpr size_t kJsonMaxDepth = 64;

/**
 * Parse @p text as exactly one JSON value (any root kind). Strict:
 * \u escapes (including surrogate pairs) are decoded to UTF-8, raw
 * bytes in strings must be well-formed UTF-8 (obs::utf8SequenceLength),
 * anything outside RFC 8259 is an error, and bytes after the root
 * value (other than trailing whitespace) fail the parse.
 */
JsonParseResult parseJson(std::string_view text,
                          size_t maxDepth = kJsonMaxDepth);

} // namespace lemons::api

#endif // LEMONS_API_JSON_H_
