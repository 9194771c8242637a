/**
 * @file
 * Minimal streaming JSON writer.
 *
 * Backs the metrics-registry serialization and the benchmark harness's
 * BENCH_results.json. Emits strictly valid JSON: strings are escaped,
 * commas and nesting are managed by a state stack, and non-finite
 * doubles (which JSON cannot represent) become null.
 */

#ifndef LEMONS_OBS_JSON_H_
#define LEMONS_OBS_JSON_H_

#include <cstddef>
#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace lemons::obs {

/**
 * Escape @p text for inclusion inside a JSON string literal. A byte
 * that does not belong to a well-formed UTF-8 sequence is written as
 * \ufffd, so the document stays valid JSON whatever @p text holds.
 */
std::string jsonEscape(std::string_view text);

/**
 * Length of the well-formed UTF-8 sequence that starts @p text, or 0
 * when @p text is empty or starts with an ill-formed one: a stray
 * continuation byte, a truncated sequence, an overlong form, an
 * encoded surrogate (U+D800..U+DFFF) or a code point above U+10FFFF
 * (RFC 3629, section 4).
 */
size_t utf8SequenceLength(std::string_view text);

/**
 * Stack-based JSON emitter. Usage:
 *   JsonWriter json(out);
 *   json.beginObject();
 *   json.key("name"); json.value("weibull");
 *   json.key("reps"); json.beginArray();
 *   json.value(1.5); json.value(2.5); json.endArray();
 *   json.endObject();
 *
 * Misuse (value without key inside an object, unbalanced end calls)
 * trips a requireArg check rather than emitting broken JSON.
 */
class JsonWriter
{
  public:
    explicit JsonWriter(std::ostream &sink);

    /** Open / close a JSON object. */
    void beginObject();
    void endObject();

    /** Open / close a JSON array. */
    void beginArray();
    void endArray();

    /** Emit a member key; must be directly inside an object. */
    void key(std::string_view name);

    /** Emit a string value. */
    void value(std::string_view text);
    void value(const char *text) { value(std::string_view(text)); }

    /** Emit a number; non-finite doubles are emitted as null. */
    void value(double number);
    void value(uint64_t number);
    void value(int number);

    /** Emit a boolean. */
    void value(bool flag);

    /** Emit null. */
    void null();

    /** Whether every begin has been matched by an end. */
    bool complete() const { return stack.empty() && wroteRoot; }

  private:
    enum class Scope { Object, Array };

    /** Pre-value bookkeeping: comma placement and key/value pairing. */
    void onValue();

    std::ostream &out;
    struct Level
    {
        Scope scope;
        bool hasMembers = false;
        bool keyPending = false;
    };
    std::vector<Level> stack;
    bool wroteRoot = false;
};

} // namespace lemons::obs

#endif // LEMONS_OBS_JSON_H_
