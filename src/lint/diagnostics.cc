#include "lint/diagnostics.h"

#include <algorithm>
#include <sstream>
#include <string_view>

namespace lemons::lint {

const char *
severityName(Severity severity)
{
    switch (severity) {
    case Severity::Note:
        return "note";
    case Severity::Warning:
        return "warning";
    case Severity::Error:
        return "error";
    }
    return "unknown";
}

namespace {

/*
 * The registry's uniqueness contract: every row's id string must be
 * pairwise distinct across the L/V/C/A families. The enumerators
 * already cannot collide (the compiler rejects duplicate names), but
 * the id strings are free-form — this is what CI greps, EXPECT_CODES
 * lists, and suppression files match on, so a typo'd duplicate would
 * silently alias two rules. Checked at compile time.
 */
constexpr const char *kCodeIds[] = {
#define LEMONS_LINT_ID(code, id, severity, title) id,
    LEMONS_CODE_TABLE(LEMONS_LINT_ID)
#undef LEMONS_LINT_ID
};

constexpr bool
sameId(const char *a, const char *b)
{
    size_t i = 0;
    while (a[i] != '\0' && a[i] == b[i])
        ++i;
    return a[i] == b[i];
}

constexpr bool
codeIdsUnique()
{
    constexpr size_t n = sizeof(kCodeIds) / sizeof(kCodeIds[0]);
    for (size_t i = 0; i < n; ++i)
        for (size_t j = i + 1; j < n; ++j)
            if (sameId(kCodeIds[i], kCodeIds[j]))
                return false;
    return true;
}

static_assert(codeIdsUnique(),
              "diagnostic code ids must be unique across the "
              "L/V/C/A families (see lint/code_registry.h)");

} // namespace

const std::vector<CodeInfo> &
codeCatalog()
{
    static const std::vector<CodeInfo> catalog = {
#define LEMONS_LINT_ROW(code, id, severity, title)                           \
    CodeInfo{Code::code, id, Severity::severity, title},
        LEMONS_CODE_TABLE(LEMONS_LINT_ROW)
#undef LEMONS_LINT_ROW
    };
    return catalog;
}

const CodeInfo &
codeInfo(Code code)
{
    // Codes enumerate densely from 0 in table order.
    return codeCatalog()[static_cast<size_t>(code)];
}

std::string
printable(std::string_view text)
{
    static constexpr char kHex[] = "0123456789abcdef";
    std::string out;
    for (const char c : text) {
        const auto byte = static_cast<unsigned char>(c);
        if (byte < 0x20 || byte == 0x7f)
            out += {'\\', 'x', kHex[byte >> 4], kHex[byte & 0xf]};
        else
            out += c;
    }
    return out;
}

std::string
Diagnostic::format() const
{
    std::ostringstream out;
    if (!file.empty())
        out << file << ": ";
    out << "[" << id() << "] " << severityName(severity) << " " << object;
    if (!field.empty())
        out << "." << field;
    out << ": " << message;
    if (!hint.empty())
        out << " (fix: " << hint << ")";
    return printable(out.str());
}

void
Report::add(Code code, std::string object, std::string field,
            std::string message, std::string hint)
{
    Diagnostic d;
    d.code = code;
    d.severity = codeInfo(code).severity;
    d.object = std::move(object);
    d.field = std::move(field);
    d.message = std::move(message);
    d.hint = std::move(hint);
    items.push_back(std::move(d));
}

void
Report::merge(Report other)
{
    items.insert(items.end(),
                 std::make_move_iterator(other.items.begin()),
                 std::make_move_iterator(other.items.end()));
}

void
Report::setFile(const std::string &name)
{
    for (Diagnostic &d : items) {
        if (d.file.empty())
            d.file = name;
    }
}

bool
Report::hasErrors() const
{
    return errorCount() > 0;
}

size_t
Report::errorCount() const
{
    return static_cast<size_t>(
        std::count_if(items.begin(), items.end(), [](const Diagnostic &d) {
            return d.severity == Severity::Error;
        }));
}

size_t
Report::warningCount() const
{
    return static_cast<size_t>(
        std::count_if(items.begin(), items.end(), [](const Diagnostic &d) {
            return d.severity == Severity::Warning;
        }));
}

bool
Report::hasCode(Code code) const
{
    return std::any_of(items.begin(), items.end(), [code](
                                                       const Diagnostic &d) {
        return d.code == code;
    });
}

std::string
Report::format() const
{
    std::string out;
    for (const Diagnostic &d : items) {
        out += d.format();
        out += '\n';
    }
    return out;
}

namespace {

/** Exception message: the first error line (what() must be concise). */
std::string
firstErrorLine(const Report &report)
{
    for (const Diagnostic &d : report.diagnostics()) {
        if (d.severity == Severity::Error)
            return d.format();
    }
    return "lint error";
}

} // namespace

LintError::LintError(Report reported)
    : std::invalid_argument(firstErrorLine(reported)),
      findings(std::move(reported))
{
}

void
throwOnErrors(const Report &report)
{
    if (report.hasErrors())
        throw LintError(report);
}

} // namespace lemons::lint
