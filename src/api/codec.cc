#include "api/codec.h"

#include <optional>
#include <sstream>
#include <type_traits>
#include <utility>
#include <variant>

#include "lint/spec_file.h"
#include "obs/json.h"

namespace lemons::api {

namespace {

/** Envelope diagnostics: the analyze finding shape plus "file". */
void
writeEnvelopeDiagnostics(obs::JsonWriter &json,
                         const lint::Report &diagnostics)
{
    json.beginArray();
    for (const lint::Diagnostic &diagnostic : diagnostics.diagnostics()) {
        json.beginObject();
        json.key("code");
        json.value(diagnostic.id());
        json.key("severity");
        json.value(lint::severityName(diagnostic.severity));
        json.key("object");
        json.value(diagnostic.object);
        json.key("field");
        json.value(diagnostic.field);
        json.key("message");
        json.value(diagnostic.message);
        json.key("hint");
        json.value(diagnostic.hint);
        json.key("file");
        json.value(diagnostic.file);
        json.endObject();
    }
    json.endArray();
}

/** Fields every decoder shares: a member set with per-field checks. */
class FieldReader
{
  public:
    FieldReader(const JsonValue &root, std::string object,
                lint::Report &diagnostics)
        : value(root), name(std::move(object)), report(diagnostics)
    {
        if (!value.isObject()) {
            report.add(lint::Code::S002, name, "",
                       std::string("request body must be a JSON object, "
                                   "got ") +
                           value.kindName());
            failed = true;
        }
    }

    bool ok() const { return !failed; }

    /** Mark @p field as known; returns its value or nullptr. */
    const JsonValue *take(std::string_view field)
    {
        known.emplace_back(field);
        return value.find(field);
    }

    /** S002 for every member the decoder never asked about. */
    void rejectUnknown()
    {
        if (failed)
            return;
        for (const auto &[key, member] : value.members()) {
            static_cast<void>(member);
            bool recognized = false;
            for (const std::string &field : known)
                if (field == key)
                    recognized = true;
            if (!recognized) {
                report.add(lint::Code::S002, name, key,
                           "unknown request field \"" + key + "\"",
                           "remove it, or check the lemons-api/1 "
                           "schema for the spelling");
                failed = true;
            }
        }
    }

    void string(std::string_view field, std::string &out, bool required)
    {
        const JsonValue *member = take(field);
        if (member == nullptr) {
            if (required) {
                report.add(lint::Code::S002, name, std::string(field),
                           "required field is missing");
                failed = true;
            }
            return;
        }
        if (!member->isString()) {
            typeError(field, "a string", *member);
            return;
        }
        out = member->asString();
    }

    void number(std::string_view field, double &out)
    {
        const JsonValue *member = take(field);
        if (member == nullptr)
            return;
        if (!member->isNumber()) {
            typeError(field, "a number", *member);
            return;
        }
        out = member->asNumber();
    }

    void integer(std::string_view field, uint64_t &out)
    {
        const JsonValue *member = take(field);
        if (member == nullptr)
            return;
        uint64_t parsed = 0;
        if (!member->isNumber() || !member->asUint64(parsed)) {
            typeError(field, "a non-negative integer", *member);
            return;
        }
        out = parsed;
    }

    void optionalInteger(std::string_view field,
                         std::optional<uint64_t> &out)
    {
        const JsonValue *member = take(field);
        if (member == nullptr || member->isNull())
            return;
        uint64_t parsed = 0;
        if (!member->isNumber() || !member->asUint64(parsed)) {
            typeError(field, "a non-negative integer", *member);
            return;
        }
        out = parsed;
    }

    /** Read @p row's member by its field type; types with no JSON form
     *  stay unread, so rejectUnknown refuses them. */
    void field(const lint::KeyRow &row)
    {
        std::visit(
            [&](auto *out) {
                using Field = std::remove_pointer_t<decltype(out)>;
                if constexpr (std::is_same_v<Field, double>)
                    number(row.key, *out);
                else if constexpr (std::is_same_v<Field, uint64_t>)
                    integer(row.key, *out);
                else if constexpr (std::is_same_v<Field,
                                                  std::optional<uint64_t>>)
                    optionalInteger(row.key, *out);
            },
            row.field);
    }

    /** S011 unless lo <= value <= hi. */
    void requireRange(std::string_view field, double actual, double lo,
                      double hi)
    {
        if (actual >= lo && actual <= hi)
            return;
        std::ostringstream what;
        what << "value " << actual << " is outside [" << lo << ", " << hi
             << "]";
        report.add(lint::Code::S011, name, std::string(field),
                   what.str());
        failed = true;
    }

  private:
    void typeError(std::string_view field, const char *expected,
                   const JsonValue &member)
    {
        report.add(lint::Code::S002, name, std::string(field),
                   std::string("expected ") + expected + ", got " +
                       member.kindName());
        failed = true;
    }

    const JsonValue &value;
    std::string name;
    lint::Report &report;
    std::vector<std::string> known;
    bool failed = false;
};

} // namespace

std::string
renderEnvelope(const lint::Report &diagnostics, const ResultWriter &result)
{
    std::ostringstream out;
    obs::JsonWriter json(out);
    json.beginObject();
    json.key("schema");
    json.value(kApiSchema);
    json.key("ok");
    json.value(!diagnostics.hasErrors());
    json.key("diagnostics");
    writeEnvelopeDiagnostics(json, diagnostics);
    json.key("result");
    if (result)
        result(json);
    else
        json.null();
    json.endObject();
    out << '\n';
    return out.str();
}

bool
parseBody(std::string_view body, JsonValue &out,
          lint::Report &diagnostics)
{
    JsonParseResult parsed = parseJson(body);
    if (!parsed.ok) {
        std::ostringstream what;
        what << parsed.error << " (byte " << parsed.offset << ")";
        diagnostics.add(lint::Code::S001, "request", "", what.str());
        return false;
    }
    out = std::move(parsed.value);
    return true;
}

bool
parseSolveRequest(const JsonValue &root, SolveRequest &out,
                  lint::Report &diagnostics)
{
    SolveRequest decoded;
    core::DesignRequest &request = decoded.request;
    FieldReader fields(root, "SolveRequest", diagnostics);
    for (const lint::KeyRow &row : lint::keyTable(request))
        fields.field(row);
    fields.rejectUnknown();
    if (!fields.ok())
        return false;
    // Range rules beyond what the solver's own lint pass reports:
    // values the API refuses to even hand to the solver because they
    // would make it loop effectively forever.
    fields.requireRange("lab",
                        static_cast<double>(request.legitimateAccessBound),
                        1.0, 1e12);
    fields.requireRange("k_fraction", request.kFraction, 0.0, 1.0);
    if (!fields.ok())
        return false;
    out = std::move(decoded);
    return true;
}

bool
parseSpecRequest(const JsonValue &root, SpecRequest &out,
                 lint::Report &diagnostics)
{
    SpecRequest decoded;
    FieldReader fields(root, "SpecRequest", diagnostics);
    fields.string("spec", decoded.spec, /*required=*/true);
    fields.string("filename", decoded.filename, /*required=*/false);
    fields.rejectUnknown();
    if (!fields.ok())
        return false;
    out = std::move(decoded);
    return true;
}

bool
parseMcRunRequest(const JsonValue &root, McRunRequest &out,
                  lint::Report &diagnostics)
{
    McRunRequest decoded;
    FieldReader fields(root, "McRunRequest", diagnostics);
    fields.string("spec", decoded.spec, /*required=*/true);
    fields.string("filename", decoded.filename, /*required=*/false);
    fields.integer("trials", decoded.trials);
    fields.integer("seed", decoded.seed);
    uint64_t threads = decoded.threads;
    fields.integer("threads", threads);
    fields.rejectUnknown();
    if (!fields.ok())
        return false;
    fields.requireRange("trials", static_cast<double>(decoded.trials),
                        1.0, static_cast<double>(kMcMaxTrials));
    fields.requireRange("threads", static_cast<double>(threads), 1.0,
                        static_cast<double>(kMcMaxThreads));
    if (!fields.ok())
        return false;
    decoded.threads = static_cast<unsigned>(threads);
    out = std::move(decoded);
    return true;
}

void
writeDesignJson(obs::JsonWriter &json, const core::Design &design)
{
    json.beginObject();
    json.key("feasible");
    json.value(design.feasible);
    json.key("per_copy_bound");
    json.value(design.perCopyBound);
    json.key("width");
    json.value(design.width);
    json.key("threshold");
    json.value(design.threshold);
    json.key("copies");
    json.value(design.copies);
    json.key("total_devices");
    json.value(design.totalDevices);
    json.key("death_check_access");
    json.value(design.deathCheckAccess);
    json.key("reliability_at_bound");
    json.value(design.reliabilityAtBound);
    json.key("reliability_past_bound");
    json.value(design.reliabilityPastBound);
    json.key("expected_system_total");
    json.value(design.expectedSystemTotal);
    json.endObject();
}

void
writeMcStructureJson(obs::JsonWriter &json, const McStructureResult &result)
{
    json.beginObject();
    json.key("kind");
    json.value(result.kind);
    json.key("n");
    json.value(result.n);
    json.key("k");
    json.value(result.k);
    json.key("trials");
    json.value(result.trials);
    json.key("interrupted");
    json.value(result.interrupted);
    json.key("mean_accesses");
    json.value(result.meanAccesses);
    json.key("stddev_accesses");
    json.value(result.stddevAccesses);
    json.key("min_accesses");
    json.value(result.minAccesses);
    json.key("max_accesses");
    json.value(result.maxAccesses);
    json.endObject();
}

std::string
renderAnalysisEnvelope(const std::vector<analysis::AnalyzedFile> &files)
{
    lint::Report merged;
    size_t errors = 0;
    size_t warnings = 0;
    for (const analysis::AnalyzedFile &file : files) {
        errors += file.findings.errorCount();
        warnings += file.findings.warningCount();
        lint::Report copy = file.findings;
        copy.setFile(file.analysis.file);
        merged.merge(std::move(copy));
    }
    return renderEnvelope(merged, [&](obs::JsonWriter &json) {
        json.beginObject();
        json.key("files");
        json.beginArray();
        for (const analysis::AnalyzedFile &file : files)
            analysis::writeFileAnalysisJson(json, file);
        json.endArray();
        json.key("errors");
        json.value(static_cast<uint64_t>(errors));
        json.key("warnings");
        json.value(static_cast<uint64_t>(warnings));
        json.endObject();
    });
}

} // namespace lemons::api
