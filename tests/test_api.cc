/**
 * @file
 * Unit tests for the lemons::api facade: the strict JSON reader, the
 * lemons-api/1 envelope contract, the S-code request-error mapping,
 * and determinism of the solve/mc endpoints. The envelope checks
 * parse the rendered documents back through api::parseJson, so the
 * reader and writer halves are held to the same grammar.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <variant>
#include <vector>

#include "analysis/report.h"
#include "api/codec.h"
#include "api/json.h"
#include "api/service.h"
#include "api/types.h"
#include "lint/diagnostics.h"
#include "lint/spec_file.h"
#include "obs/json.h"
#include "obs/metrics.h"

namespace lemons::api {
namespace {

// ---------------------------------------------------------------------------
// JSON reader: strictness

TEST(ApiJson, ParsesScalarsAndStructure)
{
    JsonParseResult result = parseJson(
        R"({"a": [1, 2.5, -3e2], "b": {"c": null, "d": true}, "e": "x"})");
    ASSERT_TRUE(result.ok) << result.error;
    const JsonValue &root = result.value;
    ASSERT_TRUE(root.isObject());
    const JsonValue *a = root.find("a");
    ASSERT_NE(a, nullptr);
    ASSERT_TRUE(a->isArray());
    ASSERT_EQ(a->items().size(), 3u);
    EXPECT_DOUBLE_EQ(a->items()[0].asNumber(), 1.0);
    EXPECT_DOUBLE_EQ(a->items()[1].asNumber(), 2.5);
    EXPECT_DOUBLE_EQ(a->items()[2].asNumber(), -300.0);
    const JsonValue *d = root.find("b")->find("d");
    ASSERT_NE(d, nullptr);
    EXPECT_TRUE(d->asBool());
    EXPECT_TRUE(root.find("b")->find("c")->isNull());
    EXPECT_EQ(root.find("e")->asString(), "x");
    EXPECT_EQ(root.find("missing"), nullptr);
}

TEST(ApiJson, DecodesEscapesIncludingSurrogatePairs)
{
    // \u00e9 is two UTF-8 bytes; \uD83D\uDE00 is a surrogate pair
    // for U+1F600, four UTF-8 bytes.
    JsonParseResult result =
        parseJson(R"("a\"b\\c\n\u00e9\uD83D\uDE00")");
    ASSERT_TRUE(result.ok) << result.error;
    EXPECT_EQ(result.value.asString(),
              "a\"b\\c\n\xC3\xA9\xF0\x9F\x98\x80");
    // A lone surrogate half is not a code point.
    EXPECT_FALSE(parseJson(R"("\uD83D")").ok);
}

TEST(ApiJson, RejectsIllFormedUtf8)
{
    // Raw bytes in a string must be well-formed UTF-8 (RFC 3629).
    EXPECT_TRUE(parseJson("\"\xC3\xA9\xE2\x82\xAC\xF0\x9F\x98\x80\"").ok);
    for (const char *bad :
         {"\"\x80\"", "\"\xFF\"", "\"\xC3\"", "\"\xC0\xAF\"",
          "\"\xE0\x80\xAF\"", "\"\xED\xA0\x80\"", "\"\xF4\x90\x80\x80\"",
          "\"\xF5\x80\x80\x80\""}) {
        const JsonParseResult result = parseJson(bad);
        EXPECT_FALSE(result.ok) << bad;
        EXPECT_EQ(result.offset, 1u) << bad;
    }
}

TEST(ApiJson, RejectsDuplicateKeys)
{
    // Last-wins duplicate handling is an injection hazard for a
    // security-facing API, so duplicates are a hard parse error.
    JsonParseResult result = parseJson(R"({"a": 1, "a": 2})");
    EXPECT_FALSE(result.ok);
    EXPECT_NE(result.error.find("duplicate"), std::string::npos);
}

TEST(ApiJson, RejectsTrailingBytes)
{
    EXPECT_FALSE(parseJson("{} {}").ok);
    EXPECT_FALSE(parseJson("1 2").ok);
    EXPECT_TRUE(parseJson("{}  \n").ok);
}

TEST(ApiJson, RejectsLenientExtensions)
{
    EXPECT_FALSE(parseJson("{'a': 1}").ok);       // single quotes
    EXPECT_FALSE(parseJson("{a: 1}").ok);         // unquoted key
    EXPECT_FALSE(parseJson("[1, 2,]").ok);        // trailing comma
    EXPECT_FALSE(parseJson("// c\n1").ok);        // comments
    EXPECT_FALSE(parseJson("NaN").ok);            // non-finite literal
    EXPECT_FALSE(parseJson("[01]").ok);           // leading zero
    EXPECT_FALSE(parseJson("[1.]").ok);           // bare trailing dot
    EXPECT_FALSE(parseJson("\"tab\tinside\"").ok); // raw control char
    EXPECT_FALSE(parseJson("").ok);
}

TEST(ApiJson, EnforcesDepthLimit)
{
    std::string deep;
    for (int i = 0; i < 100; ++i)
        deep += '[';
    for (int i = 0; i < 100; ++i)
        deep += ']';
    EXPECT_FALSE(parseJson(deep).ok);
    EXPECT_TRUE(parseJson(deep, 128).ok);
}

TEST(ApiJson, ReportsErrorOffset)
{
    const JsonParseResult result = parseJson(R"({"a": tru})");
    ASSERT_FALSE(result.ok);
    EXPECT_GE(result.offset, 6u);
    EXPECT_FALSE(result.error.empty());
}

TEST(ApiJson, Uint64ExactnessBoundary)
{
    uint64_t out = 0;
    EXPECT_TRUE(parseJson("9007199254740991").value.asUint64(out));
    EXPECT_EQ(out, (uint64_t{1} << 53) - 1);
    EXPECT_FALSE(parseJson("-1").value.asUint64(out));
    EXPECT_FALSE(parseJson("1.5").value.asUint64(out));
    EXPECT_FALSE(parseJson("1e300").value.asUint64(out));
    EXPECT_FALSE(parseJson("\"7\"").value.asUint64(out));
}

// ---------------------------------------------------------------------------
// Envelope contract

/** Parse an envelope body and assert the lemons-api/1 invariants. */
JsonValue
parseEnvelope(const std::string &body)
{
    JsonParseResult parsed = parseJson(body);
    EXPECT_TRUE(parsed.ok) << parsed.error << "\nbody: " << body;
    const JsonValue &root = parsed.value;
    EXPECT_TRUE(root.isObject());
    const JsonValue *schema = root.find("schema");
    EXPECT_NE(schema, nullptr);
    if (schema != nullptr) {
        EXPECT_EQ(schema->asString(), kApiSchema);
    }
    EXPECT_NE(root.find("ok"), nullptr);
    const JsonValue *diagnostics = root.find("diagnostics");
    EXPECT_NE(diagnostics, nullptr);
    if (diagnostics != nullptr) {
        EXPECT_TRUE(diagnostics->isArray());
    }
    EXPECT_NE(root.find("result"), nullptr);
    return std::move(parsed.value);
}

/** First diagnostic code in an envelope ("" when none). */
std::string
firstCode(const JsonValue &envelope)
{
    const JsonValue *diagnostics = envelope.find("diagnostics");
    if (diagnostics == nullptr || diagnostics->items().empty())
        return "";
    const JsonValue *code = diagnostics->items()[0].find("code");
    return code == nullptr ? "" : code->asString();
}

/** Whether any envelope diagnostic carries @p code. */
bool
hasCode(const JsonValue &envelope, std::string_view code)
{
    const JsonValue *diagnostics = envelope.find("diagnostics");
    if (diagnostics == nullptr)
        return false;
    for (const JsonValue &finding : diagnostics->items()) {
        const JsonValue *member = finding.find("code");
        if (member != nullptr && member->asString() == code)
            return true;
    }
    return false;
}

TEST(ApiEnvelope, CleanReportRendersOkTrueNullResult)
{
    const lint::Report report;
    const std::string body = renderEnvelope(report);
    const JsonValue envelope = parseEnvelope(body);
    EXPECT_TRUE(envelope.find("ok")->asBool());
    EXPECT_TRUE(envelope.find("result")->isNull());
    EXPECT_EQ(envelope.find("diagnostics")->items().size(), 0u);
    EXPECT_EQ(body.back(), '\n');
}

TEST(ApiEnvelope, DiagnosticsCarryTheFullFindingShape)
{
    lint::Report report;
    report.add(lint::Code::S011, "request", "trials", "out of range",
               "use fewer trials");
    const JsonValue envelope = parseEnvelope(renderEnvelope(report));
    EXPECT_FALSE(envelope.find("ok")->asBool());
    const JsonValue &finding =
        envelope.find("diagnostics")->items().at(0);
    EXPECT_EQ(finding.find("code")->asString(), "S011");
    EXPECT_EQ(finding.find("severity")->asString(), "error");
    EXPECT_EQ(finding.find("object")->asString(), "request");
    EXPECT_EQ(finding.find("field")->asString(), "trials");
    EXPECT_EQ(finding.find("message")->asString(), "out of range");
    EXPECT_EQ(finding.find("hint")->asString(), "use fewer trials");
    ASSERT_NE(finding.find("file"), nullptr);
}

// ---------------------------------------------------------------------------
// Service endpoints: S-code mapping

TEST(ApiService, MalformedBodyMapsToS001And400)
{
    const Service service;
    const ServiceResult result = service.solve("{not json");
    EXPECT_EQ(result.status, 400);
    EXPECT_FALSE(result.ok);
    EXPECT_EQ(firstCode(parseEnvelope(result.body)), "S001");
}

TEST(ApiService, IllFormedUtf8MapsToS001And400)
{
    // The spec "[\xFF\xFE]" is not UTF-8: refused before any lint runs.
    const Service service;
    for (const std::string_view body :
         {R"({"spec": "[)" "\xFF\xFE" R"(]"})",
          R"({"spec": "x", "filename": ")" "\xC0\xAF" R"("})"}) {
        const ServiceResult result = service.lint(body);
        EXPECT_EQ(result.status, 400);
        EXPECT_FALSE(result.ok);
        EXPECT_EQ(firstCode(parseEnvelope(result.body)), "S001");
    }
}

TEST(ApiService, NonObjectRootMapsToS001Family)
{
    const Service service;
    const ServiceResult result = service.solve("[1,2,3]");
    EXPECT_EQ(result.status, 400);
    EXPECT_FALSE(result.ok);
}

TEST(ApiService, UnknownMemberMapsToS002)
{
    const Service service;
    const ServiceResult result = service.solve(R"({"alfa": 0.5})");
    EXPECT_EQ(result.status, 400);
    EXPECT_EQ(firstCode(parseEnvelope(result.body)), "S002");
}

TEST(ApiService, WrongTypeMapsToS002)
{
    const Service service;
    const ServiceResult result =
        service.lint(R"({"spec": 12})");
    EXPECT_EQ(result.status, 400);
    EXPECT_EQ(firstCode(parseEnvelope(result.body)), "S002");
}

TEST(ApiService, OutOfRangeValueMapsToS011)
{
    const Service service;
    const ServiceResult result = service.mcRun(
        R"({"spec": "x", "trials": 99999999})");
    EXPECT_EQ(result.status, 400);
    EXPECT_EQ(firstCode(parseEnvelope(result.body)), "S011");
}

TEST(ApiService, McRunWithoutStructuresMapsToS010And422)
{
    const Service service;
    const ServiceResult result = service.mcRun(R"({"spec": ""})");
    EXPECT_EQ(result.status, 422);
    EXPECT_FALSE(result.ok);
    EXPECT_TRUE(hasCode(parseEnvelope(result.body), "S010"));
}

TEST(ApiService, BrokenSpecIsProcessedNotRejected)
{
    // Analysis findings are the *payload* of a lint request: the
    // transport status stays 200 and only the envelope's ok drops.
    // k > n trips the L202 design rule.
    const Service service;
    const ServiceResult result = service.lint(
        R"({"spec": "[structure]\nkind = parallel\nn = 2\nk = 5\n"})");
    EXPECT_EQ(result.status, 200);
    EXPECT_FALSE(result.ok);
    const JsonValue envelope = parseEnvelope(result.body);
    EXPECT_FALSE(envelope.find("ok")->asBool());
    EXPECT_TRUE(hasCode(envelope, "L202"));
}

// ---------------------------------------------------------------------------
// Service endpoints: results and determinism

// The paper's smartphone-unlock operating point (Fig 4): 10-cycle
// beta = 12 devices against a 91,250-access LAB.
constexpr const char *kSolveBody =
    R"({"alpha": 10, "beta": 12, "lab": 91250, "k_fraction": 0.1,)"
    R"( "min_reliability": 0.99})";

TEST(ApiService, SolveReturnsDesignResult)
{
    const Service service;
    const ServiceResult result = service.solve(kSolveBody);
    ASSERT_EQ(result.status, 200) << result.body;
    EXPECT_TRUE(result.ok);
    const JsonValue envelope = parseEnvelope(result.body);
    const JsonValue *design = envelope.find("result");
    ASSERT_TRUE(design->isObject());
    for (const char *key :
         {"feasible", "per_copy_bound", "width", "threshold", "copies",
          "total_devices", "death_check_access", "reliability_at_bound",
          "reliability_past_bound", "expected_system_total"})
        EXPECT_NE(design->find(key), nullptr) << key;
    EXPECT_TRUE(design->find("feasible")->asBool());
}

TEST(ApiService, SolveIsDeterministic)
{
    const Service service;
    EXPECT_EQ(service.solve(kSolveBody).body,
              service.solve(kSolveBody).body);
}

/** Every field of @p request, written out by hand. */
std::string
describeRequest(const core::DesignRequest &request)
{
    std::ostringstream text;
    text.precision(17);
    text << request.device.alpha << ' ' << request.device.beta << ' '
         << request.legitimateAccessBound << ' ' << request.kFraction << ' '
         << request.criteria.minReliability << ' '
         << request.criteria.maxResidualReliability << ' '
         << (request.upperBoundTarget
                 ? std::to_string(*request.upperBoundTarget)
                 : "unset")
         << ' ' << request.maxWidth << ' ' << request.maxPerCopyBound;
    return text.str();
}

TEST(ApiService, SolveReadsTheDesignKeyTable)
{
    // For each [design] request key, /v1/solve and the .lemons reader
    // decode the same value into the same DesignRequest field.
    core::DesignRequest defaults;
    const std::vector<lint::KeyRow> rows = lint::keyTable(defaults);
    ASSERT_EQ(rows.size(), 9u);
    for (const lint::KeyRow &row : rows) {
        const std::string key(row.key);
        const char *value =
            std::holds_alternative<double *>(row.field) ? "0.4375" : "4242";
        lint::Report diagnostics;
        JsonValue root;
        SolveRequest fromJson;
        ASSERT_TRUE(parseBody("{\"" + key + "\": " + value + "}", root,
                              diagnostics));
        ASSERT_TRUE(parseSolveRequest(root, fromJson, diagnostics))
            << key << "\n" << diagnostics.format();

        lint::Report report;
        const lint::ParsedSpec spec = lint::parseSpec(
            "[design]\n" + key + " = " + value + "\n", "f", report);
        ASSERT_EQ(spec.designs.size(), 1u) << key << report.format();
        EXPECT_EQ(describeRequest(fromJson.request),
                  describeRequest(spec.designs[0].request))
            << key;
        EXPECT_NE(describeRequest(fromJson.request),
                  describeRequest(defaults))
            << key;

        // A wrong JSON type is S002 on exactly that field.
        const ServiceResult wrong =
            Service().solve("{\"" + key + "\": \"x\"}");
        EXPECT_EQ(wrong.status, 400) << key;
        const JsonValue envelope = parseEnvelope(wrong.body);
        EXPECT_EQ(firstCode(envelope), "S002") << key;
        EXPECT_EQ(envelope.find("diagnostics")->items()[0].find("field")
                      ->asString(),
                  key);
    }
    // The lint-only keys are not solve request fields.
    EXPECT_EQ(firstCode(parseEnvelope(
                  Service().solve(R"({"guess_space": 1e6})").body)),
              "S002");
}

TEST(ApiService, SolveRefusesWorkPastTheLimitBeforeSolving)
{
    // alpha 1e7 over a 1e12 LAB scans 3e7 per-copy bounds: L015, with
    // no solve run, on /v1/solve and on the spec endpoints alike.
    const obs::Counter &solves =
        obs::Registry::global().counter("core.solver.solves");
    const uint64_t before = solves.get();
    const Service service;
    const ServiceResult solved = service.solve(
        R"({"alpha": 1e7, "lab": 1000000000000, "k_fraction": 0.2})");
    EXPECT_EQ(solved.status, 200);
    EXPECT_FALSE(solved.ok);
    EXPECT_EQ(firstCode(parseEnvelope(solved.body)), "L015");
    const std::string spec =
        R"({"spec": "[design]\nalpha = 1e7\nlab = 1e12\nk_fraction = 0.2\n)"
        R"(upper_bound_target = 2e12\n"})";
    for (const ServiceResult &checked :
         {service.verify(spec), service.analyze(spec)}) {
        EXPECT_FALSE(checked.ok);
        const JsonValue envelope = parseEnvelope(checked.body);
        EXPECT_TRUE(hasCode(envelope, "L015")) << checked.body;
        EXPECT_TRUE(hasCode(envelope, "V901")) << checked.body;
    }
    EXPECT_EQ(solves.get(), before);
}

std::string
mcBody(uint64_t seed, unsigned threads)
{
    return std::string("{\"spec\": \"") +
           "[structure]\\nkind = parallel\\nn = 8\\nk = 2\\n"
           "alpha = 100\\nbeta = 2.0\\n" +
           "\", \"trials\": 512, \"seed\": " + std::to_string(seed) +
           ", \"threads\": " + std::to_string(threads) + "}";
}

TEST(ApiService, McRunReturnsStructureStatistics)
{
    const Service service;
    const ServiceResult result = service.mcRun(mcBody(7, 1));
    ASSERT_EQ(result.status, 200) << result.body;
    const JsonValue envelope = parseEnvelope(result.body);
    const JsonValue *mc = envelope.find("result");
    ASSERT_TRUE(mc->isObject());
    uint64_t trials = 0;
    ASSERT_TRUE(mc->find("trials_requested")->asUint64(trials));
    EXPECT_EQ(trials, 512u);
    EXPECT_FALSE(mc->find("interrupted")->asBool());
    const JsonValue *structures = mc->find("structures");
    ASSERT_TRUE(structures->isArray());
    ASSERT_EQ(structures->items().size(), 1u);
    const JsonValue &first = structures->items()[0];
    EXPECT_EQ(first.find("kind")->asString(), "parallel");
    EXPECT_GT(first.find("mean_accesses")->asNumber(), 0.0);
    EXPECT_GE(first.find("max_accesses")->asNumber(),
              first.find("min_accesses")->asNumber());
}

TEST(ApiService, McRunSeedAndThreadInvariance)
{
    // Same seed -> bit-identical body; the engine's counter-based
    // streams also make the statistics thread-count invariant.
    const Service service;
    const std::string one = service.mcRun(mcBody(7, 1)).body;
    EXPECT_EQ(one, service.mcRun(mcBody(7, 1)).body);
    EXPECT_EQ(one, service.mcRun(mcBody(7, 4)).body);
    EXPECT_NE(one, service.mcRun(mcBody(8, 1)).body);
}

/** An mc/run body over one parallel [structure] of width @p n. */
std::string
mcWideBody(uint64_t n, uint64_t k, const std::string &trials)
{
    return std::string("{\"spec\": \"") +
           "[structure]\\nkind = parallel\\nn = " + std::to_string(n) +
           "\\nk = " + std::to_string(k) +
           "\\nalpha = 10\\nbeta = 12\\n\"" + trials + "}";
}

TEST(ApiService, McRunRefusesOversizedBankBeforeRunning)
{
    // At the default 4,096 trials this bank would hold a worker for
    // about 20 minutes, in one wave that never polls the deadline.
    const Service service;
    const obs::Counter &trialsRun =
        obs::Registry::global().counter("sim.mc.trials");
    const uint64_t before = trialsRun.get();
    const ServiceResult result =
        service.mcRun(mcWideBody(100000000, 1, ""));
    EXPECT_EQ(result.status, 400) << result.body;
    EXPECT_FALSE(result.ok);
    EXPECT_TRUE(hasCode(parseEnvelope(result.body), "S011"));
    EXPECT_EQ(trialsRun.get(), before);
}

TEST(ApiService, McRunBoundsTrialsTimesWidth)
{
    // 2^22 devices x 1,025 trials is one trial over the 2^32 device
    // draws a request may ask for; 1,024 trials would be exactly at it.
    const Service service;
    const ServiceResult over =
        service.mcRun(mcWideBody(kMcMaxWidth, 1, ", \"trials\": 1025"));
    EXPECT_EQ(over.status, 400) << over.body;
    EXPECT_TRUE(hasCode(parseEnvelope(over.body), "S011"));
    // One device wider than the limit is refused at a single trial.
    const ServiceResult wide = service.mcRun(
        mcWideBody(kMcMaxWidth + 1, 1, ", \"trials\": 1"));
    EXPECT_EQ(wide.status, 400) << wide.body;
    EXPECT_TRUE(hasCode(parseEnvelope(wide.body), "S011"));
    // The end-to-end benchmark's shape still runs.
    const ServiceResult paper =
        service.mcRun(mcWideBody(1000, 100, ", \"trials\": 4096"));
    EXPECT_EQ(paper.status, 200) << paper.body;
    EXPECT_TRUE(paper.ok);
}

// ---------------------------------------------------------------------------
// One spec check behind the CLI and the daemon

/** The shipped configs and seeded violations, relative to the tree. */
constexpr const char *kConfigs[] = {
    "fault_baseline.lemons",
    "fleet_smartphone.lemons",
    "otp_messaging.lemons",
    "paper_defaults.lemons",
    "smartphone_unlock.lemons",
    "targeting_mission.lemons",
    "violations/budget_exhaustion.lemons",
    "violations/dead_wear.lemons",
    "violations/guessing_adversary.lemons",
    "violations/infeasible_bound.lemons",
    "violations/premature_fleet.lemons",
    "violations/secret_leak.lemons",
    "violations/unbounded_wearout.lemons",
};

TEST(ApiService, AnalyzeBodyIsTheCliJsonDocument)
{
    // `lemons-lint --json` renders analysis::checkSpecFile at analyze
    // depth; POST /v1/analyze must answer the same bytes for the same
    // spec and file name.
    const Service service;
    for (const char *name : kConfigs) {
        SCOPED_TRACE(name);
        std::ifstream in(std::string(LEMONS_CONFIG_DIR) + "/" + name);
        ASSERT_TRUE(in);
        std::ostringstream text;
        text << in.rdbuf();
        const std::string body = "{\"spec\":\"" +
            obs::jsonEscape(text.str()) + "\",\"filename\":\"" + name +
            "\"}";

        const ServiceResult served = service.analyze(body);
        const analysis::AnalyzedFile checked = analysis::checkSpec(
            text.str(), name, analysis::CheckDepth::Analyze);
        EXPECT_EQ(served.status, 200);
        EXPECT_EQ(served.ok, !checked.findings.hasErrors());
        EXPECT_EQ(served.body, renderAnalysisEnvelope({checked}));
    }
}

TEST(ApiEnvelope, IllFormedSpecBytesStayValidJson)
{
    // A spec read from disk need not be UTF-8; its bytes reach the
    // L903 message and must still render a document parseJson takes.
    const analysis::AnalyzedFile checked = analysis::checkSpec(
        "[\xFF\xFE]\n", "bad.lemons", analysis::CheckDepth::Analyze);
    ASSERT_TRUE(checked.findings.hasCode(lint::Code::L903));
    EXPECT_TRUE(hasCode(parseEnvelope(renderAnalysisEnvelope({checked})),
                        "L903"));
}

} // namespace
} // namespace lemons::api
