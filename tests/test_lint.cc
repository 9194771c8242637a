/**
 * @file
 * The lemons::lint design-rule checker: every seeded-invalid spec must
 * fire its documented diagnostic code, clean paper-default specs must
 * stay silent, and the constructor wiring must keep throwing
 * std::invalid_argument (as LintError) where requireArg used to.
 */

#include <gtest/gtest.h>

#include <functional>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include "arch/structures.h"
#include "core/decision_tree.h"
#include "core/design_solver.h"
#include "fault/fault_plan.h"
#include "lint/diagnostics.h"
#include "lint/rules.h"
#include "lint/spec_file.h"

namespace lemons {
namespace {

using lint::Code;
using lint::Report;
using lint::Severity;

core::DesignRequest
paperRequest()
{
    core::DesignRequest request;
    request.device = {10.0, 12.0};
    request.legitimateAccessBound = 91250;
    request.kFraction = 0.1;
    return request;
}

core::OtpParams
paperOtp()
{
    core::OtpParams params;
    params.height = 8;
    params.copies = 128;
    params.threshold = 8;
    params.device = {10.0, 1.0};
    return params;
}

/** True when @p report contains @p code at error severity. */
bool
firesError(const Report &report, Code code)
{
    if (!report.hasCode(code))
        return false;
    for (const auto &d : report.diagnostics()) {
        if (d.code == code)
            return d.severity == Severity::Error;
    }
    return false;
}

// --- the seeded-invalid table -------------------------------------------

struct SeededInvalid
{
    const char *name;
    std::function<Report()> run;
    Code expected;
    Severity severity;
};

const SeededInvalid seededInvalidTable[] = {
    {"alpha zero",
     [] {
         auto r = paperRequest();
         r.device.alpha = 0.0;
         return lint::checkDesign(r);
     },
     Code::L001, Severity::Error},
    {"alpha infinite",
     [] {
         auto r = paperRequest();
         r.device.alpha = std::numeric_limits<double>::infinity();
         return lint::checkDesign(r);
     },
     Code::L001, Severity::Error},
    {"beta negative",
     [] {
         auto r = paperRequest();
         r.device.beta = -2.0;
         return lint::checkDesign(r);
     },
     Code::L002, Severity::Error},
    {"LAB zero",
     [] {
         auto r = paperRequest();
         r.legitimateAccessBound = 0;
         return lint::checkDesign(r);
     },
     Code::L003, Severity::Error},
    {"kFraction one",
     [] {
         auto r = paperRequest();
         r.kFraction = 1.0;
         return lint::checkDesign(r);
     },
     Code::L004, Severity::Error},
    {"minReliability at one",
     [] {
         auto r = paperRequest();
         r.criteria.minReliability = 1.0;
         return lint::checkDesign(r);
     },
     Code::L005, Severity::Error},
    {"residual at zero",
     [] {
         auto r = paperRequest();
         r.criteria.maxResidualReliability = 0.0;
         return lint::checkDesign(r);
     },
     Code::L006, Severity::Error},
    {"criteria inverted",
     [] {
         auto r = paperRequest();
         r.criteria.minReliability = 0.5;
         r.criteria.maxResidualReliability = 0.6;
         return lint::checkDesign(r);
     },
     Code::L007, Severity::Error},
    {"upper bound below LAB",
     [] {
         auto r = paperRequest();
         r.upperBoundTarget = r.legitimateAccessBound - 1;
         return lint::checkDesign(r);
     },
     Code::L008, Severity::Error},
    {"maxWidth zero",
     [] {
         auto r = paperRequest();
         r.maxWidth = 0;
         return lint::checkDesign(r);
     },
     Code::L009, Severity::Error},
    {"LAB exceeds guess space",
     [] {
         lint::DesignLintOptions options;
         options.guessSpace = 1e4; // 4-digit PIN vs LAB 91250
         return lint::checkDesign(paperRequest(), options);
     },
     Code::L010, Severity::Warning},
    {"LAB infeasible within maxWidth",
     [] {
         auto r = paperRequest();
         r.device = {2.0, 2.0}; // F(1) ~ 0.22 per device
         r.criteria.minReliability = 0.9999999;
         r.maxWidth = 5;
         return lint::checkDesign(r);
     },
     Code::L013, Severity::Warning},
    {"share threshold above count",
     [] {
         lint::ShareSpec s;
         s.shares = 10;
         s.threshold = 11; // k > n
         return lint::checkShares(s);
     },
     Code::L102, Severity::Error},
    {"shares beyond GF(256)",
     [] {
         lint::ShareSpec s;
         s.shares = 300;
         s.threshold = 30;
         return lint::checkShares(s);
     },
     Code::L103, Severity::Error},
    {"parallel k above n",
     [] {
         lint::StructureSpec s;
         s.n = 8;
         s.k = 9;
         return lint::checkStructure(s);
     },
     Code::L202, Severity::Error},
    {"empty series chain",
     [] {
         lint::StructureSpec s;
         s.kind = lint::StructureSpec::Kind::Series;
         s.n = 0;
         return lint::checkStructure(s);
     },
     Code::L201, Severity::Error},
    {"series explosion",
     [] {
         lint::StructureSpec s;
         s.kind = lint::StructureSpec::Kind::Series;
         s.n = 2'000'000;
         return lint::checkStructure(s);
     },
     Code::L204, Severity::Warning},
    {"otp height out of range",
     [] {
         auto p = paperOtp();
         p.height = 21;
         return lint::checkOtp(p);
     },
     Code::L301, Severity::Error},
    {"otp copies beyond Shamir",
     [] {
         auto p = paperOtp();
         p.copies = 256;
         p.threshold = 8;
         return lint::checkOtp(p);
     },
     Code::L305, Severity::Error},
    {"otp replayable alpha",
     [] {
         auto p = paperOtp();
         p.device.alpha = 1e6;
         return lint::checkOtp(p);
     },
     Code::L307, Severity::Warning},
    {"fault stuck-closed above one",
     [] {
         fault::FaultPlan plan;
         plan.stuckClosedRate = 1.5;
         return lint::checkFaultPlan(plan);
     },
     Code::L401, Severity::Error},
    {"fault negative drift",
     [] {
         fault::FaultPlan plan;
         plan.alphaDriftSigma = -0.1;
         return lint::checkFaultPlan(plan);
     },
     Code::L406, Severity::Error},
    {"fault stuck-closed implausible",
     [] {
         fault::FaultPlan plan;
         plan.stuckClosedRate = 0.3;
         return lint::checkFaultPlan(plan);
     },
     Code::L407, Severity::Warning},
    {"mway zero modules",
     [] {
         lint::MwaySpec s;
         s.m = 0;
         return lint::checkMway(s);
     },
     Code::L501, Severity::Error},
    {"mway infeasible module",
     [] {
         lint::MwaySpec s;
         s.m = 10;
         s.moduleFeasible = false;
         return lint::checkMway(s);
     },
     Code::L503, Severity::Error},
    {"structure reliability floor at one",
     [] {
         lint::StructureSpec s;
         s.n = 40;
         s.k = 4;
         s.minReliability = 1.0;
         return lint::checkStructure(s);
     },
     Code::L005, Severity::Error},
    {"structure criteria inverted",
     [] {
         lint::StructureSpec s;
         s.n = 40;
         s.k = 4;
         s.minReliability = 0.5;
         s.maxResidual = 0.6;
         return lint::checkStructure(s);
     },
     Code::L007, Severity::Error},
    {"workload zero mean",
     [] {
         lint::WorkloadSpec s;
         s.meanPerDay = 0.0;
         return lint::checkWorkload(s);
     },
     Code::L601, Severity::Error},
    {"workload burst probability above one",
     [] {
         lint::WorkloadSpec s;
         s.burstProbability = 1.5;
         return lint::checkWorkload(s);
     },
     Code::L602, Severity::Error},
    {"workload burst multiplier below one",
     [] {
         lint::WorkloadSpec s;
         s.burstMultiplier = 0.5;
         return lint::checkWorkload(s);
     },
     Code::L603, Severity::Error},
    {"workload budget below demand",
     [] {
         lint::WorkloadSpec s;
         s.meanPerDay = 50.0;
         s.budgetAccesses = 100;
         s.horizonDays = 365; // needs ~18k accesses
         return lint::checkWorkload(s);
     },
     Code::L604, Severity::Warning},
    {"workload burst dominated",
     [] {
         lint::WorkloadSpec s;
         s.burstProbability = 0.5;
         s.burstMultiplier = 10.0; // bursts carry ~91 % of demand
         return lint::checkWorkload(s);
     },
     Code::L605, Severity::Warning},
    {"mixture weight above one",
     [] {
         lint::MixtureSpec s;
         s.infantFraction = 1.5;
         return lint::checkMixture(s);
     },
     Code::L701, Severity::Error},
    {"mixture invalid infant alpha",
     [] {
         lint::MixtureSpec s;
         s.infantFraction = 0.05;
         s.infant.alpha = -1.0;
         return lint::checkMixture(s);
     },
     Code::L702, Severity::Error},
    {"mixture infant shape not infant",
     [] {
         lint::MixtureSpec s;
         s.infantFraction = 0.05;
         s.infant.beta = 2.0; // beta >= 1 is not an infant-mortality mode
         return lint::checkMixture(s);
     },
     Code::L703, Severity::Warning},
    {"mixture infant outlives main",
     [] {
         lint::MixtureSpec s;
         s.infantFraction = 0.05;
         s.infant.alpha = 20.0; // infant scale above the main mode
         s.main.alpha = 10.0;
         return lint::checkMixture(s);
     },
     Code::L704, Severity::Warning},
};

TEST(LintRules, SeededInvalidSpecsFireDocumentedCodes)
{
    for (const SeededInvalid &seeded : seededInvalidTable) {
        SCOPED_TRACE(seeded.name);
        const Report report = seeded.run();
        ASSERT_TRUE(report.hasCode(seeded.expected))
            << "expected " << lint::codeInfo(seeded.expected).id
            << ", got:\n"
            << report.format();
        for (const auto &d : report.diagnostics()) {
            if (d.code == seeded.expected) {
                EXPECT_EQ(d.severity, seeded.severity);
            }
        }
    }
}

TEST(LintRules, PaperDefaultsAreClean)
{
    EXPECT_TRUE(lint::checkDesign(paperRequest()).empty());
    EXPECT_TRUE(lint::checkOtp(paperOtp()).empty());
    EXPECT_TRUE(lint::checkFaultPlan(fault::FaultPlan::none()).empty());
    lint::StructureSpec parallel;
    parallel.n = 1000;
    parallel.k = 100;
    EXPECT_TRUE(lint::checkStructure(parallel).empty());
    lint::MwaySpec mway;
    mway.m = 10;
    mway.moduleDevices = 100'000;
    EXPECT_TRUE(lint::checkMway(mway).empty());
}

TEST(LintRules, GuessSpaceAboveBudgetIsClean)
{
    lint::DesignLintOptions options;
    options.guessSpace = 1e6;
    EXPECT_TRUE(lint::checkDesign(paperRequest(), options).empty());
}

TEST(LintRules, DiagnosticsCarryContext)
{
    auto request = paperRequest();
    request.kFraction = -0.5;
    const Report report = lint::checkDesign(request);
    ASSERT_EQ(report.errorCount(), 1u);
    const auto &d = report.diagnostics().front();
    EXPECT_STREQ(d.id(), "L004");
    EXPECT_EQ(d.object, "DesignRequest");
    EXPECT_EQ(d.field, "kFraction");
    EXPECT_FALSE(d.hint.empty());
    EXPECT_NE(d.format().find("[L004]"), std::string::npos);
}

TEST(LintRules, CatalogIsDenseAndStable)
{
    const auto &catalog = lint::codeCatalog();
    ASSERT_FALSE(catalog.empty());
    for (size_t i = 0; i < catalog.size(); ++i)
        EXPECT_EQ(static_cast<size_t>(catalog[i].code), i);
    EXPECT_STREQ(lint::codeInfo(Code::L001).id, "L001");
    EXPECT_STREQ(lint::codeInfo(Code::L906).id, "L906");
}

TEST(LintRules, CatalogCoversAllFiveFamilies)
{
    // One representative per family; the tidy plugin's T-codes draw
    // from the same registry the CLI catalogs, so a missing family
    // here means --codes no longer prints from one source of truth.
    EXPECT_STREQ(lint::codeInfo(Code::V001).id, "V001");
    EXPECT_STREQ(lint::codeInfo(Code::C101).id, "C101");
    EXPECT_STREQ(lint::codeInfo(Code::A001).id, "A001");
    EXPECT_STREQ(lint::codeInfo(Code::T001).id, "T001");
    EXPECT_STREQ(lint::codeInfo(Code::T006).id, "T006");
    EXPECT_EQ(lint::codeInfo(Code::T004).severity,
              lint::Severity::Error);
}

// --- constructor wiring --------------------------------------------------

TEST(LintWiring, ConstructorsThrowLintErrorAsInvalidArgument)
{
    auto bad = paperRequest();
    bad.kFraction = 1.0;
    EXPECT_THROW(core::DesignSolver{bad}, std::invalid_argument);
    EXPECT_THROW(core::DesignSolver{bad}, lint::LintError);

    const wearout::Weibull device(10.0, 12.0);
    EXPECT_THROW(arch::ParallelStructure(device, 4, 5), lint::LintError);
    EXPECT_THROW(arch::SeriesChain(device, 0), lint::LintError);

    fault::FaultPlan plan;
    plan.glitchRate = 2.0;
    EXPECT_THROW(plan.validate(), lint::LintError);
}

TEST(LintWiring, LintErrorCarriesTheFullReport)
{
    auto bad = paperRequest();
    bad.device.alpha = -1.0;
    bad.kFraction = 7.0;
    try {
        core::DesignSolver solver(bad);
        FAIL() << "expected LintError";
    } catch (const lint::LintError &e) {
        EXPECT_TRUE(e.report().hasCode(Code::L001));
        EXPECT_TRUE(e.report().hasCode(Code::L004));
        EXPECT_NE(std::string(e.what()).find("[L001]"),
                  std::string::npos);
    }
}

TEST(LintWiring, ValidConstructionStillWorks)
{
    EXPECT_NO_THROW(core::DesignSolver{paperRequest()});
    const wearout::Weibull device(10.0, 12.0);
    EXPECT_NO_THROW(arch::ParallelStructure(device, 100, 10));
    EXPECT_NO_THROW(fault::FaultPlan::stuckClosed(0.01).validate());
}

// --- spec files ----------------------------------------------------------

TEST(LintSpecFile, CleanSpecYieldsNoDiagnostics)
{
    Report report;
    lint::parseSpec("# comment\n"
                    "[design]\n"
                    "alpha = 10\n"
                    "beta = 12\n"
                    "lab = 91250\n"
                    "k_fraction = 0.2\n"
                    "guess_space = 1e6\n"
                    "\n"
                    "[fault]\n"
                    "stuck_closed_rate = 0.001\n",
                    "clean.lemons", report);
    EXPECT_TRUE(report.empty()) << report.format();
}

TEST(LintSpecFile, InvalidValuesFireRuleCodes)
{
    Report report;
    lint::parseSpec("[design]\n"
                    "alpha = 10\n"
                    "beta = 12\n"
                    "lab = 91250\n"
                    "k_fraction = 1.5\n",
                    "bad.lemons", report);
    EXPECT_TRUE(firesError(report, Code::L004));
    EXPECT_EQ(report.diagnostics().front().file, "bad.lemons");
}

TEST(LintSpecFile, ParserProblemsAreDiagnostics)
{
    Report orphanKey;
    lint::parseSpec("alpha = 10\n", "f", orphanKey);
    EXPECT_TRUE(firesError(orphanKey, Code::L902));
    Report unknownSection;
    lint::parseSpec("[nonsense]\nx = 1\n", "f", unknownSection);
    EXPECT_TRUE(firesError(unknownSection, Code::L903));
    Report badValue;
    lint::parseSpec("[design]\nalpha = banana\n", "f", badValue);
    EXPECT_TRUE(firesError(badValue, Code::L905));
    Report unknown;
    lint::parseSpec("[design]\nalpha = 10\nbeta = 12\nlab = 1\n"
                    "frobnicate = 3\n",
                    "f", unknown);
    EXPECT_TRUE(unknown.hasCode(Code::L904));
    EXPECT_FALSE(unknown.hasErrors());
    Report empty;
    lint::parseSpec("\n# only comments\n", "f", empty);
    EXPECT_TRUE(empty.hasCode(Code::L906));
}

TEST(LintSpecFile, TextReportEscapesControlBytes)
{
    // A section name carrying ESC [2J reaches the L903 message; the
    // text report must render it as \x1b instead of clearing the
    // reader's terminal.
    Report report;
    lint::parseSpec("[\x1b[2Jevil]\nx = 1\n", "esc\x7f.lemons", report);
    ASSERT_TRUE(firesError(report, Code::L903));
    const std::string text = report.format();
    EXPECT_EQ(text.find('\x1b'), std::string::npos) << text;
    EXPECT_EQ(text.find('\x7f'), std::string::npos) << text;
    EXPECT_NE(text.find("[\\x1b[2Jevil]"), std::string::npos) << text;
    EXPECT_EQ(text.rfind("esc\\x7f.lemons: ", 0), 0u) << text;
    // The diagnostic itself keeps the spec's bytes.
    EXPECT_NE(report.diagnostics().front().message.find('\x1b'),
              std::string::npos);
}

TEST(LintSpecFile, UnreadableFileIsL901)
{
    Report report;
    const lint::ParsedSpec parsed =
        lint::parseSpecFile("/nonexistent/path/spec.lemons", report);
    EXPECT_TRUE(firesError(report, Code::L901));
    EXPECT_TRUE(parsed.empty());
}

TEST(LintSpecFile, WorkloadAndMixtureSectionsAreLinted)
{
    Report clean;
    lint::parseSpec("[workload]\n"
                    "mean_per_day = 50\n"
                    "burst_probability = 0.01\n"
                    "burst_multiplier = 4\n"
                    "budget = 95000\n"
                    "horizon_days = 1825\n"
                    "[mixture]\n"
                    "infant_fraction = 0.02\n"
                    "infant_alpha = 1\n"
                    "infant_beta = 0.8\n"
                    "main_alpha = 10\n"
                    "main_beta = 12\n",
                    "f", clean);
    EXPECT_TRUE(clean.empty()) << clean.format();

    Report report;
    lint::parseSpec("[workload]\n"
                    "mean_per_day = 50\n"
                    "budget = 100\n"
                    "horizon_days = 365\n"
                    "[mixture]\n"
                    "infant_fraction = 2\n",
                    "f", report);
    EXPECT_TRUE(report.hasCode(Code::L604));
    EXPECT_TRUE(firesError(report, Code::L701));
}

TEST(LintSpecFile, RepeatedSectionsLintIndependently)
{
    Report report;
    lint::parseSpec("[fault]\n"
                    "stuck_closed_rate = 0.001\n"
                    "[fault]\n"
                    "stuck_closed_rate = 1.5\n",
                    "f", report);
    EXPECT_TRUE(firesError(report, Code::L401));
    EXPECT_EQ(report.errorCount(), 1u);
}

// --- fleet specs -----------------------------------------------------------

/** A [fleet] with a 0.7 retail and a 0.3 secondhand cohort;
 *  @p secondhandExtra is appended to the secondhand section. */
std::string
fleetText(const std::string &secondhandExtra)
{
    return "[fleet]\n"
           "devices = 1000\n"
           "horizon_days = 1825\n"
           "[cohort]\n"
           "name = retail\n"
           "weight = 0.7\n"
           "stagger_days = 90\n"
           "[cohort]\n"
           "name = secondhand\n"
           "weight = 0.3\n" +
           secondhandExtra;
}

TEST(LintSpecFile, DroppedCohortReportsOnlyItsParseError)
{
    Report clean;
    lint::parseSpec(fleetText(""), "f", clean);
    EXPECT_TRUE(clean.empty()) << clean.format();

    // The secondhand cohort fails to parse and is dropped; the
    // remaining 0.7 must not also read as an L805 partition error.
    Report report;
    lint::parseSpec(fleetText("reprovision_day = nan\n"), "f", report);
    EXPECT_TRUE(firesError(report, Code::L905)) << report.format();
    EXPECT_FALSE(report.hasCode(Code::L805)) << report.format();
    EXPECT_EQ(report.errorCount(), 1u) << report.format();
}

TEST(LintSpecFile, DroppedCohortKeepsOtherFleetsWeightCheck)
{
    // Only the fleet that lost a cohort skips L805: a later fleet
    // whose cohorts all parsed still reports its bad partition.
    Report report;
    lint::parseSpec(fleetText("reprovision_day = nan\n") +
                    "[fleet]\n"
                    "devices = 10\n"
                    "[cohort]\n"
                    "name = half\n"
                    "weight = 0.5\n",
                    "f", report);
    EXPECT_TRUE(firesError(report, Code::L905));
    EXPECT_TRUE(firesError(report, Code::L805)) << report.format();
    EXPECT_EQ(report.errorCount(), 2u) << report.format();
}

TEST(LintSpecFile, DroppedFleetTakesItsCohortsWithIt)
{
    // The fleet fails to parse and is dropped; its cohorts go with it
    // instead of each reading as a [cohort] before any [fleet].
    std::string text = fleetText("");
    text.replace(text.find("devices = 1000"), 14, "devices = ten");
    Report report;
    lint::parseSpec(text, "f", report);
    EXPECT_TRUE(firesError(report, Code::L905)) << report.format();
    EXPECT_FALSE(report.hasCode(Code::L902)) << report.format();
    EXPECT_EQ(report.errorCount(), 1u) << report.format();
}

TEST(LintSpecFile, DroppedFleetsCohortsDoNotJoinTheEarlierFleet)
{
    // The second fleet's weight-1 cohort must not attach to the first
    // fleet, whose own cohorts already sum to 1. A third fleet parses
    // again, so its cohort attaches and its bad partition still fires.
    Report report;
    lint::parseSpec(fleetText("") +
                    "[fleet]\n"
                    "devices = ten\n"
                    "[cohort]\n"
                    "name = all\n"
                    "weight = 1\n"
                    "[fleet]\n"
                    "devices = 10\n"
                    "[cohort]\n"
                    "name = half\n"
                    "weight = 0.5\n",
                    "f", report);
    EXPECT_TRUE(firesError(report, Code::L905)) << report.format();
    EXPECT_TRUE(firesError(report, Code::L805)) << report.format();
    EXPECT_EQ(report.errorCount(), 2u) << report.format();
}

TEST(LintRules, FleetStaggerReachingTheHorizonWarns)
{
    lint::FleetSpec spec;
    spec.horizonDays = 1825;
    spec.cohorts.emplace_back();
    const auto withStagger = [&spec](double days) {
        spec.cohorts[0].staggerDays = days;
        return lint::checkFleet(spec);
    };
    EXPECT_TRUE(withStagger(1824.0).empty()) << withStagger(1824.0).format();

    for (const double days : {1825.0, 5000.0}) {
        const Report report = withStagger(days);
        ASSERT_TRUE(report.hasCode(Code::L813)) << days;
        EXPECT_FALSE(report.hasErrors()) << report.format();
        EXPECT_EQ(report.diagnostics().front().severity,
                  Severity::Warning);
    }
    // 1 - 1825/5000 of the cohort enters after the horizon.
    EXPECT_NE(withStagger(5000.0).format().find("63.5%"),
              std::string::npos)
        << withStagger(5000.0).format();

    // A non-finite window is L806 alone.
    const Report infinite =
        withStagger(std::numeric_limits<double>::infinity());
    EXPECT_TRUE(firesError(infinite, Code::L806));
    EXPECT_FALSE(infinite.hasCode(Code::L813));
}

TEST(LintRules, SolverWorkLimitRefusesLongSolves)
{
    // alpha 1e7 scans 3e7 per-copy bounds (about 1.6 s to solve).
    core::DesignRequest wide = paperRequest();
    wide.device.alpha = 1e7;
    wide.legitimateAccessBound = 1'000'000'000'000ULL;
    wide.kFraction = 0.2;
    EXPECT_TRUE(firesError(lint::checkDesign(wide), Code::L015));
    EXPECT_THROW(core::DesignSolver{wide}, lint::LintError);

    // max_per_copy_bound narrows the scan back under the limit.
    core::DesignRequest narrowed = wide;
    narrowed.maxPerCopyBound = 1000;
    EXPECT_FALSE(lint::checkDesign(narrowed).hasCode(Code::L015));
    EXPECT_NO_THROW(core::DesignSolver{narrowed});

    // The limit is inclusive: the LAB caps the scan at 1e6 steps.
    core::DesignRequest atLimit = wide;
    atLimit.legitimateAccessBound = 1'000'000;
    EXPECT_EQ(lint::designSolveWork(atLimit), lint::kMaxDesignSolveWork);
    EXPECT_FALSE(lint::checkDesign(atLimit).hasErrors());
    EXPECT_NO_THROW(core::DesignSolver{atLimit});
    atLimit.legitimateAccessBound += 1;
    EXPECT_TRUE(firesError(lint::checkDesign(atLimit), Code::L015));
    EXPECT_THROW(core::DesignSolver{atLimit}, lint::LintError);

    // An upper-bound target multiplies each step by the overshoot scan:
    // alpha 3e3 took 26 s to solve.
    core::DesignRequest targeted = wide;
    targeted.device.alpha = 3e3;
    targeted.upperBoundTarget = 2'000'000'000'000ULL;
    EXPECT_TRUE(firesError(lint::checkDesign(targeted), Code::L015));
    EXPECT_THROW(core::DesignSolver{targeted}, lint::LintError);

    // The paper's designs sit far below the limit.
    core::DesignRequest paper = paperRequest();
    paper.upperBoundTarget = 200000;
    EXPECT_LT(lint::designSolveWork(paper), 1e4);
    EXPECT_TRUE(lint::checkDesign(paper).empty())
        << lint::checkDesign(paper).format();
}

TEST(LintSpecFile, RepeatedKeyIsAnError)
{
    // Either order is L907 and drops the section: the last value must
    // not win without a word (lab = 0 then 91250 used to lint clean).
    for (const char *text : {"[design]\nlab = 0\nlab = 91250\n",
                             "[design]\nlab = 91250\nlab = 0\n"}) {
        Report report;
        const lint::ParsedSpec parsed = lint::parseSpec(text, "f", report);
        EXPECT_TRUE(firesError(report, Code::L907)) << report.format();
        EXPECT_EQ(report.errorCount(), 1u) << report.format();
        EXPECT_TRUE(parsed.designs.empty());
        EXPECT_NE(report.format().find("line 3: key 'lab' repeats line 2"),
                  std::string::npos)
            << report.format();
    }
    // Shared rows are checked too: a [cohort] repeating a usage key.
    Report cohort;
    lint::parseSpec("[fleet]\n[cohort]\nmean_per_day = 5\n"
                    "mean_per_day = 6\n",
                    "f", cohort);
    EXPECT_TRUE(firesError(cohort, Code::L907)) << cohort.format();
    // An unknown key stays an L904 warning however often it appears.
    Report unknown;
    lint::parseSpec("[mway]\nm = 2\nfrob = 1\nfrob = 2\n", "f", unknown);
    EXPECT_FALSE(unknown.hasErrors()) << unknown.format();
    EXPECT_EQ(unknown.warningCount(), 2u) << unknown.format();
}

// --- the key tables -----------------------------------------------------

/** A key's documented field, written out independently of the table. */
template <class Spec>
using FieldOf = std::function<lint::KeyField(Spec &)>;

template <class Spec>
using Oracle = std::vector<std::pair<std::string, FieldOf<Spec>>>;

/** A value no default holds, for the field's type (as spec text). */
std::string
distinctiveText(const lint::KeyField &field)
{
    return std::visit(
        [](auto *out) -> std::string {
            using Field = std::remove_pointer_t<decltype(out)>;
            if constexpr (std::is_same_v<Field, double> ||
                          std::is_same_v<Field, std::optional<double>>)
                return "0.4375";
            else if constexpr (std::is_same_v<Field, std::string>)
                return "zeta";
            else if constexpr (std::is_same_v<Field,
                                              lint::StructureSpec::Kind>)
                return "series";
            else
                return "9";
        },
        field);
}

/** The field's value, rendered so any two values compare as text. */
std::string
render(const lint::KeyField &field)
{
    return std::visit(
        [](auto *out) -> std::string {
            using Field = std::remove_pointer_t<decltype(out)>;
            std::ostringstream text;
            text.precision(17);
            if constexpr (std::is_same_v<Field, std::optional<double>> ||
                          std::is_same_v<Field, std::optional<uint64_t>>) {
                if (!out->has_value())
                    return "unset";
                text << **out;
            } else if constexpr (std::is_same_v<Field,
                                                lint::StructureSpec::Kind>) {
                return *out == lint::StructureSpec::Kind::Series
                           ? "series"
                           : "parallel";
            } else {
                text << *out;
            }
            return text.str();
        },
        field);
}

/**
 * Every row of Spec's table points at the field the oracle names, and
 * a spec setting only that key parses into exactly that field.
 */
template <class Spec>
void
checkKeyTable(const std::string &section, const Oracle<Spec> &oracle,
              const std::function<Spec &(lint::ParsedSpec &)> &parsedOf,
              const std::string &preamble = "")
{
    Spec defaults{};
    const std::vector<lint::KeyRow> table = lint::keyTable(defaults);
    ASSERT_EQ(table.size(), oracle.size()) << section;
    for (size_t i = 0; i < table.size(); ++i) {
        EXPECT_EQ(table[i].key, oracle[i].first) << section;
        EXPECT_TRUE(table[i].field == oracle[i].second(defaults))
            << "[" << section << "] " << table[i].key;
    }
    for (const lint::KeyRow &row : table) {
        const std::string value = distinctiveText(row.field);
        Report report;
        lint::ParsedSpec parsed = lint::parseSpec(
            preamble + "[" + section + "]\n" + std::string(row.key) +
                " = " + value + "\n",
            "f", report);
        const auto where = "[" + section + "] " + std::string(row.key);
        ASSERT_FALSE(report.hasCode(Code::L904)) << where;
        ASSERT_FALSE(report.hasCode(Code::L905)) << where;
        Spec &spec = parsedOf(parsed);
        const std::vector<lint::KeyRow> read = lint::keyTable(spec);
        for (size_t i = 0; i < read.size(); ++i) {
            if (read[i].key == row.key)
                EXPECT_EQ(render(read[i].field), value) << where;
            else
                EXPECT_EQ(render(read[i].field), render(table[i].field))
                    << where << " also wrote " << read[i].key;
        }
    }
}

/** An oracle row: @p key's documented field, as a path into the spec. */
#define ROW(key, path)                                                     \
    {                                                                      \
        key, [](auto &s) -> lint::KeyField { return &s.path; }             \
    }

TEST(LintSpecFile, EveryKeyWritesItsOwnField)
{
    using lint::ParsedSpec;
    checkKeyTable<lint::DesignSection>(
        "design",
        {ROW("alpha", request.device.alpha),
         ROW("beta", request.device.beta),
         ROW("lab", request.legitimateAccessBound),
         ROW("k_fraction", request.kFraction),
         ROW("min_reliability", request.criteria.minReliability),
         ROW("max_residual_reliability",
             request.criteria.maxResidualReliability),
         ROW("upper_bound_target", request.upperBoundTarget),
         ROW("max_width", request.maxWidth),
         ROW("max_per_copy_bound", request.maxPerCopyBound),
         ROW("guess_space", options.guessSpace),
         ROW("guess_success_ceiling", options.guessSuccessCeiling)},
        [](ParsedSpec &p) -> auto & { return p.designs.at(0); });
    checkKeyTable<lint::StructureSpec>(
        "structure",
        {ROW("kind", kind),
         ROW("n", n),
         ROW("k", k),
         ROW("alpha", device.alpha),
         ROW("beta", device.beta),
         ROW("access_bound", accessBound),
         ROW("copies", copies),
         ROW("min_reliability", minReliability),
         ROW("max_residual", maxResidual)},
        [](ParsedSpec &p) -> auto & { return p.structures.at(0); });
    checkKeyTable<lint::ShareSpec>(
        "shares",
        {ROW("n", shares),
         ROW("k", threshold),
         ROW("field_bits", fieldBits),
         ROW("unguarded", unguarded)},
        [](ParsedSpec &p) -> auto & { return p.shares.at(0); });
    checkKeyTable<lint::OtpSection>(
        "otp",
        {ROW("height", params.height),
         ROW("copies", params.copies),
         ROW("threshold", params.threshold),
         ROW("alpha", params.device.alpha),
         ROW("beta", params.device.beta),
         ROW("receiver_floor", receiverFloor),
         ROW("adversary_ceiling", adversaryCeiling)},
        [](ParsedSpec &p) -> auto & { return p.otps.at(0); });
    checkKeyTable<fault::FaultPlan>(
        "fault",
        {ROW("stuck_closed_rate", stuckClosedRate),
         ROW("infant_fraction", infantFraction),
         ROW("infant_scale_fraction", infantScaleFraction),
         ROW("infant_shape", infantShape),
         ROW("glitch_rate", glitchRate),
         ROW("alpha_drift_sigma", alphaDriftSigma),
         ROW("beta_drift_sigma", betaDriftSigma)},
        [](ParsedSpec &p) -> auto & { return p.faults.at(0); });
    checkKeyTable<lint::MwaySpec>(
        "mway",
        {ROW("m", m), ROW("module_devices", moduleDevices)},
        [](ParsedSpec &p) -> auto & { return p.mways.at(0); });
    checkKeyTable<lint::WorkloadSpec>(
        "workload",
        {ROW("mean_per_day", meanPerDay),
         ROW("burst_probability", burstProbability),
         ROW("burst_multiplier", burstMultiplier),
         ROW("budget", budgetAccesses),
         ROW("horizon_days", horizonDays)},
        [](ParsedSpec &p) -> auto & { return p.workloads.at(0); });
    checkKeyTable<lint::MixtureSpec>(
        "mixture",
        {ROW("infant_fraction", infantFraction),
         ROW("infant_alpha", infant.alpha),
         ROW("infant_beta", infant.beta),
         ROW("main_alpha", main.alpha),
         ROW("main_beta", main.beta)},
        [](ParsedSpec &p) -> auto & { return p.mixtures.at(0); });
    checkKeyTable<lint::FleetSpec>(
        "fleet",
        {ROW("devices", devices),
         ROW("seed", seed),
         ROW("chunk_size", chunkSize),
         ROW("checkpoint_interval", checkpointEveryChunks),
         ROW("horizon_days", horizonDays),
         ROW("premature_days", prematureDays),
         ROW("premature_tolerance", prematureTolerance)},
        [](ParsedSpec &p) -> auto & { return p.fleets.at(0); });
    checkKeyTable<lint::FleetCohortSpec>(
        "cohort",
        {ROW("name", name),
         ROW("weight", weight),
         ROW("stagger_days", staggerDays),
         ROW("access_bound", accessBound),
         ROW("mean_per_day", usage.meanPerDay),
         ROW("burst_probability", usage.burstProbability),
         ROW("burst_multiplier", usage.burstMultiplier),
         ROW("infant_fraction", lifetime.infantFraction),
         ROW("infant_alpha", lifetime.infant.alpha),
         ROW("infant_beta", lifetime.infant.beta),
         ROW("main_alpha", lifetime.main.alpha),
         ROW("main_beta", lifetime.main.beta),
         ROW("reprovision_day", reprovisionDay),
         ROW("reprovision_scale", reprovisionUsageScale)},
        [](ParsedSpec &p) -> auto & { return p.fleets.at(0).cohorts.at(0); },
        "[fleet]\n");
}

#undef ROW

} // namespace
} // namespace lemons
