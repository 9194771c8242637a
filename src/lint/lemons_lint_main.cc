/**
 * @file
 * lemons-lint — static design-rule checker CLI.
 *
 * Lints spec files (see lint/spec_file.h for the format) and exits
 * non-zero when any error-severity finding fires, so a CI step can
 * gate deployment configurations the same way a compiler gates code:
 *
 *     lemons-lint examples/configs/smartphone_unlock.lemons ...
 *
 * With --verify the whole-design static verifier also runs: each
 * file's sections are lowered into the architecture IR and the bound-
 * propagation, structural, and secret-flow passes report V-range
 * findings after the lint L-range. With --analyze (which implies
 * --verify) the wear-budget abstract interpreter adds A-range
 * findings: certified access-count brackets, budget-exhaustion and
 * premature-lockout obligations, and adversary-success ceilings. The
 * deepest flag given picks the depth of analysis::checkSpecFile, which
 * parses and lowers each file once into one merged report, so the
 * exit-code and --werror semantics are uniform across the L/V/A
 * families.
 *
 * --json emits the whole run as one `lemons-api/1` envelope (implying
 * --analyze): {schema, ok, diagnostics[], result: {files[], errors,
 * warnings}} — for one file, exactly the body lemonsd's POST
 * /v1/analyze returns, so dashboards consume CI runs and server
 * responses with one parser.
 *
 * Exit codes: 0 clean (warnings allowed unless --werror), 1 at least
 * one error-severity finding (or any warning under --werror), 2
 * usage error.
 */

#include <algorithm>
#include <cstring>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "analysis/report.h"
#include "api/codec.h"
#include "lint/diagnostics.h"
#include "util/argparse.h"

namespace {

/** Catalog family header for a code id ("L001" -> the lint range). */
const char *
familyTitle(char prefix)
{
    switch (prefix) {
    case 'L':
        return "L-range: design-rule lint (lemons::lint)";
    case 'V':
        return "V-range: static verifier (lemons::verify)";
    case 'C':
        return "C-range: fleet checkpoint errors (lemons::fleet)";
    case 'A':
        return "A-range: wear-budget analyzer (lemons::analysis)";
    case 'S':
        return "S-range: serving/API request errors (lemons::api)";
    case 'T':
        return "T-range: source-level tidy checks (tools/tidy plugin)";
    default:
        return "other";
    }
}

void
printCatalog(std::ostream &out)
{
    // Group by family so the listing reads as six catalogs; the
    // registry itself is append-only and therefore not sorted.
    std::vector<lemons::lint::CodeInfo> sorted =
        lemons::lint::codeCatalog();
    std::sort(sorted.begin(), sorted.end(),
              [](const lemons::lint::CodeInfo &a,
                 const lemons::lint::CodeInfo &b) {
                  return std::strcmp(a.id, b.id) < 0;
              });
    const auto familyRank = [](char prefix) {
        switch (prefix) {
        case 'L':
            return 0;
        case 'V':
            return 1;
        case 'C':
            return 2;
        case 'A':
            return 3;
        case 'S':
            return 4;
        case 'T':
            return 5;
        default:
            return 6;
        }
    };
    std::stable_sort(sorted.begin(), sorted.end(),
                     [&](const lemons::lint::CodeInfo &a,
                         const lemons::lint::CodeInfo &b) {
                         return familyRank(a.id[0]) < familyRank(b.id[0]);
                     });
    char family = '\0';
    for (const lemons::lint::CodeInfo &info : sorted) {
        if (info.id[0] != family) {
            family = info.id[0];
            out << (family == 'L' ? "" : "\n") << familyTitle(family)
                << "\n";
        }
        const char *severity = lemons::lint::severityName(info.severity);
        out << "  " << info.id << "  " << severity;
        // Pad to the widest severity name ("warning", 7 chars) + 2.
        for (size_t pad = std::strlen(severity); pad < 9; ++pad)
            out << ' ';
        out << info.title << "\n";
    }
}

} // namespace

int
main(int argc, char **argv)
{
    bool werror = false;
    bool quiet = false;
    bool verify = false;
    bool analyze = false;
    bool json = false;
    bool codes = false;
    std::vector<std::string> files;

    lemons::ArgParser parser(
        "lemons-lint",
        "Statically checks limited-use architecture specs against the\n"
        "lemons design rules without running any simulation.");
    parser.flag("--verify", &verify,
                "also lower each spec into the architecture IR and run "
                "the static verifier (V-range findings)");
    parser.flag("--analyze", &analyze,
                "also run the wear-budget abstract interpreter (A-range "
                "findings: budget exhaustion, premature lockout, dead "
                "wear, adversary obligations; implies --verify)");
    parser.flag("--json", &json,
                "emit one lemons-api/1 envelope for the whole run, the "
                "POST /v1/analyze body (implies --analyze)");
    parser.flag("--werror", &werror,
                "treat warnings as errors (uniform across the L/V/A "
                "families)");
    parser.flag("--quiet", &quiet, "print only the per-file summaries");
    parser.flag("--codes", &codes,
                "print the diagnostic-code catalog and exit");
    parser.positionals("<spec-file>...", &files, "spec files to check");

    switch (parser.parse(argc, argv)) {
    case lemons::ArgParser::Outcome::Ok:
        break;
    case lemons::ArgParser::Outcome::Help:
        return 0;
    case lemons::ArgParser::Outcome::Error:
        std::cerr << parser.error() << '\n' << parser.helpText();
        return 2;
    }

    if (codes) {
        printCatalog(std::cout);
        return 0;
    }
    if (files.empty()) {
        std::cerr << "lemons-lint: no spec files given\n"
                  << parser.helpText();
        return 2;
    }

    using lemons::analysis::CheckDepth;
    const CheckDepth depth = json || analyze ? CheckDepth::Analyze
        : verify                             ? CheckDepth::Verify
                                             : CheckDepth::Lint;
    size_t errors = 0;
    size_t warnings = 0;
    std::vector<lemons::analysis::AnalyzedFile> analyzed;
    for (const std::string &file : files) {
        lemons::analysis::AnalyzedFile checked =
            lemons::analysis::checkSpecFile(file, depth);
        const lemons::lint::Report &report = checked.findings;
        errors += report.errorCount();
        warnings += report.warningCount();
        if (json) {
            analyzed.push_back(std::move(checked));
            continue;
        }
        if (!quiet && !report.empty())
            std::cout << report.format();
        std::cout << lemons::lint::printable(file) << ": "
                  << report.errorCount() << " error(s), "
                  << report.warningCount() << " warning(s)\n";
    }
    if (json)
        std::cout << lemons::api::renderAnalysisEnvelope(analyzed);
    if (errors > 0)
        return 1;
    if (werror && warnings > 0)
        return 1;
    return 0;
}
