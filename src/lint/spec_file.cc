#include "lint/spec_file.h"

#include <cctype>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <sstream>
#include <utility>
#include <vector>

#include "lint/rules.h"

namespace lemons::lint {

namespace {

/** One key = value entry with its source line (1-based). */
struct Entry
{
    std::string key;
    std::string value;
    size_t line = 0;
};

/** One [section] with its entries, in file order. */
struct Section
{
    std::string name;
    size_t line = 0;
    std::vector<Entry> entries;
};

std::string
trim(std::string_view s)
{
    size_t begin = 0;
    size_t end = s.size();
    while (begin < end &&
           std::isspace(static_cast<unsigned char>(s[begin])) != 0)
        ++begin;
    while (end > begin &&
           std::isspace(static_cast<unsigned char>(s[end - 1])) != 0)
        --end;
    return std::string(s.substr(begin, end - begin));
}

std::string
lineRef(size_t line)
{
    return "line " + std::to_string(line);
}

/**
 * Split @p text into sections, reporting syntax problems into
 * @p report. Keys before any section header are L902 errors.
 */
std::vector<Section>
parseSections(std::string_view text, Report &report)
{
    std::vector<Section> sections;
    std::istringstream in{std::string(text)};
    std::string raw;
    size_t lineNo = 0;
    while (std::getline(in, raw)) {
        ++lineNo;
        // Strip comments ('#' or ';' to end of line), then whitespace.
        const size_t comment = raw.find_first_of("#;");
        const std::string line =
            trim(comment == std::string::npos ? raw
                                              : raw.substr(0, comment));
        if (line.empty())
            continue;
        if (line.front() == '[') {
            if (line.back() != ']' || line.size() < 3) {
                report.add(Code::L902, "spec", "",
                           lineRef(lineNo) + ": malformed section "
                           "header '" + line + "'",
                           "write [design], [structure], [shares], "
                           "[otp], [fault], [mway], [workload], "
                           "[mixture], [fleet], or [cohort]");
                continue;
            }
            Section section;
            section.name = trim(line.substr(1, line.size() - 2));
            section.line = lineNo;
            sections.push_back(std::move(section));
            continue;
        }
        const size_t eq = line.find('=');
        if (eq == std::string::npos) {
            report.add(Code::L902, "spec", "",
                       lineRef(lineNo) + ": expected 'key = value', "
                       "got '" + line + "'");
            continue;
        }
        if (sections.empty()) {
            report.add(Code::L902, "spec", "",
                       lineRef(lineNo) + ": 'key = value' before any "
                       "[section] header");
            continue;
        }
        Entry entry;
        entry.key = trim(line.substr(0, eq));
        entry.value = trim(line.substr(eq + 1));
        entry.line = lineNo;
        if (entry.key.empty() || entry.value.empty()) {
            report.add(Code::L902, "spec", "",
                       lineRef(lineNo) + ": empty key or value");
            continue;
        }
        sections.back().entries.push_back(std::move(entry));
    }
    return sections;
}

/** Parse a full-consumption floating-point literal; L905 otherwise. */
bool
parseDouble(const Entry &entry, const std::string &object, Report &report,
            double &out)
{
    const char *begin = entry.value.c_str();
    char *end = nullptr;
    const double value = std::strtod(begin, &end);
    if (end == begin || *end != '\0' || !std::isfinite(value)) {
        report.add(Code::L905, object, entry.key,
                   lineRef(entry.line) + ": '" + entry.value +
                       "' is not a finite number");
        return false;
    }
    out = value;
    return true;
}

/** Parse a non-negative integer (scientific notation welcome). */
bool
parseUint(const Entry &entry, const std::string &object, Report &report,
          uint64_t &out)
{
    double value = 0.0;
    if (!parseDouble(entry, object, report, value))
        return false;
    if (value < 0.0 || value > 1.8e19 ||
        value != std::floor(value)) {
        report.add(Code::L905, object, entry.key,
                   lineRef(entry.line) + ": '" + entry.value +
                       "' is not a non-negative integer");
        return false;
    }
    out = static_cast<uint64_t>(value);
    return true;
}

void
unknownKey(const Entry &entry, const std::string &object, Report &report)
{
    report.add(Code::L904, object, entry.key,
               lineRef(entry.line) + ": key '" + entry.key +
                   "' is not recognised in " + object,
               "see the section/key table in lint/spec_file.h");
}

/*
 * Each parse*Section consumes one [section], appending parse
 * diagnostics and then rule diagnostics to its report. Sections whose
 * values parsed (no L905/L904-escalated errors) are appended to the
 * ParsedSpec even when rule checks fail, so the verifier can analyse
 * rule-questionable but well-formed designs.
 */

Report
parseDesignSection(const Section &section, ParsedSpec &spec)
{
    Report report;
    const std::string object = "[design]";
    DesignSection design;
    for (const Entry &entry : section.entries) {
        if (entry.key == "alpha") {
            parseDouble(entry, object, report,
                        design.request.device.alpha);
        } else if (entry.key == "beta") {
            parseDouble(entry, object, report,
                        design.request.device.beta);
        } else if (entry.key == "lab") {
            parseUint(entry, object, report,
                      design.request.legitimateAccessBound);
        } else if (entry.key == "k_fraction") {
            parseDouble(entry, object, report, design.request.kFraction);
        } else if (entry.key == "min_reliability") {
            parseDouble(entry, object, report,
                        design.request.criteria.minReliability);
        } else if (entry.key == "max_residual_reliability") {
            parseDouble(entry, object, report,
                        design.request.criteria.maxResidualReliability);
        } else if (entry.key == "upper_bound_target") {
            uint64_t target = 0;
            if (parseUint(entry, object, report, target))
                design.request.upperBoundTarget = target;
        } else if (entry.key == "guess_space") {
            double space = 0.0;
            if (parseDouble(entry, object, report, space))
                design.options.guessSpace = space;
        } else if (entry.key == "guess_success_ceiling") {
            double ceiling = 0.0;
            if (parseDouble(entry, object, report, ceiling))
                design.options.guessSuccessCeiling = ceiling;
        } else if (entry.key == "max_width") {
            parseUint(entry, object, report, design.request.maxWidth);
        } else if (entry.key == "max_per_copy_bound") {
            parseUint(entry, object, report,
                      design.request.maxPerCopyBound);
        } else {
            unknownKey(entry, object, report);
        }
    }
    if (report.hasErrors())
        return report;
    report.merge(checkDesign(design.request, design.options));
    spec.designs.push_back(design);
    return report;
}

Report
parseStructureSection(const Section &section, ParsedSpec &parsed)
{
    Report report;
    const std::string object = "[structure]";
    StructureSpec spec;
    for (const Entry &entry : section.entries) {
        if (entry.key == "kind") {
            if (entry.value == "series") {
                spec.kind = StructureSpec::Kind::Series;
            } else if (entry.value == "parallel") {
                spec.kind = StructureSpec::Kind::Parallel;
            } else {
                report.add(Code::L905, object, entry.key,
                           lineRef(entry.line) + ": kind must be "
                           "'series' or 'parallel', got '" +
                               entry.value + "'");
            }
        } else if (entry.key == "n") {
            parseUint(entry, object, report, spec.n);
        } else if (entry.key == "k") {
            parseUint(entry, object, report, spec.k);
        } else if (entry.key == "alpha") {
            parseDouble(entry, object, report, spec.device.alpha);
        } else if (entry.key == "beta") {
            parseDouble(entry, object, report, spec.device.beta);
        } else if (entry.key == "access_bound") {
            uint64_t bound = 0;
            if (parseUint(entry, object, report, bound))
                spec.accessBound = bound;
        } else if (entry.key == "copies") {
            uint64_t copies = 0;
            if (parseUint(entry, object, report, copies))
                spec.copies = copies;
        } else if (entry.key == "min_reliability") {
            double floor = 0.0;
            if (parseDouble(entry, object, report, floor))
                spec.minReliability = floor;
        } else if (entry.key == "max_residual") {
            double ceiling = 0.0;
            if (parseDouble(entry, object, report, ceiling))
                spec.maxResidual = ceiling;
        } else {
            unknownKey(entry, object, report);
        }
    }
    if (report.hasErrors())
        return report;
    report.merge(checkStructure(spec));
    parsed.structures.push_back(spec);
    return report;
}

Report
parseSharesSection(const Section &section, ParsedSpec &parsed)
{
    Report report;
    const std::string object = "[shares]";
    ShareSpec spec;
    for (const Entry &entry : section.entries) {
        if (entry.key == "n") {
            parseUint(entry, object, report, spec.shares);
        } else if (entry.key == "k") {
            parseUint(entry, object, report, spec.threshold);
        } else if (entry.key == "field_bits") {
            uint64_t bits = 0;
            if (parseUint(entry, object, report, bits))
                spec.fieldBits = static_cast<unsigned>(
                    std::min<uint64_t>(bits, 1u << 16));
        } else if (entry.key == "unguarded") {
            parseUint(entry, object, report, spec.unguarded);
        } else {
            unknownKey(entry, object, report);
        }
    }
    if (report.hasErrors())
        return report;
    report.merge(checkShares(spec));
    parsed.shares.push_back(spec);
    return report;
}

Report
parseOtpSection(const Section &section, ParsedSpec &parsed)
{
    Report report;
    const std::string object = "[otp]";
    OtpSection otp;
    for (const Entry &entry : section.entries) {
        if (entry.key == "height") {
            uint64_t height = 0;
            if (parseUint(entry, object, report, height))
                otp.params.height = static_cast<unsigned>(
                    std::min<uint64_t>(height, 1u << 16));
        } else if (entry.key == "copies") {
            parseUint(entry, object, report, otp.params.copies);
        } else if (entry.key == "threshold") {
            parseUint(entry, object, report, otp.params.threshold);
        } else if (entry.key == "alpha") {
            parseDouble(entry, object, report, otp.params.device.alpha);
        } else if (entry.key == "beta") {
            parseDouble(entry, object, report, otp.params.device.beta);
        } else if (entry.key == "receiver_floor") {
            double floor = 0.0;
            if (parseDouble(entry, object, report, floor))
                otp.receiverFloor = floor;
        } else if (entry.key == "adversary_ceiling") {
            double ceiling = 0.0;
            if (parseDouble(entry, object, report, ceiling))
                otp.adversaryCeiling = ceiling;
        } else {
            unknownKey(entry, object, report);
        }
    }
    if (report.hasErrors())
        return report;
    report.merge(checkOtp(otp.params));
    parsed.otps.push_back(otp);
    return report;
}

Report
parseFaultSection(const Section &section, ParsedSpec &parsed)
{
    Report report;
    const std::string object = "[fault]";
    fault::FaultPlan plan;
    for (const Entry &entry : section.entries) {
        if (entry.key == "stuck_closed_rate") {
            parseDouble(entry, object, report, plan.stuckClosedRate);
        } else if (entry.key == "infant_fraction") {
            parseDouble(entry, object, report, plan.infantFraction);
        } else if (entry.key == "infant_scale_fraction") {
            parseDouble(entry, object, report, plan.infantScaleFraction);
        } else if (entry.key == "infant_shape") {
            parseDouble(entry, object, report, plan.infantShape);
        } else if (entry.key == "glitch_rate") {
            parseDouble(entry, object, report, plan.glitchRate);
        } else if (entry.key == "alpha_drift_sigma") {
            parseDouble(entry, object, report, plan.alphaDriftSigma);
        } else if (entry.key == "beta_drift_sigma") {
            parseDouble(entry, object, report, plan.betaDriftSigma);
        } else {
            unknownKey(entry, object, report);
        }
    }
    if (report.hasErrors())
        return report;
    report.merge(checkFaultPlan(plan));
    parsed.faults.push_back(plan);
    return report;
}

Report
parseMwaySection(const Section &section, ParsedSpec &parsed)
{
    Report report;
    const std::string object = "[mway]";
    MwaySpec spec;
    for (const Entry &entry : section.entries) {
        if (entry.key == "m") {
            parseUint(entry, object, report, spec.m);
        } else if (entry.key == "module_devices") {
            uint64_t devices = 0;
            if (parseUint(entry, object, report, devices))
                spec.moduleDevices = devices;
        } else {
            unknownKey(entry, object, report);
        }
    }
    if (report.hasErrors())
        return report;
    report.merge(checkMway(spec));
    parsed.mways.push_back(spec);
    return report;
}

Report
parseWorkloadSection(const Section &section, ParsedSpec &parsed)
{
    Report report;
    const std::string object = "[workload]";
    WorkloadSpec spec;
    for (const Entry &entry : section.entries) {
        if (entry.key == "mean_per_day") {
            parseDouble(entry, object, report, spec.meanPerDay);
        } else if (entry.key == "burst_probability") {
            parseDouble(entry, object, report, spec.burstProbability);
        } else if (entry.key == "burst_multiplier") {
            parseDouble(entry, object, report, spec.burstMultiplier);
        } else if (entry.key == "budget") {
            uint64_t budget = 0;
            if (parseUint(entry, object, report, budget))
                spec.budgetAccesses = budget;
        } else if (entry.key == "horizon_days") {
            uint64_t horizon = 0;
            if (parseUint(entry, object, report, horizon))
                spec.horizonDays = horizon;
        } else {
            unknownKey(entry, object, report);
        }
    }
    if (report.hasErrors())
        return report;
    report.merge(checkWorkload(spec));
    parsed.workloads.push_back(spec);
    return report;
}

Report
parseMixtureSection(const Section &section, ParsedSpec &parsed)
{
    Report report;
    const std::string object = "[mixture]";
    MixtureSpec spec;
    for (const Entry &entry : section.entries) {
        if (entry.key == "infant_fraction") {
            parseDouble(entry, object, report, spec.infantFraction);
        } else if (entry.key == "infant_alpha") {
            parseDouble(entry, object, report, spec.infant.alpha);
        } else if (entry.key == "infant_beta") {
            parseDouble(entry, object, report, spec.infant.beta);
        } else if (entry.key == "main_alpha") {
            parseDouble(entry, object, report, spec.main.alpha);
        } else if (entry.key == "main_beta") {
            parseDouble(entry, object, report, spec.main.beta);
        } else {
            unknownKey(entry, object, report);
        }
    }
    if (report.hasErrors())
        return report;
    report.merge(checkMixture(spec));
    parsed.mixtures.push_back(spec);
    return report;
}

Report
parseFleetSection(const Section &section, ParsedSpec &parsed)
{
    Report report;
    const std::string object = "[fleet]";
    FleetSpec spec;
    spec.cohorts.clear(); // cohorts come from [cohort] sections
    for (const Entry &entry : section.entries) {
        if (entry.key == "devices") {
            parseUint(entry, object, report, spec.devices);
        } else if (entry.key == "seed") {
            parseUint(entry, object, report, spec.seed);
        } else if (entry.key == "chunk_size") {
            parseUint(entry, object, report, spec.chunkSize);
        } else if (entry.key == "checkpoint_interval") {
            parseUint(entry, object, report,
                      spec.checkpointEveryChunks);
        } else if (entry.key == "horizon_days") {
            parseUint(entry, object, report, spec.horizonDays);
        } else if (entry.key == "premature_days") {
            parseUint(entry, object, report, spec.prematureDays);
        } else if (entry.key == "premature_tolerance") {
            double tolerance = 0.0;
            if (parseDouble(entry, object, report, tolerance))
                spec.prematureTolerance = tolerance;
        } else {
            unknownKey(entry, object, report);
        }
    }
    if (report.hasErrors())
        return report;
    // Cross-cohort rules (checkFleet) run after the whole file has
    // been parsed; see parseSpec.
    parsed.fleets.push_back(std::move(spec));
    return report;
}

Report
parseCohortSection(const Section &section, ParsedSpec &parsed)
{
    Report report;
    const std::string object = "[cohort]";
    if (parsed.fleets.empty()) {
        report.add(Code::L902, "spec", "",
                   lineRef(section.line) + ": [cohort] before any "
                   "[fleet] section",
                   "declare the [fleet] the cohort belongs to first");
        return report;
    }
    FleetCohortSpec spec;
    for (const Entry &entry : section.entries) {
        if (entry.key == "name") {
            spec.name = entry.value;
        } else if (entry.key == "weight") {
            parseDouble(entry, object, report, spec.weight);
        } else if (entry.key == "stagger_days") {
            parseDouble(entry, object, report, spec.staggerDays);
        } else if (entry.key == "access_bound") {
            parseUint(entry, object, report, spec.accessBound);
        } else if (entry.key == "mean_per_day") {
            parseDouble(entry, object, report, spec.usage.meanPerDay);
        } else if (entry.key == "burst_probability") {
            parseDouble(entry, object, report,
                        spec.usage.burstProbability);
        } else if (entry.key == "burst_multiplier") {
            parseDouble(entry, object, report,
                        spec.usage.burstMultiplier);
        } else if (entry.key == "infant_fraction") {
            parseDouble(entry, object, report,
                        spec.lifetime.infantFraction);
        } else if (entry.key == "infant_alpha") {
            parseDouble(entry, object, report,
                        spec.lifetime.infant.alpha);
        } else if (entry.key == "infant_beta") {
            parseDouble(entry, object, report,
                        spec.lifetime.infant.beta);
        } else if (entry.key == "main_alpha") {
            parseDouble(entry, object, report, spec.lifetime.main.alpha);
        } else if (entry.key == "main_beta") {
            parseDouble(entry, object, report, spec.lifetime.main.beta);
        } else if (entry.key == "reprovision_day") {
            double day = 0.0;
            if (parseDouble(entry, object, report, day))
                spec.reprovisionDay = day;
        } else if (entry.key == "reprovision_scale") {
            parseDouble(entry, object, report,
                        spec.reprovisionUsageScale);
        } else {
            unknownKey(entry, object, report);
        }
    }
    if (report.hasErrors())
        return report;
    parsed.fleets.back().cohorts.push_back(std::move(spec));
    return report;
}

} // namespace

ParsedSpec
parseSpec(std::string_view text, const std::string &filename,
          Report &report)
{
    ParsedSpec parsed;
    Report local;
    const std::vector<Section> sections = parseSections(text, local);
    if (sections.empty() && local.empty()) {
        local.add(Code::L906, "spec", "",
                  "the file declares no sections; nothing was checked",
                  "add a [design], [structure], [shares], [otp], "
                  "[fault], [mway], [workload], [mixture], or [fleet] "
                  "section");
    }
    std::vector<bool> fleetLostCohort;
    using Dispatcher = Report (*)(const Section &, ParsedSpec &);
    static const std::map<std::string, Dispatcher> dispatch = {
        {"design", &parseDesignSection},
        {"structure", &parseStructureSection},
        {"shares", &parseSharesSection},
        {"otp", &parseOtpSection},
        {"fault", &parseFaultSection},
        {"mway", &parseMwaySection},
        {"workload", &parseWorkloadSection},
        {"mixture", &parseMixtureSection},
        {"fleet", &parseFleetSection},
        {"cohort", &parseCohortSection},
    };
    for (const Section &section : sections) {
        const auto found = dispatch.find(section.name);
        if (found == dispatch.end()) {
            local.add(Code::L903, "spec", "",
                      lineRef(section.line) + ": unknown section [" +
                          section.name + "]",
                      "known sections: design, structure, shares, "
                      "otp, fault, mway, workload, mixture, fleet, "
                      "cohort");
            continue;
        }
        Report sectionReport = found->second(section, parsed);
        // A [cohort] with errors was dropped from the latest fleet.
        if (section.name == "cohort" && sectionReport.hasErrors() &&
            !parsed.fleets.empty()) {
            fleetLostCohort.resize(parsed.fleets.size());
            fleetLostCohort.back() = true;
        }
        local.merge(std::move(sectionReport));
    }
    // Fleet rules are cross-section (cohort weights must partition the
    // population), so they run only after every [cohort] has attached.
    fleetLostCohort.resize(parsed.fleets.size());
    for (size_t i = 0; i < parsed.fleets.size(); ++i)
        local.merge(checkFleet(parsed.fleets[i], !fleetLostCohort[i]));
    local.setFile(filename);
    report.merge(std::move(local));
    return parsed;
}

Report
lintText(std::string_view text, const std::string &filename)
{
    Report report;
    (void)parseSpec(text, filename, report);
    return report;
}

Report
lintFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in) {
        Report report;
        report.add(Code::L901, "spec", "", "cannot open '" + path + "'");
        report.setFile(path);
        return report;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return lintText(buffer.str(), path);
}

ParsedSpec
parseSpecFile(const std::string &path, Report &report)
{
    std::ifstream in(path);
    if (!in) {
        Report local;
        local.add(Code::L901, "spec", "", "cannot open '" + path + "'");
        local.setFile(path);
        report.merge(std::move(local));
        return {};
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return parseSpec(buffer.str(), path, report);
}

} // namespace lemons::lint
