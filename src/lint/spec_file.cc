#include "lint/spec_file.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <utility>
#include <variant>
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

/*
 * readValue parses one entry's value into a field, overloaded on the
 * field's type; a value that does not parse is L905 and leaves the
 * field untouched.
 */

/** A full-consumption, finite floating-point literal. */
bool
readValue(const Entry &entry, const std::string &object, Report &report,
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

/** A non-negative integer (scientific notation welcome). */
bool
readValue(const Entry &entry, const std::string &object, Report &report,
          uint64_t &out)
{
    double value = 0.0;
    if (!readValue(entry, object, report, value))
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

/** A non-negative integer clamped at 2^16 (a bit width or height). */
bool
readValue(const Entry &entry, const std::string &object, Report &report,
          unsigned &out)
{
    uint64_t value = 0;
    if (!readValue(entry, object, report, value))
        return false;
    out = static_cast<unsigned>(std::min<uint64_t>(value, 1u << 16));
    return true;
}

bool
readValue(const Entry &entry, const std::string & /*object*/,
          Report & /*report*/, std::string &out)
{
    out = entry.value;
    return true;
}

bool
readValue(const Entry &entry, const std::string &object, Report &report,
          StructureSpec::Kind &out)
{
    if (entry.value == "series") {
        out = StructureSpec::Kind::Series;
    } else if (entry.value == "parallel") {
        out = StructureSpec::Kind::Parallel;
    } else {
        report.add(Code::L905, object, entry.key,
                   lineRef(entry.line) + ": " + entry.key +
                       " must be 'series' or 'parallel', got '" +
                       entry.value + "'");
        return false;
    }
    return true;
}

template <class T>
bool
readValue(const Entry &entry, const std::string &object, Report &report,
          std::optional<T> &out)
{
    T value{};
    if (!readValue(entry, object, report, value))
        return false;
    out = value;
    return true;
}

/**
 * Read one [section] into a fresh Spec through its key table, then
 * run @p rules over it. A section whose values all parsed is appended
 * to @p into even when its rules fail, so the verifier can analyse a
 * rule-questionable but well-formed section.
 */
template <class Spec, class Rules>
Report
readSection(const Section &section, std::vector<Spec> &into, Rules rules)
{
    Report report;
    const std::string object = "[" + section.name + "]";
    Spec spec;
    const std::vector<KeyRow> table = keyTable(spec);
    std::vector<const Entry *> seen(table.size(), nullptr);
    for (const Entry &entry : section.entries) {
        const auto row =
            std::find_if(table.begin(), table.end(),
                         [&](const KeyRow &r) { return r.key == entry.key; });
        if (row == table.end()) {
            report.add(Code::L904, object, entry.key,
                       lineRef(entry.line) + ": key '" + entry.key +
                           "' is not recognised in " + object,
                       "see the section/key table in lint/spec_file.h");
            continue;
        }
        const Entry *&first = seen[static_cast<size_t>(row - table.begin())];
        if (first != nullptr) {
            report.add(Code::L907, object, entry.key,
                       lineRef(entry.line) + ": key '" + entry.key +
                           "' repeats " + lineRef(first->line) +
                           " of the same " + object + " section",
                       "give each key once per section");
            continue;
        }
        first = &entry;
        std::visit(
            [&](auto *field) { readValue(entry, object, report, *field); },
            row->field);
    }
    if (report.hasErrors())
        return report;
    report.merge(rules(spec));
    into.push_back(std::move(spec));
    return report;
}

/** The [workload] keys a [cohort] shares: its daily usage profile. */
std::vector<KeyRow>
usageProfileTable(WorkloadSpec &spec)
{
    return {{"mean_per_day", &spec.meanPerDay},
            {"burst_probability", &spec.burstProbability},
            {"burst_multiplier", &spec.burstMultiplier}};
}

void
append(std::vector<KeyRow> &rows, const std::vector<KeyRow> &more)
{
    rows.insert(rows.end(), more.begin(), more.end());
}

/* The after-parse step of each section: its rule pass. */

Report
checkDesignSection(const DesignSection &design)
{
    return checkDesign(design.request, design.options);
}

Report
checkOtpSection(const OtpSection &otp)
{
    return checkOtp(otp.params);
}

/** [fleet] and [cohort]: checkFleet runs once the file is parsed. */
Report
noRules(const auto & /*spec*/)
{
    return {};
}

/** Read a section into the ParsedSpec vector @p Into, then run @p Rules. */
template <auto Into, auto Rules>
Report
readInto(const Section &section, ParsedSpec &spec)
{
    return readSection(section, spec.*Into, Rules);
}

/** A [cohort] joins the latest [fleet]; before any, it is L902. */
Report
readCohort(const Section &section, ParsedSpec &spec)
{
    if (!spec.fleets.empty())
        return readSection(section, spec.fleets.back().cohorts,
                           noRules<FleetCohortSpec>);
    Report report;
    report.add(Code::L902, "spec", "",
               lineRef(section.line) + ": [cohort] before any [fleet] "
               "section",
               "declare the [fleet] the cohort belongs to first");
    return report;
}

} // namespace

std::vector<KeyRow>
keyTable(core::DesignRequest &spec)
{
    return {{"alpha", &spec.device.alpha},
            {"beta", &spec.device.beta},
            {"lab", &spec.legitimateAccessBound},
            {"k_fraction", &spec.kFraction},
            {"min_reliability", &spec.criteria.minReliability},
            {"max_residual_reliability",
             &spec.criteria.maxResidualReliability},
            {"upper_bound_target", &spec.upperBoundTarget},
            {"max_width", &spec.maxWidth},
            {"max_per_copy_bound", &spec.maxPerCopyBound}};
}

std::vector<KeyRow>
keyTable(DesignSection &spec)
{
    std::vector<KeyRow> rows = keyTable(spec.request);
    append(rows, {{"guess_space", &spec.options.guessSpace},
                  {"guess_success_ceiling",
                   &spec.options.guessSuccessCeiling}});
    return rows;
}

std::vector<KeyRow>
keyTable(StructureSpec &spec)
{
    return {{"kind", &spec.kind},
            {"n", &spec.n},
            {"k", &spec.k},
            {"alpha", &spec.device.alpha},
            {"beta", &spec.device.beta},
            {"access_bound", &spec.accessBound},
            {"copies", &spec.copies},
            {"min_reliability", &spec.minReliability},
            {"max_residual", &spec.maxResidual}};
}

std::vector<KeyRow>
keyTable(ShareSpec &spec)
{
    return {{"n", &spec.shares},
            {"k", &spec.threshold},
            {"field_bits", &spec.fieldBits},
            {"unguarded", &spec.unguarded}};
}

std::vector<KeyRow>
keyTable(OtpSection &spec)
{
    return {{"height", &spec.params.height},
            {"copies", &spec.params.copies},
            {"threshold", &spec.params.threshold},
            {"alpha", &spec.params.device.alpha},
            {"beta", &spec.params.device.beta},
            {"receiver_floor", &spec.receiverFloor},
            {"adversary_ceiling", &spec.adversaryCeiling}};
}

std::vector<KeyRow>
keyTable(fault::FaultPlan &spec)
{
    return {{"stuck_closed_rate", &spec.stuckClosedRate},
            {"infant_fraction", &spec.infantFraction},
            {"infant_scale_fraction", &spec.infantScaleFraction},
            {"infant_shape", &spec.infantShape},
            {"glitch_rate", &spec.glitchRate},
            {"alpha_drift_sigma", &spec.alphaDriftSigma},
            {"beta_drift_sigma", &spec.betaDriftSigma}};
}

std::vector<KeyRow>
keyTable(MwaySpec &spec)
{
    return {{"m", &spec.m}, {"module_devices", &spec.moduleDevices}};
}

std::vector<KeyRow>
keyTable(WorkloadSpec &spec)
{
    std::vector<KeyRow> rows = usageProfileTable(spec);
    append(rows, {{"budget", &spec.budgetAccesses},
                  {"horizon_days", &spec.horizonDays}});
    return rows;
}

std::vector<KeyRow>
keyTable(MixtureSpec &spec)
{
    return {{"infant_fraction", &spec.infantFraction},
            {"infant_alpha", &spec.infant.alpha},
            {"infant_beta", &spec.infant.beta},
            {"main_alpha", &spec.main.alpha},
            {"main_beta", &spec.main.beta}};
}

std::vector<KeyRow>
keyTable(FleetSpec &spec)
{
    return {{"devices", &spec.devices},
            {"seed", &spec.seed},
            {"chunk_size", &spec.chunkSize},
            {"checkpoint_interval", &spec.checkpointEveryChunks},
            {"horizon_days", &spec.horizonDays},
            {"premature_days", &spec.prematureDays},
            {"premature_tolerance", &spec.prematureTolerance}};
}

std::vector<KeyRow>
keyTable(FleetCohortSpec &spec)
{
    std::vector<KeyRow> rows = {{"name", &spec.name},
                                {"weight", &spec.weight},
                                {"stagger_days", &spec.staggerDays},
                                {"access_bound", &spec.accessBound}};
    append(rows, usageProfileTable(spec.usage));
    append(rows, keyTable(spec.lifetime));
    append(rows, {{"reprovision_day", &spec.reprovisionDay},
                  {"reprovision_scale", &spec.reprovisionUsageScale}});
    return rows;
}

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
    bool fleetDropped = false;
    using SectionReader = Report (*)(const Section &, ParsedSpec &);
    // Each section's reader: its rule pass and the ParsedSpec vector
    // it joins.
    static const std::map<std::string, SectionReader> sectionTable = {
        {"design", &readInto<&ParsedSpec::designs, checkDesignSection>},
        {"structure", &readInto<&ParsedSpec::structures, checkStructure>},
        {"shares", &readInto<&ParsedSpec::shares, checkShares>},
        {"otp", &readInto<&ParsedSpec::otps, checkOtpSection>},
        {"fault", &readInto<&ParsedSpec::faults, checkFaultPlan>},
        {"mway", &readInto<&ParsedSpec::mways, checkMway>},
        {"workload", &readInto<&ParsedSpec::workloads, checkWorkload>},
        {"mixture", &readInto<&ParsedSpec::mixtures, checkMixture>},
        {"fleet", &readInto<&ParsedSpec::fleets, noRules<FleetSpec>>},
        {"cohort", &readCohort},
    };
    for (const Section &section : sections) {
        const auto found = sectionTable.find(section.name);
        if (found == sectionTable.end()) {
            local.add(Code::L903, "spec", "",
                      lineRef(section.line) + ": unknown section [" +
                          section.name + "]",
                      "known sections: design, structure, shares, "
                      "otp, fault, mway, workload, mixture, fleet, "
                      "cohort");
            continue;
        }
        // The cohorts of a [fleet] that failed to parse go with it:
        // they would otherwise report a false L902 or attach to an
        // earlier fleet and unbalance its weights.
        if (section.name == "cohort" && fleetDropped)
            continue;
        Report sectionReport = found->second(section, parsed);
        if (section.name == "fleet")
            fleetDropped = sectionReport.hasErrors();
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
