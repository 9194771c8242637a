#include "lint/rules.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <string>

namespace lemons::lint {

namespace {

/** Shortest round-trip rendering of a number for messages. */
std::string
num(double v)
{
    std::ostringstream out;
    out << v;
    return out.str();
}

std::string
num(uint64_t v)
{
    return std::to_string(v);
}

bool
positiveFinite(double v)
{
    return std::isfinite(v) && v > 0.0;
}

/** Device-spec errors shared by several passes. */
void
checkDeviceInto(Report &report, Code alphaCode, Code betaCode,
                const std::string &object, const wearout::DeviceSpec &device)
{
    if (!positiveFinite(device.alpha)) {
        report.add(alphaCode, object, "device.alpha",
                   "alpha is " + num(device.alpha) +
                       "; the Weibull scale must be positive and finite",
                   "use the mean device lifetime in cycles, e.g. 10");
    }
    if (!positiveFinite(device.beta)) {
        report.add(betaCode, object, "device.beta",
                   "beta is " + num(device.beta) +
                       "; the Weibull shape must be positive and finite",
                   "use the lot's fitted shape, e.g. 12");
    }
}

/** Plausible NEMS-contact alpha range for L012/L307 plausibility. */
constexpr double minPlausibleAlpha = 1.0;
constexpr double maxPlausibleAlpha = 1e9;

} // namespace

double
designSolveWork(const core::DesignRequest &request)
{
    const double maxBound =
        request.maxPerCopyBound != 0
            ? static_cast<double>(request.maxPerCopyBound)
            : std::ceil(3.0 * request.device.alpha) + 16.0;
    const double steps = std::min(
        maxBound, static_cast<double>(request.legitimateAccessBound));
    if (!request.upperBoundTarget)
        return steps;
    const double width = static_cast<double>(request.maxWidth);
    return steps * (core::overshootReach(request.device, width) + 64.0);
}

Report
checkDesign(const core::DesignRequest &request,
            const DesignLintOptions &options)
{
    Report report;
    const std::string object = "DesignRequest";
    const auto &criteria = request.criteria;

    checkDeviceInto(report, Code::L001, Code::L002, object, request.device);
    if (request.legitimateAccessBound < 1) {
        report.add(Code::L003, object, "legitimateAccessBound",
                   "the LAB is 0; the design must serve at least one "
                   "legitimate access",
                   "size the LAB from the usage profile, e.g. 91250 for "
                   "10 accesses/day over 25 years");
    }
    if (!(request.kFraction >= 0.0 && request.kFraction < 1.0)) {
        report.add(Code::L004, object, "kFraction",
                   "kFraction is " + num(request.kFraction) +
                       "; the encoding fraction must lie in [0, 1)",
                   "0 disables encoding; the paper uses 0.1-0.3");
    }
    const bool minOk =
        criteria.minReliability > 0.0 && criteria.minReliability < 1.0;
    if (!minOk) {
        report.add(Code::L005, object, "criteria.minReliability",
                   "minReliability is " + num(criteria.minReliability) +
                       "; it must lie strictly inside (0, 1)");
    }
    const bool residualOk = criteria.maxResidualReliability > 0.0 &&
                            criteria.maxResidualReliability < 1.0;
    if (!residualOk) {
        report.add(Code::L006, object, "criteria.maxResidualReliability",
                   "maxResidualReliability is " +
                       num(criteria.maxResidualReliability) +
                       "; it must lie strictly inside (0, 1)");
    }
    if (minOk && residualOk &&
        criteria.maxResidualReliability >= criteria.minReliability) {
        report.add(Code::L007, object, "criteria",
                   "maxResidualReliability (" +
                       num(criteria.maxResidualReliability) +
                       ") does not stay below minReliability (" +
                       num(criteria.minReliability) +
                       "): copies would count as dead while still "
                       "serving legitimate users",
                   "keep the residual ceiling well below the "
                   "reliability floor, e.g. 0.01 vs 0.99");
    }
    if (request.upperBoundTarget &&
        *request.upperBoundTarget <= request.legitimateAccessBound) {
        report.add(Code::L008, object, "upperBoundTarget",
                   "upper-bound target " + num(*request.upperBoundTarget) +
                       " does not exceed the LAB " +
                       num(request.legitimateAccessBound),
                   "drop the target or raise it above the LAB");
    }
    if (request.maxWidth < 1) {
        report.add(Code::L009, object, "maxWidth",
                   "maxWidth is 0; the solver needs room for at least "
                   "one device per structure");
    }
    if (options.guessSuccessCeiling &&
        !(*options.guessSuccessCeiling > 0.0 &&
          *options.guessSuccessCeiling < 1.0)) {
        report.add(Code::L014, object, "guessSuccessCeiling",
                   "guess-success ceiling " +
                       num(*options.guessSuccessCeiling) +
                       " is not a probability in (0, 1)",
                   "declare a ceiling strictly between 0 and 1");
    }
    if (report.hasErrors())
        return report;
    const double work = designSolveWork(request);
    if (!(work <= kMaxDesignSolveWork)) {
        report.add(Code::L015, object, "maxPerCopyBound",
                   "solving takes about " + num(work) +
                       " scan steps, past the limit of " +
                       num(kMaxDesignSolveWork),
                   "set max_per_copy_bound to narrow the scan, lower "
                   "the LAB, or drop upper_bound_target");
        return report;
    }

    // Security-feasibility warnings (only meaningful on a sane spec).
    if (options.guessSpace) {
        const double budget =
            request.upperBoundTarget
                ? static_cast<double>(*request.upperBoundTarget)
                : static_cast<double>(request.legitimateAccessBound);
        if (budget >= *options.guessSpace) {
            report.add(Code::L010, object, "legitimateAccessBound",
                       "the hardware concedes up to " + num(budget) +
                           " attempts but the guess space holds only " +
                           num(*options.guessSpace) +
                           " candidates; an attacker inside the access "
                           "bound can exhaust the passcode space",
                       "use a larger passcode space or a smaller "
                       "access bound");
        }
    }
    if (request.device.beta <= 1.0) {
        report.add(Code::L011, object, "device.beta",
                   "beta = " + num(request.device.beta) +
                       " has non-increasing wearout hazard; limited-use "
                       "connections need a sharp knee (the paper's gate "
                       "lots fit beta in 7-13)",
                   "pick a device lot with beta well above 1");
    }
    if (request.device.alpha < minPlausibleAlpha ||
        request.device.alpha > maxPlausibleAlpha) {
        report.add(Code::L012, object, "device.alpha",
                   "alpha = " + num(request.device.alpha) +
                       " cycles is outside the plausible NEMS-contact "
                       "range [" + num(minPlausibleAlpha) + ", " +
                       num(maxPlausibleAlpha) + "]");
    }
    // L013: even the easiest configuration (one access per copy, plain
    // 1-out-of-n) cannot reach the reliability floor within maxWidth.
    // R(1) of a width-n structure is 1 - F(1)^n, so the minimal width
    // is log(1 - minReliability) / log F(1).
    const double logF1 = std::log1p(
        -std::exp(-std::pow(1.0 / request.device.alpha,
                            request.device.beta)));
    if (logF1 < 0.0) { // F(1) < 1; otherwise devices die on access one
        const double neededWidth =
            std::log1p(-criteria.minReliability) / logF1;
        if (neededWidth > static_cast<double>(request.maxWidth)) {
            report.add(Code::L013, object, "maxWidth",
                       "meeting minReliability " +
                           num(criteria.minReliability) +
                           " at a single access already needs width " +
                           num(std::ceil(neededWidth)) +
                           " > maxWidth " + num(request.maxWidth) +
                           "; no (t, n) within the caps is feasible",
                       "raise maxWidth or use a longer-lived device");
        }
    } else if (logF1 == 0.0) {
        // F(1) == 1: every device dies on its first access; no width
        // can serve even one legitimate access reliably.
        report.add(Code::L013, object, "device.alpha",
                   "devices fail on their first access with "
                   "certainty; no structure width can meet the "
                   "reliability floor",
                   "raise alpha or lower beta");
    }
    return report;
}

Report
checkStructure(const StructureSpec &spec)
{
    Report report;
    const bool series = spec.kind == StructureSpec::Kind::Series;
    const std::string object =
        series ? "SeriesChain" : "ParallelStructure";

    if (spec.n < 1) {
        report.add(Code::L201, object, "n",
                   "the structure is empty; it needs at least one device");
    }
    if (!series && spec.n >= 1 && !(spec.k >= 1 && spec.k <= spec.n)) {
        report.add(Code::L202, object, "k",
                   "k = " + num(spec.k) + " outside [1, n = " +
                       num(spec.n) + "]",
                   "k = 1 is the plain parallel structure; k > 1 "
                   "needs matching redundant encoding");
    }
    checkDeviceInto(report, Code::L203, Code::L203, object, spec.device);
    if (report.hasErrors())
        return report;

    if (series && spec.n > 1'000'000) {
        report.add(Code::L204, object, "n",
                   "a series chain of " + num(spec.n) +
                       " devices; chain cost grows as y^beta, which is "
                       "why the paper discards chaining (Section 4.1.2)",
                   "use parallel structures consumed serially instead");
    }
    if (!series && spec.n > 50'000'000) {
        report.add(Code::L205, object, "n",
                   "width " + num(spec.n) + " exceeds the default "
                       "die-area plausibility cap of 5e7 devices");
    }
    if (!series && spec.k > 1 && spec.k * 10 > spec.n * 9) {
        report.add(Code::L206, object, "k",
                   "k = " + num(spec.k) + " of n = " + num(spec.n) +
                       " leaves under 10% share-loss margin before the "
                       "secret is destroyed",
                   "the paper's encodings use k/n of 0.1-0.3");
    }
    // Optional verification criteria reuse the design-criteria codes:
    // the rule is the same whether the numbers arrive via a
    // DesignRequest or an annotated structure.
    const bool minOk = !spec.minReliability ||
                       (*spec.minReliability > 0.0 &&
                        *spec.minReliability < 1.0);
    if (!minOk) {
        report.add(Code::L005, object, "minReliability",
                   "minReliability is " + num(*spec.minReliability) +
                       "; it must lie strictly inside (0, 1)");
    }
    const bool residualOk = !spec.maxResidual ||
                            (*spec.maxResidual > 0.0 &&
                             *spec.maxResidual < 1.0);
    if (!residualOk) {
        report.add(Code::L006, object, "maxResidual",
                   "maxResidual is " + num(*spec.maxResidual) +
                       "; it must lie strictly inside (0, 1)");
    }
    if (minOk && residualOk && spec.minReliability && spec.maxResidual &&
        *spec.maxResidual >= *spec.minReliability) {
        report.add(Code::L007, object, "minReliability/maxResidual",
                   "maxResidual (" + num(*spec.maxResidual) +
                       ") does not stay below minReliability (" +
                       num(*spec.minReliability) + ")",
                   "keep the residual ceiling well below the "
                   "reliability floor, e.g. 0.01 vs 0.99");
    }
    return report;
}

Report
checkShares(const ShareSpec &spec)
{
    Report report;
    const std::string object = "ShareScheme";

    if (spec.fieldBits != 8 && spec.fieldBits != 16) {
        report.add(Code::L105, object, "fieldBits",
                   "field width " + num(uint64_t{spec.fieldBits}) +
                       " bits is unsupported",
                   "use 8 (GF(256) Shamir) or 16 (GF(65536) wide "
                   "scheme)");
    }
    if (spec.threshold < 1) {
        report.add(Code::L101, object, "threshold",
                   "threshold 0 would reconstruct the secret from "
                   "nothing");
    }
    if (spec.threshold > spec.shares) {
        report.add(Code::L102, object, "threshold",
                   "threshold " + num(spec.threshold) +
                       " exceeds the share count " + num(spec.shares) +
                       "; the secret could never be reconstructed");
    }
    if (spec.fieldBits == 8 || spec.fieldBits == 16) {
        const uint64_t capacity =
            (uint64_t{1} << spec.fieldBits) - 1;
        if (spec.shares > capacity) {
            report.add(Code::L103, object, "shares",
                       num(spec.shares) + " shares exceed the " +
                           num(capacity) + " distinct evaluation points "
                           "of GF(2^" + num(uint64_t{spec.fieldBits}) +
                           ")",
                       spec.fieldBits == 8
                           ? "use the 16-bit wide scheme for wider "
                             "structures"
                           : "split the structure into multiple "
                             "schemes");
        }
    }
    if (report.hasErrors())
        return report;

    if (spec.shares == spec.threshold && spec.shares > 1) {
        report.add(Code::L104, object, "threshold",
                   "k == n == " + num(spec.shares) +
                       ": a single worn-out share destroys the secret, "
                       "so wearout provides no degradation window",
                   "issue spare shares (n > k)");
    }
    return report;
}

Report
checkOtp(const core::OtpParams &params)
{
    Report report;
    const std::string object = "OtpParams";

    if (params.height < 1 || params.height > 20) {
        report.add(Code::L301, object, "height",
                   "height " + num(uint64_t{params.height}) +
                       " outside [1, 20]",
                   "the paper evaluates H = 4-16");
    }
    if (params.copies < 1) {
        report.add(Code::L303, object, "copies",
                   "a pad needs at least one tree copy");
    }
    if (params.copies >= 1 &&
        !(params.threshold >= 1 && params.threshold <= params.copies)) {
        report.add(Code::L304, object, "threshold",
                   "threshold " + num(params.threshold) +
                       " outside [1, copies = " + num(params.copies) +
                       "]");
    }
    if (params.copies > 255) {
        report.add(Code::L305, object, "copies",
                   num(params.copies) + " copies exceed the 255 "
                       "evaluation points of the GF(256) Shamir split "
                       "behind each pad key",
                   "use at most 255 copies per pad");
    }
    checkDeviceInto(report, Code::L306, Code::L306, object, params.device);
    if (report.hasErrors())
        return report;

    if (params.height < 4) {
        report.add(Code::L302, object, "height",
                   "height " + num(uint64_t{params.height}) + " gives " +
                       num(uint64_t{1} << (params.height - 1)) +
                       " paths, so a random-path adversary guesses "
                       "right too often (Fig 8b needs H >= 8 for "
                       "negligible success)",
                   "raise the tree height");
    }
    if (params.device.alpha > 1000.0) {
        report.add(Code::L307, object, "device.alpha",
                   "alpha = " + num(params.device.alpha) +
                       " cycles: pad trees survive far past their one "
                       "legitimate traversal, opening a replay/clone "
                       "window",
                   "one-time pads want near-one-shot switches "
                   "(alpha of a few cycles)");
    }
    return report;
}

Report
checkFaultPlan(const fault::FaultPlan &plan)
{
    Report report;
    const std::string object = "FaultPlan";
    const auto inUnit = [](double v) { return v >= 0.0 && v <= 1.0; };

    if (!inUnit(plan.stuckClosedRate)) {
        report.add(Code::L401, object, "stuckClosedRate",
                   "rate " + num(plan.stuckClosedRate) +
                       " outside [0, 1]");
    }
    if (!inUnit(plan.infantFraction)) {
        report.add(Code::L402, object, "infantFraction",
                   "fraction " + num(plan.infantFraction) +
                       " outside [0, 1]");
    }
    if (!(plan.infantScaleFraction > 0.0)) {
        report.add(Code::L403, object, "infantScaleFraction",
                   "scale fraction " + num(plan.infantScaleFraction) +
                       " must be positive");
    }
    if (!(plan.infantShape > 0.0)) {
        report.add(Code::L404, object, "infantShape",
                   "shape " + num(plan.infantShape) +
                       " must be positive");
    }
    if (!inUnit(plan.glitchRate)) {
        report.add(Code::L405, object, "glitchRate",
                   "rate " + num(plan.glitchRate) + " outside [0, 1]");
    }
    if (plan.alphaDriftSigma < 0.0 || plan.betaDriftSigma < 0.0) {
        report.add(Code::L406, object, "alphaDriftSigma/betaDriftSigma",
                   "lognormal sigmas must be non-negative");
    }
    if (report.hasErrors())
        return report;

    if (plan.stuckClosedRate > 0.05) {
        report.add(Code::L407, object, "stuckClosedRate",
                   num(plan.stuckClosedRate * 100.0) +
                       "% of devices never wear out; the shares behind "
                       "them stay readable forever and the attack "
                       "bound collapses",
                   "screen stuck-closed parts at fabrication or model "
                   "a realistic rate (<= 5%)");
    }
    if (plan.infantFraction > 0.0 && plan.infantScaleFraction >= 1.0) {
        report.add(Code::L408, object, "infantScaleFraction",
                   "infant scale " + num(plan.infantScaleFraction) +
                       " x alpha is not early-life; the leg is "
                       "indistinguishable from designed wearout");
    }
    if (plan.infantFraction > 0.0 && plan.infantShape >= 1.0) {
        report.add(Code::L409, object, "infantShape",
                   "infant shape " + num(plan.infantShape) +
                       " >= 1 gives a non-decreasing hazard, which is "
                       "not an infant-mortality mechanism");
    }
    if (plan.glitchRate > 0.5) {
        report.add(Code::L410, object, "glitchRate",
                   "more than half of all actuations misfire; "
                   "legitimate availability collapses");
    }
    if (plan.alphaDriftSigma > 1.0 || plan.betaDriftSigma > 1.0) {
        report.add(Code::L411, object, "alphaDriftSigma/betaDriftSigma",
                   "a lognormal sigma above 1 means order-of-magnitude "
                   "parameter uncertainty; calibrate the lot first");
    }
    return report;
}

Report
checkMway(const MwaySpec &spec)
{
    Report report;
    const std::string object = "MWayReplication";

    if (spec.m < 1) {
        report.add(Code::L501, object, "m",
                   "replication factor 0; at least one module is "
                   "required");
    }
    if (spec.moduleFeasible && !*spec.moduleFeasible) {
        report.add(Code::L503, object, "design",
                   "the per-module design did not solve; replicating "
                   "an infeasible module is still infeasible");
    }
    if (report.hasErrors())
        return report;

    if (spec.m > 10'000) {
        report.add(Code::L502, object, "m",
                   "m = " + num(spec.m) + " modules each need their own "
                       "passcode and a re-wrap migration; the paper's "
                       "heavy-use example is m = 10");
    }
    if (spec.moduleDevices) {
        const double total = static_cast<double>(spec.m) *
                             static_cast<double>(*spec.moduleDevices);
        if (total > 1e9) {
            report.add(Code::L504, object, "m",
                       num(spec.m) + " modules x " +
                           num(*spec.moduleDevices) +
                           " devices = " + num(total) +
                           " total devices, beyond fabrication "
                           "plausibility");
        }
    }
    return report;
}

Report
checkWorkload(const WorkloadSpec &spec)
{
    Report report;
    const std::string object = "UsageProfile";

    if (!positiveFinite(spec.meanPerDay)) {
        report.add(Code::L601, object, "meanPerDay",
                   "mean accesses per day is " + num(spec.meanPerDay) +
                       "; the Poisson rate must be positive and finite",
                   "the paper's smartphone assumption is 50/day");
    }
    if (!(spec.burstProbability >= 0.0 && spec.burstProbability <= 1.0)) {
        report.add(Code::L602, object, "burstProbability",
                   "burst probability " + num(spec.burstProbability) +
                       " outside [0, 1]");
    }
    if (!(std::isfinite(spec.burstMultiplier) &&
          spec.burstMultiplier >= 1.0)) {
        report.add(Code::L603, object, "burstMultiplier",
                   "burst multiplier " + num(spec.burstMultiplier) +
                       " must be at least 1 and finite",
                   "a multiplier of 1 disables bursts");
    }
    if (report.hasErrors())
        return report;

    const double effectiveMean =
        spec.meanPerDay *
        (1.0 + spec.burstProbability * (spec.burstMultiplier - 1.0));
    if (spec.budgetAccesses && spec.horizonDays) {
        const double demand =
            effectiveMean * static_cast<double>(*spec.horizonDays);
        if (static_cast<double>(*spec.budgetAccesses) < demand) {
            report.add(Code::L604, object, "budgetAccesses",
                       "the budget of " + num(*spec.budgetAccesses) +
                           " accesses is below the expected demand of " +
                           num(demand) + " over " + num(*spec.horizonDays) +
                           " days; the device exhausts before the "
                           "horizon more often than not",
                       "raise the budget (or replicate M-way) or "
                       "shorten the horizon");
        }
    }
    if (spec.burstProbability > 0.0 && spec.burstMultiplier > 1.0) {
        const double burstShare =
            spec.burstProbability * spec.burstMultiplier /
            (1.0 - spec.burstProbability +
             spec.burstProbability * spec.burstMultiplier);
        if (burstShare > 0.5) {
            report.add(Code::L605, object, "burstMultiplier",
                       "burst days carry " + num(burstShare * 100.0) +
                           "% of all accesses; the profile is no longer "
                           "a perturbed daily rate",
                       "model the bursty application as its own "
                       "profile instead");
        }
    }
    return report;
}

Report
checkMixture(const MixtureSpec &spec)
{
    Report report;
    const std::string object = "BathtubModel";

    if (!(spec.infantFraction >= 0.0 && spec.infantFraction <= 1.0)) {
        report.add(Code::L701, object, "infantFraction",
                   "mixture weight " + num(spec.infantFraction) +
                       " outside [0, 1]");
    }
    checkDeviceInto(report, Code::L702, Code::L702, object, spec.infant);
    checkDeviceInto(report, Code::L702, Code::L702, object, spec.main);
    if (report.hasErrors())
        return report;

    if (spec.infantFraction > 0.0 && spec.infant.beta >= 1.0) {
        report.add(Code::L703, object, "infant.beta",
                   "infant shape " + num(spec.infant.beta) +
                       " >= 1 gives a non-decreasing hazard, which is "
                       "not an infant-mortality mechanism",
                   "early-life legs use shape < 1 (e.g. 0.8)");
    }
    if (spec.infantFraction > 0.0 &&
        spec.infant.alpha >= spec.main.alpha) {
        report.add(Code::L704, object, "infant.alpha",
                   "infant scale " + num(spec.infant.alpha) +
                       " is not below the main scale " +
                       num(spec.main.alpha) + "; the leg is "
                       "indistinguishable from designed wearout",
                   "early-life scales sit at ~10% of the main alpha");
    }
    return report;
}

Report
checkFleet(const FleetSpec &spec, bool cohortsComplete)
{
    Report report;
    const std::string object = "FleetSpec";

    if (spec.devices < 1)
        report.add(Code::L801, object, "devices",
                   "a fleet needs at least one device");
    if (spec.horizonDays < 1)
        report.add(Code::L802, object, "horizonDays",
                   "a campaign needs at least a one-day horizon");
    if (spec.checkpointEveryChunks < 1)
        report.add(Code::L803, object, "checkpointEveryChunks",
                   "checkpoint interval " +
                       std::to_string(spec.checkpointEveryChunks) +
                       " disables crash recovery",
                   "use a positive chunk count (e.g. 8)");
    if (spec.cohorts.empty()) {
        report.add(Code::L808, object, "cohorts",
                   "the fleet declares no cohorts; the campaign "
                   "simulates nothing",
                   "add at least one [cohort] section");
        return report;
    }

    double weightSum = 0.0;
    for (size_t i = 0; i < spec.cohorts.size(); ++i) {
        const FleetCohortSpec &cohort = spec.cohorts[i];
        const std::string field =
            "cohorts[" + std::to_string(i) + "] '" + cohort.name + "'";
        if (!(cohort.weight > 0.0 && cohort.weight <= 1.0)) {
            report.add(Code::L804, object, field,
                       "weight " + num(cohort.weight) +
                           " outside (0, 1]");
        } else {
            weightSum += cohort.weight;
        }
        if (!(cohort.staggerDays >= 0.0) ||
            !std::isfinite(cohort.staggerDays)) {
            report.add(Code::L806, object, field,
                       "provisioning stagger " + num(cohort.staggerDays) +
                           " days is not a non-negative finite window");
        } else if (spec.horizonDays >= 1 &&
                   cohort.staggerDays >=
                       static_cast<double>(spec.horizonDays)) {
            const double lateShare =
                1.0 - static_cast<double>(spec.horizonDays) /
                          cohort.staggerDays;
            report.add(Code::L813, object, field,
                       "provisioning stagger " + num(cohort.staggerDays) +
                           " days reaches the " +
                           std::to_string(spec.horizonDays) +
                           "-day horizon: " + num(100.0 * lateShare) +
                           "% of the cohort enters after it and serves "
                           "0 days",
                       "shorten the rollout window or extend the "
                       "horizon");
        }
        if (cohort.accessBound < 1)
            report.add(Code::L807, object, field,
                       "access bound 0 locks every device out at "
                       "provisioning time");
        if (!(cohort.reprovisionUsageScale >= 0.0) ||
            !std::isfinite(cohort.reprovisionUsageScale)) {
            report.add(Code::L811, object, field,
                       "re-provisioning usage scale " +
                           num(cohort.reprovisionUsageScale) +
                           " is not non-negative and finite");
        }
        if (cohort.reprovisionDay &&
            *cohort.reprovisionDay >=
                static_cast<double>(spec.horizonDays)) {
            report.add(Code::L809, object, field,
                       "re-provisioning at day " +
                           num(*cohort.reprovisionDay) +
                           " never fires within the " +
                           std::to_string(spec.horizonDays) +
                           "-day horizon");
        }
        report.merge(checkWorkload(cohort.usage));
        report.merge(checkMixture(cohort.lifetime));
    }
    // Tolerate float accumulation, not misconfiguration: 1e-6 allows
    // "0.1 x 10" spellings while catching a forgotten cohort.
    if (cohortsComplete && std::abs(weightSum - 1.0) > 1e-6) {
        report.add(Code::L805, object, "cohorts",
                   "cohort weights sum to " + num(weightSum) +
                       ", not 1: the partition over- or "
                       "under-covers the population",
                   "make the weights a partition of unity");
    }
    if (spec.prematureTolerance &&
        !(*spec.prematureTolerance > 0.0 &&
          *spec.prematureTolerance <= 1.0)) {
        report.add(Code::L812, object, "prematureTolerance",
                   "premature-lockout tolerance " +
                       num(*spec.prematureTolerance) +
                       " is not a probability in (0, 1]",
                   "declare a tolerance in (0, 1] or omit it");
    }
    if (spec.prematureDays >= spec.horizonDays &&
        spec.horizonDays >= 1) {
        report.add(Code::L810, object, "prematureDays",
                   "premature threshold " +
                       std::to_string(spec.prematureDays) +
                       " days >= horizon " +
                       std::to_string(spec.horizonDays) +
                       ": every lockout counts as premature");
    }
    return report;
}

void
checkDesignOrThrow(const core::DesignRequest &request)
{
    const auto &criteria = request.criteria;
    const bool clean =
        positiveFinite(request.device.alpha) &&
        positiveFinite(request.device.beta) &&
        request.legitimateAccessBound >= 1 &&
        request.kFraction >= 0.0 && request.kFraction < 1.0 &&
        criteria.minReliability > 0.0 && criteria.minReliability < 1.0 &&
        criteria.maxResidualReliability > 0.0 &&
        criteria.maxResidualReliability < 1.0 &&
        criteria.maxResidualReliability < criteria.minReliability &&
        (!request.upperBoundTarget ||
         *request.upperBoundTarget > request.legitimateAccessBound) &&
        request.maxWidth >= 1 &&
        designSolveWork(request) <= kMaxDesignSolveWork;
    if (!clean)
        throwOnErrors(checkDesign(request));
}

void
checkSeriesOrThrow(uint64_t n)
{
    if (n >= 1)
        return;
    StructureSpec spec;
    spec.kind = StructureSpec::Kind::Series;
    spec.n = n;
    throwOnErrors(checkStructure(spec));
}

void
checkParallelOrThrow(uint64_t n, uint64_t k)
{
    if (n >= 1 && k >= 1 && k <= n)
        return;
    StructureSpec spec;
    spec.kind = StructureSpec::Kind::Parallel;
    spec.n = n;
    spec.k = k;
    throwOnErrors(checkStructure(spec));
}

void
checkOtpOrThrow(const core::OtpParams &params)
{
    const bool clean = params.height >= 1 && params.height <= 20 &&
                       params.copies >= 1 && params.copies <= 255 &&
                       params.threshold >= 1 &&
                       params.threshold <= params.copies &&
                       positiveFinite(params.device.alpha) &&
                       positiveFinite(params.device.beta);
    if (!clean)
        throwOnErrors(checkOtp(params));
}

void
checkFaultPlanOrThrow(const fault::FaultPlan &plan)
{
    const auto inUnit = [](double v) { return v >= 0.0 && v <= 1.0; };
    const bool clean =
        inUnit(plan.stuckClosedRate) && inUnit(plan.infantFraction) &&
        plan.infantScaleFraction > 0.0 && plan.infantShape > 0.0 &&
        inUnit(plan.glitchRate) && plan.alphaDriftSigma >= 0.0 &&
        plan.betaDriftSigma >= 0.0;
    if (!clean)
        throwOnErrors(checkFaultPlan(plan));
}

void
checkMwayOrThrow(uint64_t m)
{
    if (m >= 1)
        return;
    MwaySpec spec;
    spec.m = m;
    throwOnErrors(checkMway(spec));
}

} // namespace lemons::lint
