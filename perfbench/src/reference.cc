#include "reference.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "api/json.h"

namespace perfbench {

std::string
checkDesign(const lemons::core::Design &design, const DesignRef &expected)
{
    std::ostringstream why;
    if (!design.feasible)
        return "design infeasible";
    const auto field = [&](const char *name, uint64_t got, uint64_t want) {
        if (want != 0 && got != want)
            why << name << " " << got << " != " << want << "; ";
    };
    field("width", design.width, expected.width);
    field("threshold", design.threshold, expected.threshold);
    field("copies", design.copies, expected.copies);
    field("total_devices", design.totalDevices, expected.totalDevices);
    return why.str();
}

uint64_t
poissonQuantile(double mean, double p)
{
    // Mass below mean - 40 sd is far below double resolution, so the
    // sum may start there; log pmf = k ln(mean) - mean - ln k!.
    const double sd = std::sqrt(mean);
    const double start = std::floor(std::max(0.0, mean - 40.0 * sd));
    const double logMean = std::log(mean);
    double cdf = 0.0;
    for (double k = start;; k += 1.0) {
        cdf += std::exp(k * logMean - mean - std::lgamma(k + 1.0));
        if (cdf >= p)
            return static_cast<uint64_t>(k);
    }
}

std::string
checkUsageBudget(uint64_t budget, double mean, uint64_t exactQuantile)
{
    const double tolerance = kUsageToleranceSd * std::sqrt(mean);
    const double error =
        static_cast<double>(budget) - static_cast<double>(exactQuantile);
    if (std::fabs(error) <= tolerance)
        return "";
    std::ostringstream why;
    why << "budget " << budget << " is " << error
        << " from the exact quantile " << exactQuantile << " (tolerance "
        << tolerance << ")";
    return why.str();
}

std::string
checkEnvelope(std::string_view body, std::string_view schema)
{
    const lemons::api::JsonParseResult parsed = lemons::api::parseJson(body);
    if (!parsed.ok)
        return "body is not JSON: " + parsed.error;
    const lemons::api::JsonValue &root = parsed.value;
    if (!root.isObject())
        return "envelope is not an object";
    const lemons::api::JsonValue *tag = root.find("schema");
    if (tag == nullptr || !tag->isString() || tag->asString() != schema)
        return "schema is not " + std::string(schema);
    const lemons::api::JsonValue *ok = root.find("ok");
    if (ok == nullptr || !ok->isBool())
        return "envelope has no boolean ok";
    const lemons::api::JsonValue *diagnostics = root.find("diagnostics");
    if (diagnostics == nullptr || !diagnostics->isArray())
        return "envelope has no diagnostics array";
    if (root.find("result") == nullptr)
        return "envelope has no result member";
    return "";
}

uint64_t
bodyHash(std::string_view bytes)
{
    uint64_t hash = 0xcbf29ce484222325ULL;
    for (const char byte : bytes) {
        hash ^= static_cast<unsigned char>(byte);
        hash *= 0x100000001b3ULL;
    }
    return hash;
}

std::string
checkSameBody(uint64_t servedHash, std::string_view reference,
              const std::string &what)
{
    if (servedHash == bodyHash(reference))
        return "";
    return what + ": served body differs from the in-process reference (" +
           std::to_string(reference.size()) + " reference bytes)";
}

std::pair<double, double>
wilsonInterval(uint64_t successes, uint64_t trials, double z)
{
    const double n = static_cast<double>(trials);
    const double p = static_cast<double>(successes) / n;
    const double z2 = z * z;
    const double centre = (p + z2 / (2.0 * n)) / (1.0 + z2 / n);
    const double half =
        z * std::sqrt(p * (1.0 - p) / n + z2 / (4.0 * n * n)) /
        (1.0 + z2 / n);
    return {std::max(0.0, centre - half), std::min(1.0, centre + half)};
}

std::string
checkOverlap(double lo1, double hi1, double lo2, double hi2,
             const std::string &what)
{
    if (lo1 <= hi2 && lo2 <= hi1)
        return "";
    std::ostringstream why;
    why << what << ": [" << lo1 << ", " << hi1 << "] does not overlap ["
        << lo2 << ", " << hi2 << "]";
    return why.str();
}

std::string
checkSameDigest(uint64_t a, uint64_t b, const std::string &what)
{
    if (a == b)
        return "";
    std::ostringstream why;
    why << what << ": digest " << std::hex << a << " != " << b;
    return why.str();
}

} // namespace perfbench
