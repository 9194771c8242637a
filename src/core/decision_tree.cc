#include "core/decision_tree.h"

#include <algorithm>
#include <cmath>

#include "crypto/sha256.h"
#include "shamir/shamir.h"
#include "util/math.h"
#include "util/require.h"
#include "wearout/weibull.h"

namespace lemons::core {

namespace {

void
validateParams(const OtpParams &p)
{
    requireArg(p.height >= 1 && p.height <= 20,
               "OtpParams: height must lie in [1, 20]");
    requireArg(p.copies >= 1, "OtpParams: need at least one copy");
    requireArg(p.threshold >= 1 && p.threshold <= p.copies,
               "OtpParams: threshold must satisfy 1 <= k <= copies");
    requireArg(p.device.alpha > 0.0 && p.device.beta > 0.0,
               "OtpParams: device parameters must be positive");
}

} // namespace

OtpAnalytics::OtpAnalytics(const OtpParams &params) : spec(params)
{
    validateParams(spec);
    logPathSuccessValue =
        static_cast<double>(spec.height) *
        wearout::Weibull(spec.device.alpha, spec.device.beta)
            .logReliability(1.0);
}

double
OtpAnalytics::pathSuccess() const
{
    return std::exp(logPathSuccessValue);
}

double
OtpAnalytics::receiverSuccess() const
{
    return binomialTailAtLeast(spec.copies, spec.threshold, pathSuccess());
}

double
OtpAnalytics::pathCount() const
{
    return std::ldexp(1.0, static_cast<int>(spec.height) - 1);
}

double
OtpAnalytics::logAdversarySuccess() const
{
    return logAdversarySuccessAt(pathSuccess());
}

double
OtpAnalytics::pathSuccessWithStuckClosed(double epsilon) const
{
    requireArg(epsilon >= 0.0 && epsilon <= 1.0,
               "OtpAnalytics: stuck-closed rate outside [0, 1]");
    const double perSwitch =
        epsilon +
        (1.0 - epsilon) *
            wearout::Weibull(spec.device.alpha, spec.device.beta)
                .reliability(1.0);
    return std::pow(perSwitch, static_cast<double>(spec.height));
}

double
OtpAnalytics::adversarySuccessWithStuckClosed(double epsilon) const
{
    return std::exp(
        logAdversarySuccessAt(pathSuccessWithStuckClosed(epsilon)));
}

double
OtpAnalytics::logAdversarySuccessAt(double s) const
{
    // Eq. 15: sum over x (paths the adversary gets through) of
    //   P(x successes out of n) * P(>= k of those x are the right path)
    // with per-copy traversal success s (Eq. 12) and right-path
    // probability P = 2^-(H-1) (Eq. 11).
    const double pRight = 1.0 / pathCount();
    std::vector<double> terms;
    terms.reserve(spec.copies - spec.threshold + 1);
    for (uint64_t x = spec.threshold; x <= spec.copies; ++x) {
        const double logProbX = logBinomialPmf(spec.copies, x, s);
        const double logProbRight =
            logBinomialTailAtLeast(x, spec.threshold, pRight);
        terms.push_back(logProbX + logProbRight);
    }
    return logSumExp(terms);
}

double
OtpAnalytics::adversarySuccess() const
{
    return std::exp(logAdversarySuccess());
}

DecisionTree::DecisionTree(unsigned height,
                           std::vector<std::vector<uint8_t>> leafPayloads,
                           const wearout::DeviceFactory &factory, Rng &rng)
    : h(height)
{
    requireArg(height >= 1 && height <= 20,
               "DecisionTree: height must lie in [1, 20]");
    requireArg(leafPayloads.size() == leafCount(),
               "DecisionTree: need exactly 2^(H-1) leaf payloads");

    const uint64_t switchCount = (uint64_t{1} << h) - 1;
    switches.reserve(switchCount);
    for (uint64_t i = 0; i < switchCount; ++i)
        switches.emplace_back(factory.sampleLifetime(rng));

    leaves.reserve(leafPayloads.size());
    for (auto &payload : leafPayloads)
        leaves.emplace_back(std::move(payload), /*destructive=*/true);
}

std::optional<std::vector<uint8_t>>
DecisionTree::traverse(uint64_t pathBits)
{
    requireArg(pathBits < leafCount(),
               "DecisionTree::traverse: path out of range");
    ++traversals;
    for (unsigned level = 0; level < h; ++level) {
        // Level 0 is the entry switch; the first l path bits select the
        // node at level l.
        const uint64_t nodeIndex =
            level == 0 ? 0 : (pathBits & ((uint64_t{1} << level) - 1));
        const uint64_t offset = (uint64_t{1} << level) - 1;
        if (!switches[offset + nodeIndex].actuate())
            return std::nullopt; // path broken; deeper switches untouched
    }
    return leaves[pathBits].read();
}

OneTimePad::OneTimePad(const OtpParams &params,
                       const std::vector<uint8_t> &padKey,
                       uint64_t rightPath,
                       const wearout::DeviceFactory &factory, Rng &rng)
    : spec(params), secretPath(rightPath), keySize(padKey.size()),
      keyCommitment(crypto::sha256(padKey))
{
    validateParams(spec);
    requireArg(spec.copies <= 255,
               "OneTimePad: runtime pads support at most 255 copies "
               "(GF(2^8) share indices)");
    requireArg(!padKey.empty(), "OneTimePad: pad key must be non-empty");
    const uint64_t paths = uint64_t{1} << (spec.height - 1);
    requireArg(rightPath < paths, "OneTimePad: right path out of range");

    const shamir::Scheme scheme(spec.threshold, spec.copies);
    const std::vector<shamir::Share> shares = scheme.split(padKey, rng);

    trees.reserve(spec.copies);
    for (uint64_t c = 0; c < spec.copies; ++c) {
        std::vector<std::vector<uint8_t>> leafPayloads(paths);
        for (uint64_t leaf = 0; leaf < paths; ++leaf) {
            std::vector<uint8_t> payload(keySize + 1);
            if (leaf == secretPath) {
                payload[0] = shares[c].index;
                std::copy(shares[c].payload.begin(),
                          shares[c].payload.end(), payload.begin() + 1);
            } else {
                // Decoy: indistinguishable random bytes.
                for (auto &byte : payload)
                    byte = static_cast<uint8_t>(rng.nextBelow(256));
            }
            leafPayloads[leaf] = std::move(payload);
        }
        trees.emplace_back(spec.height, std::move(leafPayloads), factory,
                           rng);
    }
}

std::vector<std::vector<uint8_t>>
OneTimePad::collect(uint64_t pathBits)
{
    std::vector<std::vector<uint8_t>> payloads;
    for (DecisionTree &tree : trees) {
        auto payload = tree.traverse(pathBits);
        if (payload)
            payloads.push_back(std::move(*payload));
    }
    return payloads;
}

std::optional<std::vector<uint8_t>>
OneTimePad::combineShares(
    const std::vector<std::vector<uint8_t>> &payloads) const
{
    std::vector<shamir::Share> shares;
    for (const auto &payload : payloads) {
        if (payload.size() != keySize + 1)
            continue;
        shamir::Share share;
        share.index = payload[0];
        share.payload.assign(payload.begin() + 1, payload.end());
        shares.push_back(std::move(share));
    }
    if (shares.size() < spec.threshold)
        return std::nullopt;
    const shamir::Scheme scheme(spec.threshold, spec.copies);
    auto key = scheme.combine(shares);
    if (!key || crypto::sha256(*key) != keyCommitment)
        return std::nullopt; // decoy / corrupted reconstruction
    return key;
}

std::optional<std::vector<uint8_t>>
OneTimePad::retrieve(uint64_t pathBits)
{
    return combineShares(collect(pathBits));
}

std::optional<std::vector<uint8_t>>
OneTimePad::randomPathAttack(Rng &attackerRng)
{
    // Eq. 13-14's adversary model: one uniformly random path trial per
    // copy. We even over-credit the attacker by assuming they can tell
    // genuine shares from decoys, so the simulated success rate upper-
    // bounds the analytic one.
    const uint64_t paths = uint64_t{1} << (spec.height - 1);
    std::vector<std::vector<uint8_t>> genuine;
    for (DecisionTree &tree : trees) {
        const uint64_t guess = attackerRng.nextBelow(paths);
        auto payload = tree.traverse(guess);
        if (payload && guess == secretPath)
            genuine.push_back(std::move(*payload));
    }
    if (genuine.size() < spec.threshold)
        return std::nullopt;
    return combineShares(genuine);
}

} // namespace lemons::core
