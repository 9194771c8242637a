/**
 * @file
 * Randomized cross-module round-trip fuzzing: hundreds of random
 * configurations and payloads through every coding/crypto substrate,
 * asserting the invariants that the architectures rely on. Seeds are
 * fixed, so failures are reproducible.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <optional>
#include <string>
#include <vector>

#include "analysis/passes.h"
#include "analysis/report.h"
#include "crypto/hmac.h"
#include "crypto/otp.h"
#include "crypto/sha256.h"
#include "ir/graph.h"
#include "ir/lower.h"
#include "lint/spec_file.h"
#include "rs/reed_solomon.h"
#include "shamir/shamir.h"
#include "shamir/shamir16.h"
#include "util/rng.h"
#include "verify/passes.h"

namespace lemons {
namespace {

std::vector<uint8_t>
randomBytes(Rng &rng, size_t size)
{
    std::vector<uint8_t> out(size);
    for (auto &b : out)
        b = static_cast<uint8_t>(rng.nextBelow(256));
    return out;
}

TEST(Fuzz, ShamirRandomConfigurations)
{
    Rng rng(0xf00d);
    for (int trial = 0; trial < 300; ++trial) {
        const size_t n = 1 + static_cast<size_t>(rng.nextBelow(255));
        const size_t k = 1 + static_cast<size_t>(rng.nextBelow(n));
        const size_t len = static_cast<size_t>(rng.nextBelow(80));
        const shamir::Scheme scheme(k, n);
        const auto secret = randomBytes(rng, len);
        auto shares = scheme.split(secret, rng);
        // Shuffle and keep a random superset of k shares.
        for (size_t i = shares.size(); i > 1; --i)
            std::swap(shares[i - 1],
                      shares[rng.nextBelow(i)]);
        const size_t keep =
            k + static_cast<size_t>(rng.nextBelow(n - k + 1));
        shares.resize(keep);
        const auto recovered = scheme.combine(shares);
        ASSERT_TRUE(recovered.has_value()) << "trial " << trial;
        ASSERT_EQ(*recovered, secret) << "trial " << trial;
    }
}

TEST(Fuzz, WideShamirRandomConfigurations)
{
    Rng rng(0xf00e);
    for (int trial = 0; trial < 60; ++trial) {
        const size_t n = 2 + static_cast<size_t>(rng.nextBelow(2000));
        const size_t k = 1 + static_cast<size_t>(rng.nextBelow(
                                 std::min<size_t>(n, 64)));
        const size_t len = static_cast<size_t>(rng.nextBelow(48));
        const shamir::WideScheme scheme(k, n);
        const auto secret = randomBytes(rng, len);
        auto shares = scheme.split(secret, rng);
        for (size_t i = shares.size(); i > 1; --i)
            std::swap(shares[i - 1], shares[rng.nextBelow(i)]);
        shares.resize(k);
        const auto recovered = scheme.combine(shares, len);
        ASSERT_TRUE(recovered.has_value()) << "trial " << trial;
        ASSERT_EQ(*recovered, secret) << "trial " << trial;
    }
}

TEST(Fuzz, RsErasureRandomConfigurations)
{
    Rng rng(0xf00f);
    for (int trial = 0; trial < 300; ++trial) {
        const size_t n = 1 + static_cast<size_t>(rng.nextBelow(255));
        const size_t k = 1 + static_cast<size_t>(rng.nextBelow(n));
        const size_t len = static_cast<size_t>(rng.nextBelow(64));
        const rs::RsCode code(k, n);
        const auto message = randomBytes(rng, len);
        auto shares = code.encode(message);
        for (size_t i = shares.size(); i > 1; --i)
            std::swap(shares[i - 1], shares[rng.nextBelow(i)]);
        shares.resize(k);
        const auto decoded = code.decode(shares, len);
        ASSERT_TRUE(decoded.has_value()) << "trial " << trial;
        ASSERT_EQ(*decoded, message) << "trial " << trial;
    }
}

TEST(Fuzz, OtpRoundTripsAnyLength)
{
    Rng rng(0xf011);
    for (int trial = 0; trial < 500; ++trial) {
        const size_t len = static_cast<size_t>(rng.nextBelow(512));
        const auto message = randomBytes(rng, len);
        const auto pad = crypto::generatePad(
            rng, len + static_cast<size_t>(rng.nextBelow(32)));
        ASSERT_EQ(crypto::otpApply(crypto::otpApply(message, pad), pad),
                  message)
            << "trial " << trial;
    }
}

TEST(Fuzz, Sha256IncrementalSplitsAgree)
{
    Rng rng(0xf012);
    for (int trial = 0; trial < 200; ++trial) {
        const size_t len = static_cast<size_t>(rng.nextBelow(600));
        const auto message = randomBytes(rng, len);
        const auto oneShot = crypto::sha256(message);
        crypto::Sha256 incremental;
        size_t offset = 0;
        while (offset < len) {
            const size_t chunk = 1 + static_cast<size_t>(rng.nextBelow(
                                         len - offset));
            incremental.update(message.data() + offset, chunk);
            offset += chunk;
        }
        ASSERT_EQ(incremental.finalize(), oneShot) << "trial " << trial;
    }
}

TEST(Fuzz, HkdfLengthsAndPrefixes)
{
    Rng rng(0xf013);
    for (int trial = 0; trial < 200; ++trial) {
        const auto ikm = randomBytes(
            rng, 1 + static_cast<size_t>(rng.nextBelow(64)));
        const auto salt =
            randomBytes(rng, static_cast<size_t>(rng.nextBelow(64)));
        const size_t len =
            1 + static_cast<size_t>(rng.nextBelow(200));
        const auto longKey = crypto::deriveKey(ikm, salt, "fuzz", len);
        ASSERT_EQ(longKey.size(), len);
        // Prefix-consistency: a shorter request is a prefix.
        const size_t shorter =
            1 + static_cast<size_t>(rng.nextBelow(len));
        const auto shortKey =
            crypto::deriveKey(ikm, salt, "fuzz", shorter);
        ASSERT_TRUE(std::equal(shortKey.begin(), shortKey.end(),
                               longKey.begin()))
            << "trial " << trial;
    }
}

TEST(Fuzz, SpecVerifyPipelineNeverThrows)
{
    // Random .lemons text through the whole static pipeline: parse ->
    // lower -> all verifier passes. Nothing here may throw or crash —
    // malformed input becomes L-diagnostics, degenerate-but-parseable
    // input becomes V901 or vacuous brackets. Numeric values come from
    // a bounded pool so the design solver's exhaustive-in-t search
    // stays fast even when a random alpha lands in [design].
    static const char *const sections[] = {
        "design", "structure", "shares",   "otp",     "fault",
        "mway",   "workload",  "mixture",  "nonsense"};
    static const char *const keys[] = {
        "alpha",          "beta",
        "lab",            "k_fraction",
        "n",              "k",
        "kind",           "copies",
        "access_bound",   "min_reliability",
        "max_residual",   "height",
        "threshold",      "field_bits",
        "unguarded",      "stuck_closed_rate",
        "glitch_rate",    "mean_per_day",
        "burst_probability", "burst_multiplier",
        "budget",         "horizon_days",
        "infant_fraction", "infant_alpha",
        "infant_beta",    "main_alpha",
        "main_beta",      "m",
        "frobnicate"};
    static const char *const values[] = {
        "0",    "1",   "4",      "8",   "12",  "16",  "40",
        "105",  "1000", "0.01",  "0.1", "0.5", "0.99", "1.5",
        "10",   "-3",  "nan",    "banana", "series", "parallel"};

    Rng rng(0xf014);
    for (int trial = 0; trial < 120; ++trial) {
        std::string text;
        const uint64_t sectionCount = rng.nextBelow(4);
        for (uint64_t s = 0; s < sectionCount; ++s) {
            text += "[";
            text += sections[rng.nextBelow(std::size(sections))];
            text += "]\n";
            const uint64_t lineCount = rng.nextBelow(8);
            for (uint64_t line = 0; line < lineCount; ++line) {
                text += keys[rng.nextBelow(std::size(keys))];
                text += " = ";
                text += values[rng.nextBelow(std::size(values))];
                text += "\n";
            }
        }
        lint::Report parseReport;
        const lint::ParsedSpec spec =
            lint::parseSpec(text, "fuzz", parseReport);
        lint::Report lowerReport;
        const std::vector<ir::Graph> graphs =
            ir::lowerSpec(spec, lowerReport);
        for (const ir::Graph &graph : graphs) {
            const lint::Report verdict = verify::verifyGraph(graph);
            ASSERT_LT(verdict.diagnostics().size(), 1000u)
                << "trial " << trial << "\n"
                << text;
        }
    }
}

TEST(Fuzz, RandomGraphsVerifyWithoutCrashing)
{
    // Hand-built random graphs, including cyclic ones, degenerate
    // devices, and obligations pointing at arbitrary nodes: every
    // verifier pass must stay total.
    static const ir::NodeKind kinds[] = {
        ir::NodeKind::SecretSource, ir::NodeKind::Device,
        ir::NodeKind::Series,       ir::NodeKind::Parallel,
        ir::NodeKind::Replicate,    ir::NodeKind::Store,
        ir::NodeKind::Sink};
    static const double alphas[] = {0.0, 1.0, 10.0};
    static const double betas[] = {0.0, 0.8, 1.0, 12.0};
    static const double accesses[] = {-1.0, 0.0, 1.0, 5.0, 13.0};
    static const double levels[] = {0.0, 1e-6, 0.5, 0.99, 1.0, 100.0};

    Rng rng(0xf015);
    for (int trial = 0; trial < 200; ++trial) {
        ir::Graph graph("fuzz");
        const uint64_t nodeCount = 1 + rng.nextBelow(8);
        for (uint64_t i = 0; i < nodeCount; ++i) {
            ir::Node node;
            node.kind = kinds[rng.nextBelow(std::size(kinds))];
            node.label = "n" + std::to_string(i);
            node.device = {alphas[rng.nextBelow(std::size(alphas))],
                           betas[rng.nextBelow(std::size(betas))]};
            node.n = rng.nextBelow(300);
            node.k = rng.nextBelow(300);
            node.count = rng.nextBelow(50);
            node.shareThreshold = rng.nextBelow(20);
            graph.add(std::move(node));
        }
        for (uint64_t from = 0; from + 1 < nodeCount; ++from)
            for (uint64_t to = from + 1; to < nodeCount; ++to)
                if (rng.nextBelow(3) == 0)
                    graph.connect(static_cast<ir::NodeId>(from),
                                  static_cast<ir::NodeId>(to));
        if (nodeCount > 1 && rng.nextBelow(5) == 0) {
            // Occasional back edge: the passes must reject the cycle
            // (V901) instead of recursing forever.
            const auto to = static_cast<ir::NodeId>(rng.nextBelow(
                nodeCount - 1));
            const auto from = static_cast<ir::NodeId>(
                to + 1 + rng.nextBelow(nodeCount - to - 1));
            graph.connect(from, to);
        }
        const uint64_t obligationCount = rng.nextBelow(4);
        for (uint64_t i = 0; i < obligationCount; ++i) {
            ir::Obligation obligation;
            obligation.kind = static_cast<ir::Obligation::Kind>(
                rng.nextBelow(4));
            obligation.target =
                static_cast<ir::NodeId>(rng.nextBelow(nodeCount));
            obligation.access =
                accesses[rng.nextBelow(std::size(accesses))];
            obligation.floor = levels[rng.nextBelow(std::size(levels))];
            obligation.ceiling = levels[rng.nextBelow(std::size(levels))];
            obligation.hasFloor = rng.nextBelow(2) == 0;
            obligation.hasCeiling = rng.nextBelow(2) == 0;
            graph.addObligation(obligation);
        }
        const lint::Report report = verify::verifyGraph(graph);
        ASSERT_LT(report.diagnostics().size(), 1000u)
            << "trial " << trial;
    }
}

TEST(Fuzz, SpecAnalyzePipelineNeverThrows)
{
    // Random .lemons text through the wear-budget analyzer: parse ->
    // lower -> capacity/demand dataflow -> A-code passes. The pool
    // leans on the analyzer's own sections and keys ([fleet]/[cohort]
    // tolerances, workload budgets, guessing ceilings) so the demand
    // and adversary paths actually execute; malformed values must
    // become top brackets or diagnostics, never exceptions.
    static const char *const sections[] = {
        "design", "structure", "shares",  "otp",    "workload",
        "mixture", "fleet",    "cohort",  "mway",   "nonsense"};
    static const char *const keys[] = {
        "alpha",            "beta",
        "lab",              "k_fraction",
        "n",                "k",
        "kind",             "field_bits",
        "unguarded",        "mean_per_day",
        "burst_probability", "burst_multiplier",
        "budget",           "horizon_days",
        "infant_fraction",  "infant_alpha",
        "infant_beta",      "main_alpha",
        "main_beta",        "devices",
        "seed",             "premature_days",
        "premature_tolerance", "weight",
        "stagger_days",     "access_bound",
        "reprovision_day",  "reprovision_scale",
        "guess_space",      "guess_success_ceiling",
        "min_reliability",  "max_residual_reliability",
        "frobnicate"};
    static const char *const values[] = {
        "0",    "1",    "4",     "12",    "100",   "365",  "1825",
        "91250", "1e5", "0.01",  "0.1",   "0.5",   "0.99", "1.5",
        "-3",   "nan",  "inf",   "banana", "parallel", "1e300"};

    Rng rng(0xf016);
    for (int trial = 0; trial < 120; ++trial) {
        std::string text;
        const uint64_t sectionCount = rng.nextBelow(5);
        for (uint64_t s = 0; s < sectionCount; ++s) {
            text += "[";
            text += sections[rng.nextBelow(std::size(sections))];
            text += "]\n";
            const uint64_t lineCount = rng.nextBelow(8);
            for (uint64_t line = 0; line < lineCount; ++line) {
                text += keys[rng.nextBelow(std::size(keys))];
                text += " = ";
                text += values[rng.nextBelow(std::size(values))];
                text += "\n";
            }
        }
        const analysis::FileAnalysis analyzed =
            analysis::checkSpec(text, "fuzz", analysis::CheckDepth::Analyze)
                .analysis;
        // Every finding the analyzer emits is from its own catalog.
        for (const lint::Diagnostic &d :
             analyzed.findings.diagnostics())
            ASSERT_EQ(d.id()[0], 'A') << "trial " << trial << "\n"
                                      << text;
    }
}

TEST(Fuzz, RandomGraphsPropagateSoundBrackets)
{
    // Hand-built random graphs, including cyclic ones and degenerate
    // node parameters, through the budget dataflow: the pass must
    // stay total and every bracket it emits must be well-formed
    // (lo <= hi, lo >= 0), with cycles collapsing to the vacuous
    // all-top result.
    static const ir::NodeKind kinds[] = {
        ir::NodeKind::SecretSource, ir::NodeKind::Device,
        ir::NodeKind::Series,       ir::NodeKind::Parallel,
        ir::NodeKind::Replicate,    ir::NodeKind::Store,
        ir::NodeKind::Sink};
    static const double alphas[] = {0.0, 1.0, 10.0};
    static const double betas[] = {0.0, 0.8, 1.0, 12.0};
    static const double demands[] = {0.0, 1.0, 400.0, 1e9};

    Rng rng(0xf017);
    for (int trial = 0; trial < 200; ++trial) {
        ir::Graph graph("fuzz");
        const uint64_t nodeCount = 1 + rng.nextBelow(8);
        for (uint64_t i = 0; i < nodeCount; ++i) {
            ir::Node node;
            node.kind = kinds[rng.nextBelow(std::size(kinds))];
            node.label = "n" + std::to_string(i);
            node.device = {alphas[rng.nextBelow(std::size(alphas))],
                           betas[rng.nextBelow(std::size(betas))]};
            node.n = rng.nextBelow(300);
            node.k = rng.nextBelow(300);
            node.count = rng.nextBelow(50);
            graph.add(std::move(node));
        }
        for (uint64_t from = 0; from + 1 < nodeCount; ++from)
            for (uint64_t to = from + 1; to < nodeCount; ++to)
                if (rng.nextBelow(3) == 0)
                    graph.connect(static_cast<ir::NodeId>(from),
                                  static_cast<ir::NodeId>(to));
        if (nodeCount > 1 && rng.nextBelow(5) == 0) {
            // Occasional back edge; it only closes a cycle when a
            // forward path already links the endpoints, so the ground
            // truth comes from topoOrder below.
            const auto to = static_cast<ir::NodeId>(rng.nextBelow(
                nodeCount - 1));
            const auto from = static_cast<ir::NodeId>(
                to + 1 + rng.nextBelow(nodeCount - to - 1));
            graph.connect(from, to);
        }
        const bool cyclic = graph.topoOrder().empty();
        std::optional<analysis::AccessBracket> demand;
        if (rng.nextBelow(2) == 0)
            demand = analysis::AccessBracket::point(
                demands[rng.nextBelow(std::size(demands))]);

        const analysis::GraphBudget budget =
            analysis::propagateBudgets(graph, demand);
        if (cyclic) {
            ASSERT_TRUE(budget.vacuous) << "trial " << trial;
            ASSERT_TRUE(budget.systemCapacity.isTop());
        }
        ASSERT_EQ(budget.nodes.size(), graph.size());
        for (const analysis::NodeBudget &node : budget.nodes) {
            ASSERT_GE(node.capacity.lo, 0.0) << "trial " << trial;
            ASSERT_LE(node.capacity.lo, node.capacity.hi)
                << "trial " << trial;
            ASSERT_GE(node.demand.lo, 0.0) << "trial " << trial;
            ASSERT_LE(node.demand.lo, node.demand.hi)
                << "trial " << trial;
        }
    }
}

} // namespace
} // namespace lemons
