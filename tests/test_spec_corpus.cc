/**
 * @file
 * Corpus replay for the `.lemons` spec check (analysis::checkSpec),
 * which every spec read by `lemons-lint` or posted to lemonsd goes
 * through. The seeds are the shipped configs and seeded violations
 * under examples/configs/ plus the error seeds under
 * tests/corpus/lemons/. Each seed is checked at analyze depth whole,
 * truncated at every offset, and with each byte flipped in turn.
 * Every run must return without throwing, give the same findings and
 * brackets when run again, and render a lemons-api/1 envelope that
 * api::parseJson accepts; ASan/UBSan builds also prove none of them
 * reads out of bounds.
 *
 * Each file name under tests/corpus/lemons/ starts with the code the
 * whole seed must raise (L906_empty.lemons raises L906). To add a
 * seed, drop the spec in the directory under such a name.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/report.h"
#include "api/codec.h"
#include "api/json.h"

namespace lemons {
namespace {

/** The envelope of one check, checked to be JSON parseJson takes. */
std::string
describe(std::string_view text)
{
    std::string envelope;
    EXPECT_NO_THROW({
        const analysis::AnalyzedFile checked = analysis::checkSpec(
            text, "seed.lemons", analysis::CheckDepth::Analyze);
        envelope = api::renderAnalysisEnvelope({checked});
    });
    const api::JsonParseResult parsed = api::parseJson(envelope);
    EXPECT_TRUE(parsed.ok) << parsed.error << " at byte "
                           << parsed.offset << "\n"
                           << envelope;
    return envelope;
}

/** describe(), checked to come out the same on a second run. */
std::string
replay(std::string_view text)
{
    std::string first = describe(text);
    EXPECT_EQ(describe(text), first);
    return first;
}

std::vector<std::filesystem::path>
specsIn(const std::filesystem::path &directory)
{
    std::vector<std::filesystem::path> specs;
    for (const auto &entry : std::filesystem::directory_iterator(directory))
        if (entry.path().extension() == ".lemons")
            specs.push_back(entry.path());
    return specs;
}

/**
 * Replay @p seed whole, truncated at every offset and with each byte
 * flipped; returns the envelope of the whole seed.
 */
std::string
replaySeed(const std::filesystem::path &seed)
{
    std::ifstream in(seed, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    const std::string_view all(bytes);

    const std::string whole = replay(all);
    for (size_t cut = 0; cut < all.size(); ++cut) {
        SCOPED_TRACE("truncated at " + std::to_string(cut));
        replay(all.substr(0, cut));
    }
    for (size_t at = 0; at < bytes.size(); ++at) {
        SCOPED_TRACE("byte " + std::to_string(at) + " flipped");
        bytes[at] = static_cast<char>(~bytes[at]);
        replay(bytes);
        bytes[at] = static_cast<char>(~bytes[at]);
    }
    return whole;
}

TEST(SpecCorpus, ShippedConfigsReplay)
{
    const std::filesystem::path configs(LEMONS_CONFIG_DIR);
    std::vector<std::filesystem::path> seeds = specsIn(configs);
    for (const std::filesystem::path &seed :
         specsIn(configs / "violations"))
        seeds.push_back(seed);
    ASSERT_EQ(seeds.size(), 13u);
    for (const std::filesystem::path &seed : seeds) {
        SCOPED_TRACE(seed.filename().string());
        replaySeed(seed);
    }
}

TEST(SpecCorpus, ErrorSeedsReplayAndRaiseTheirCode)
{
    const std::vector<std::filesystem::path> seeds =
        specsIn(LEMONS_SPEC_CORPUS_DIR);
    ASSERT_GE(seeds.size(), 4u);
    for (const std::filesystem::path &seed : seeds) {
        const std::string name = seed.filename().string();
        SCOPED_TRACE(name);
        const std::string whole = replaySeed(seed);
        const std::string code = name.substr(0, name.find('_'));
        EXPECT_NE(whole.find("\"code\":\"" + code + "\""),
                  std::string::npos)
            << whole;
    }
}

} // namespace
} // namespace lemons
