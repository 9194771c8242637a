/**
 * @file
 * Corpus replay for api::parseJson, the reader every lemonsd request
 * body goes through. Each seed under tests/corpus/json/ is parsed
 * whole, truncated at every offset, and with each byte flipped in
 * turn. Every input must end in a clean parse or in an error with a
 * message and an offset inside the input, and parsing the same bytes
 * again must give the same outcome; ASan/UBSan builds also prove none
 * of them reads out of bounds.
 *
 * Each file name starts with the outcome of the whole seed: ok_ for a
 * document that parses, err_ for one the strict reader rejects. To add
 * a seed, drop the raw bytes in the directory under such a name.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "api/json.h"

namespace lemons::api {
namespace {

/** The outcome of one parse, as one comparable string. */
std::string
describe(std::string_view text)
{
    const JsonParseResult result = parseJson(text);
    std::ostringstream out;
    if (result.ok) {
        EXPECT_TRUE(result.error.empty());
        EXPECT_EQ(result.offset, 0u);
        out << "ok " << result.value.kindName();
    } else {
        EXPECT_FALSE(result.error.empty());
        EXPECT_LE(result.offset, text.size()) << result.error;
        out << "error " << result.offset << ' ' << result.error;
    }
    return out.str();
}

/** describe(), checked to come out the same on a second parse. */
std::string
replay(std::string_view text)
{
    std::string first = describe(text);
    EXPECT_EQ(describe(text), first);
    return first;
}

TEST(JsonCorpus, WholeTruncatedAndFlippedReplay)
{
    std::vector<std::filesystem::path> seeds;
    for (const auto &entry :
         std::filesystem::directory_iterator(LEMONS_JSON_CORPUS_DIR))
        seeds.push_back(entry.path());
    ASSERT_GE(seeds.size(), 15u);

    for (const std::filesystem::path &seed : seeds) {
        const std::string name = seed.filename().string();
        SCOPED_TRACE(name);
        std::ifstream in(seed, std::ios::binary);
        std::string bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
        const std::string_view all(bytes);

        const std::string whole = replay(all);
        EXPECT_EQ(whole.rfind("ok ", 0) == 0, name.rfind("ok_", 0) == 0)
            << whole;

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
    }
}

} // namespace
} // namespace lemons::api
