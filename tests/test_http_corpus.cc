/**
 * @file
 * Corpus replay for serve::RequestParser. lemonsd's reactor feeds the
 * parser whatever each recv() returned, so the parse must not depend
 * on where the byte stream was cut: every seed request under
 * tests/corpus/http/ is fed whole, byte by byte, and split in two at
 * every offset, and all three must end in the same complete/failed
 * state, S-code, status, message, method, target, headers and body —
 * both before and after finish() signals end-of-stream.
 *
 * Each file name starts with the status the server answers it with:
 * 200 for a request that parses, otherwise the parser's error status.
 * To add a seed, drop the raw request bytes in the directory under
 * such a name; no libFuzzer is needed.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "serve/http.h"

namespace lemons::serve {
namespace {

/** Small limits so the oversized seeds stay small files. */
constexpr HttpLimits kLimits{1024, 512};

/** Everything observable about a parser, as one comparable string. */
std::string
describe(const RequestParser &parser)
{
    std::ostringstream out;
    if (parser.complete()) {
        const HttpRequest &request = parser.request();
        out << "complete " << request.method << ' ' << request.target << ' '
            << request.version << '\n';
        for (const auto &[name, value] : request.headers)
            out << name << ": " << value << '\n';
        out << "body " << request.body.size() << ' ' << request.body;
    } else if (parser.failed()) {
        out << "failed " << lint::codeInfo(parser.errorCode()).id << ' '
            << parser.errorStatus() << ' ' << parser.errorMessage();
    } else {
        out << "pending";
    }
    return out.str();
}

/** Feed @p pieces in order; the states before and after finish(). */
std::pair<std::string, std::string>
replay(const std::vector<std::string_view> &pieces)
{
    RequestParser parser(kLimits);
    for (const std::string_view piece : pieces)
        parser.feed(piece);
    std::string fed = describe(parser);
    parser.finish();
    return {std::move(fed), describe(parser)};
}

TEST(HttpCorpus, SplitInvariantReplay)
{
    std::vector<std::filesystem::path> seeds;
    for (const auto &entry :
         std::filesystem::directory_iterator(LEMONS_HTTP_CORPUS_DIR))
        seeds.push_back(entry.path());
    ASSERT_GE(seeds.size(), 15u);

    for (const std::filesystem::path &seed : seeds) {
        SCOPED_TRACE(seed.filename().string());
        std::ifstream in(seed, std::ios::binary);
        const std::string bytes((std::istreambuf_iterator<char>(in)),
                                std::istreambuf_iterator<char>());
        const std::string_view all(bytes);

        const auto whole = replay({all});
        RequestParser final(kLimits);
        final.feed(all);
        final.finish();
        const int expected = std::atoi(seed.filename().c_str());
        EXPECT_EQ(final.complete() ? 200 : final.errorStatus(), expected)
            << whole.second;

        std::vector<std::string_view> bytewise;
        for (size_t i = 0; i < all.size(); ++i)
            bytewise.push_back(all.substr(i, 1));
        EXPECT_EQ(replay(bytewise), whole) << "byte by byte";

        for (size_t cut = 0; cut <= all.size(); ++cut)
            EXPECT_EQ(replay({all.substr(0, cut), all.substr(cut)}), whole)
                << "split at " << cut;
    }
}

} // namespace
} // namespace lemons::serve
