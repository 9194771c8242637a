/**
 * @file
 * Corpus replay for fleet::decodeCheckpoint, the reader every
 * `lemons-fleet --resume` trusts with a file from disk. Each seed
 * under tests/corpus/fleet-ckpt/ is decoded whole, truncated at every
 * offset, and with each byte flipped in turn. Every input must end in
 * a clean decode or in a CheckpointError carrying one of the decoder's
 * C-codes, and decoding the same bytes again must give the same
 * outcome; ASan/UBSan builds also prove none of them reads out of
 * bounds.
 *
 * Each file name starts with the outcome of the whole seed: ok_ for a
 * checkpoint that decodes (and re-encodes to the same bytes), err_Cnnn_
 * for one rejected with that code. To add a seed, write the bytes
 * (fleet::encodeCheckpoint, then edit) under such a name.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "fleet/checkpoint.h"

namespace lemons::fleet {
namespace {

/** "ok" or the C-code of the decoder's rejection of @p bytes. */
std::string
describe(const std::vector<uint8_t> &bytes)
{
    try {
        static_cast<void>(
            decodeCheckpoint(bytes.data(), bytes.size(), "seed"));
        return "ok";
    } catch (const CheckpointError &error) {
        // "seed: Cnnn ..."; C105 (fingerprint) and C107 (io) belong
        // to the callers, not the decoder.
        const std::string what = error.what();
        const std::string code = what.substr(6, 4);
        EXPECT_EQ(what.rfind("seed: ", 0), 0u) << what;
        EXPECT_TRUE(code == "C101" || code == "C102" || code == "C103" ||
                    code == "C104" || code == "C106")
            << what;
        return code;
    }
}

/** describe(), checked to come out the same on a second decode. */
std::string
replay(const std::vector<uint8_t> &bytes)
{
    std::string first = describe(bytes);
    EXPECT_EQ(describe(bytes), first);
    return first;
}

TEST(CheckpointCorpus, WholeTruncatedAndFlippedReplay)
{
    std::vector<std::filesystem::path> seeds;
    for (const auto &entry :
         std::filesystem::directory_iterator(LEMONS_CKPT_CORPUS_DIR))
        seeds.push_back(entry.path());
    ASSERT_GE(seeds.size(), 10u);

    for (const std::filesystem::path &seed : seeds) {
        const std::string name = seed.filename().string();
        SCOPED_TRACE(name);
        std::ifstream in(seed, std::ios::binary);
        std::vector<uint8_t> bytes((std::istreambuf_iterator<char>(in)),
                                   std::istreambuf_iterator<char>());

        const std::string whole = replay(bytes);
        if (name.rfind("ok_", 0) == 0) {
            EXPECT_EQ(whole, "ok");
            EXPECT_EQ(encodeCheckpoint(decodeCheckpoint(
                          bytes.data(), bytes.size(), "seed")),
                      bytes);
        } else {
            ASSERT_EQ(name.rfind("err_", 0), 0u);
            EXPECT_EQ(whole, name.substr(4, 4));
        }

        for (size_t cut = 0; cut < bytes.size(); ++cut) {
            SCOPED_TRACE("truncated at " + std::to_string(cut));
            replay({bytes.begin(),
                    bytes.begin() + static_cast<std::ptrdiff_t>(cut)});
        }

        for (size_t at = 0; at < bytes.size(); ++at) {
            SCOPED_TRACE("byte " + std::to_string(at) + " flipped");
            bytes[at] = static_cast<uint8_t>(~bytes[at]);
            replay(bytes);
            bytes[at] = static_cast<uint8_t>(~bytes[at]);
        }
    }
}

} // namespace
} // namespace lemons::fleet
