/**
 * @file
 * One-time-pad messaging over NEMS decision trees (paper Section 6).
 *
 * Alice fabricates a chip of hardware one-time pads and hands it to
 * Bob through a courier. Each pad key lives at a secret leaf of 128
 * decision-tree copies (Shamir 8-of-128). Alice later sends encrypted
 * messages; Bob follows the short path strings — transmitted
 * separately — to pull each pad key exactly once.
 *
 * The courier turns out to be an evil maid: she gets the chip for a
 * night and tries to clone pad #2. The tree height (H = 8) defeats
 * her, and her tampering destroys the pad — Bob notices.
 *
 * Build & run:  ./build/examples/one_time_pad_messaging
 */

#include <iomanip>
#include <iostream>
#include <string>
#include <vector>

#include "lemons/lemons.h"

using namespace lemons;
using namespace lemons::core;

namespace {

/** Alice's provisioning record for one pad slot. */
struct PadSlot
{
    std::vector<uint8_t> key; ///< Alice's copy (kept securely by her).
    uint64_t path;            ///< the short string shared with Bob.
};

std::string
pathString(uint64_t path, unsigned height)
{
    std::string bits;
    for (unsigned i = 0; i + 1 < height; ++i)
        bits.push_back((path >> i) & 1 ? '1' : '0');
    return bits.empty() ? "(root)" : bits;
}

} // namespace

int
main()
{
    std::cout << "=== One-time pads in NEMS decision trees ===\n\n";

    OtpParams params;
    params.height = 8;     // 128 paths per tree; blocks adversaries
    params.copies = 128;   // Shamir 8-of-128 across tree copies
    params.threshold = 8;
    params.device = {10.0, 1.0};

    const OtpAnalytics analytics(params);
    const arch::CostModel cost;
    std::cout << "Pad design: H = " << params.height << ", n = "
              << params.copies << ", k = " << params.threshold << "\n"
              << "  receiver success  = "
              << formatGeneral(analytics.receiverSuccess(), 4) << "\n"
              << "  adversary success = "
              << formatSci(analytics.adversarySuccess(), 2) << "\n"
              << "  pads per mm^2     = "
              << formatCount(cost.padsPerMm2(params.height, params.copies))
              << "\n  retrieval latency = "
              << formatGeneral(
                     cost.padRetrievalLatencyMs(params.height,
                                                params.copies),
                     4)
              << " ms\n\n";

    // --- Alice fabricates a 3-pad chip ---
    const wearout::DeviceFactory factory(params.device,
                                         wearout::ProcessVariation::none());
    Rng rng(20170624);
    std::vector<PadSlot> slots;
    std::vector<OneTimePad> chip;
    const uint64_t paths = uint64_t{1} << (params.height - 1);
    for (int s = 0; s < 3; ++s) {
        PadSlot slot;
        slot.key = crypto::generatePad(rng, 64);
        slot.path = rng.nextBelow(paths);
        chip.emplace_back(params, slot.key, slot.path, factory, rng);
        slots.push_back(std::move(slot));
    }
    std::cout << "Alice fabricated a chip with " << chip.size()
              << " pads and couriered it to Bob.\n"
              << "Path strings (sent over a separate short-lived "
                 "channel): ";
    for (const auto &slot : slots)
        std::cout << pathString(slot.path, params.height) << " ";
    std::cout << "\n\n";

    // --- Evil maid night: she attacks pad #2 with random paths ---
    std::cout << "--- the courier (evil maid) attacks pad #2 ---\n";
    Rng maid(666);
    const auto stolen = chip[2].randomPathAttack(maid);
    std::cout << "maid obtained the key: "
              << (stolen ? "YES (!!)" : "no") << "\n\n";

    // --- Messaging ---
    const std::string messages[] = {
        "MEET AT THE USUAL PLACE AT DAWN",
        "THE PACKAGE IS IN LOCKER 451",
        "ABORT EVERYTHING AND GO DARK",
    };
    for (size_t s = 0; s < 3; ++s) {
        std::cout << "--- message " << s << " via pad " << s << " ---\n";
        const std::vector<uint8_t> plaintext(messages[s].begin(),
                                             messages[s].end());
        const auto ciphertext = crypto::otpApply(plaintext, slots[s].key);
        std::cout << "Alice -> Bob ciphertext: ";
        for (size_t i = 0; i < 8; ++i)
            std::cout << std::hex << std::setw(2) << std::setfill('0')
                      << int{ciphertext[i]} << std::setfill(' ')
                      << std::dec;
        std::cout << "... (" << ciphertext.size() << " bytes)\n";

        const auto padKey = chip[s]
                                .retrieve(slots[s].path);
        if (!padKey) {
            std::cout << "Bob: pad " << s
                      << " is DEAD — tampering detected, message "
                         "unreadable, falling back to a fresh pad.\n\n";
            continue;
        }
        const auto decrypted = crypto::otpApply(ciphertext, *padKey);
        std::cout << "Bob decrypted: \""
                  << std::string(decrypted.begin(), decrypted.end())
                  << "\"\n";
        std::cout << "second retrieval attempt: "
                  << (chip[s].retrieve(slots[s].path)
                          ? "worked?!"
                          : "pad destroyed (one-time use enforced)")
                  << "\n\n";
    }

    std::cout << "The maid's best case is consuming pad 2 (availability "
                 "loss, which Bob detects);\nwith n = 128 copies and "
                 "k = 8 the design usually even absorbs her tampering — "
                 "she\nconsumed the right leaf only in the ~1/128 of "
                 "copies where she guessed the path.\nWhat she can never "
                 "do is walk away with the key (Section 6.3).\n";
    return 0;
}
