/**
 * @file
 * T002 lemons-deterministic-sim: flag nondeterminism sources inside
 * the simulation TUs (src/sim, src/engine, src/fleet, src/arch by
 * default). The engine's bit-exact guarantee — identical trial stats
 * at any thread count, resumable from checkpoints — only holds when
 * every random draw flows from the sanctioned seeded streams and
 * every merge iterates in a deterministic order. The sanctioned
 * entry points are the counter-based Philox trial streams
 * (`Rng::trialStream(seed, trial)`, the definitional path for Monte
 * Carlo trials; batch kernels may use `util/philox.h` deriveKey /
 * fillUniform directly) and the seeded Philox streams (`Rng(seed)` /
 * `Rng::split`) for non-trial uses. Flagged:
 *
 *   - std::rand / srand / time / clock (global hidden state);
 *   - std::random_device (hardware entropy: unseedable);
 *   - std::chrono clock now() reads (wall-clock feeding trial state;
 *     deadline checks annotate LEMONS-TIDY-ALLOW(T002));
 *   - range-for over std::unordered_{map,set,multimap,multiset}
 *     (hash-order iteration leaking into stat merges or checkpoint
 *     payloads).
 *
 * Options:
 *   SimFilePattern  regex of TUs under the determinism contract
 *                   (default "(^|/)src/(sim|engine|fleet|arch)/").
 */

#ifndef LEMONS_TOOLS_TIDY_DETERMINISTIC_SIM_CHECK_H_
#define LEMONS_TOOLS_TIDY_DETERMINISTIC_SIM_CHECK_H_

#include "clang-tidy/ClangTidyCheck.h"
#include "llvm/Support/Regex.h"

namespace lemons::tidy {

class DeterministicSimCheck : public clang::tidy::ClangTidyCheck
{
  public:
    DeterministicSimCheck(llvm::StringRef name,
                          clang::tidy::ClangTidyContext *context);

    void registerMatchers(clang::ast_matchers::MatchFinder *finder) override;
    void check(const clang::ast_matchers::MatchFinder::MatchResult &result)
        override;
    void storeOptions(clang::tidy::ClangTidyOptions::OptionMap &options)
        override;

  private:
    const std::string simFilePattern;
    llvm::Regex simFiles;
};

} // namespace lemons::tidy

#endif // LEMONS_TOOLS_TIDY_DETERMINISTIC_SIM_CHECK_H_
