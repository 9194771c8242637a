/**
 * @file
 * Registration of the lemons-* clang-tidy check family. Built as an
 * out-of-tree plugin module (liblemons_tidy.so) and loaded with
 *
 *     clang-tidy -load path/to/liblemons_tidy.so \
 *                -checks='-*,lemons-*' -p build src/...
 *
 * (scripts/run-tidy.sh --load-lemons wires this up, including the
 * suppression baseline). Each check diagnoses with a stable T-code
 * from src/lint/code_registry.h, the same catalog lemons-lint --codes
 * prints, so the five code families share one id space.
 */

#include "clang-tidy/ClangTidyModule.h"
#include "clang-tidy/ClangTidyModuleRegistry.h"

#include "DeterministicSimCheck.h"
#include "GuardedMemberCheck.h"
#include "NoRawThreadCheck.h"
#include "ObsScopedTimerCheck.h"
#include "StatsAccumulationCheck.h"

namespace lemons::tidy {

class LemonsTidyModule : public clang::tidy::ClangTidyModule
{
  public:
    void
    addCheckFactories(
        clang::tidy::ClangTidyCheckFactories &factories) override
    {
        factories.registerCheck<NoRawThreadCheck>("lemons-no-raw-thread");
        factories.registerCheck<DeterministicSimCheck>(
            "lemons-deterministic-sim");
        factories.registerCheck<GuardedMemberCheck>("lemons-guarded-member");
        factories.registerCheck<ObsScopedTimerCheck>(
            "lemons-obs-scoped-timer");
        factories.registerCheck<StatsAccumulationCheck>(
            "lemons-stats-accumulation");
    }
};

} // namespace lemons::tidy

namespace clang::tidy {

// Register the module with the clang-tidy host binary's registry; the
// anchor keeps the static registration from being dead-stripped when
// the module is linked into a static tool instead of dlopened.
static ClangTidyModuleRegistry::Add<lemons::tidy::LemonsTidyModule>
    lemonsTidyModuleRegistration("lemons-module",
                                 "lemons determinism, concurrency, and "
                                 "instrumentation checks");

volatile int lemonsTidyModuleAnchorSource = 0;

} // namespace clang::tidy
