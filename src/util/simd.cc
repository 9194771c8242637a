#include "util/simd.h"

#include <atomic>

namespace lemons::simd {

namespace {

/** -1 = no override, otherwise the forced Level as an int. */
std::atomic<int> testOverride{-1};

Level
detect()
{
#if defined(LEMONS_NO_SIMD)
    return Level::Scalar;
#elif defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
    return __builtin_cpu_supports("avx2") ? Level::Avx2 : Level::Scalar;
#else
    return Level::Scalar;
#endif
}

} // namespace

const char *
levelName(Level level)
{
    switch (level) {
    case Level::Avx2:
        return "avx2";
    case Level::Scalar:
        break;
    }
    return "scalar";
}

Level
detectedLevel()
{
    static const Level level = detect();
    return level;
}

Level
activeLevel()
{
    const int forced = testOverride.load(std::memory_order_relaxed);
    if (forced >= 0) {
        const Level requested = static_cast<Level>(forced);
        return requested < detectedLevel() ? requested : detectedLevel();
    }
    return detectedLevel();
}

void
setLevelForTesting(Level level)
{
    testOverride.store(static_cast<int>(level), std::memory_order_relaxed);
}

void
clearLevelForTesting()
{
    testOverride.store(-1, std::memory_order_relaxed);
}

} // namespace lemons::simd
