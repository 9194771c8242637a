/**
 * @file
 * Capability-annotated mutex wrapper for Clang Thread Safety Analysis.
 *
 * std::mutex carries no capability attributes, so -Wthread-safety
 * cannot reason about it. Mutex is a drop-in std::mutex wrapper marked
 * LEMONS_CAPABILITY; MutexLock is the scoped RAII guard. All users of
 * shared mutable state in the library (the Monte Carlo parallel path)
 * go through these so the lock discipline is machine-checked on every
 * Clang build.
 */

#ifndef LEMONS_UTIL_MUTEX_H_
#define LEMONS_UTIL_MUTEX_H_

#include <mutex>

#include "util/thread_annotations.h"

namespace lemons {

/** A std::mutex that Clang's thread-safety analysis can track. */
class LEMONS_CAPABILITY("mutex") Mutex
{
  public:
    Mutex() = default;
    Mutex(const Mutex &) = delete;
    Mutex &operator=(const Mutex &) = delete;

    /** Block until the capability is held. */
    void lock() LEMONS_ACQUIRE() { inner.lock(); }

    /** Release the capability. */
    void unlock() LEMONS_RELEASE() { inner.unlock(); }

    /** Acquire without blocking; true when the capability was taken. */
    bool tryLock() LEMONS_TRY_ACQUIRE(true) { return inner.try_lock(); }

  private:
    std::mutex inner;
};

/** Scoped lock guard over Mutex (the only sanctioned way to lock). */
class LEMONS_SCOPED_CAPABILITY MutexLock
{
  public:
    /** Acquire @p mutex for the guard's lifetime. */
    explicit MutexLock(Mutex &mutex) LEMONS_ACQUIRE(mutex) : held(mutex)
    {
        held.lock();
    }

    ~MutexLock() LEMONS_RELEASE() { held.unlock(); }

    MutexLock(const MutexLock &) = delete;
    MutexLock &operator=(const MutexLock &) = delete;

  private:
    Mutex &held;
};

} // namespace lemons

#endif // LEMONS_UTIL_MUTEX_H_
