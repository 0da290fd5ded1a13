/// \file mutex.hpp
/// \brief std::mutex wrapped as an annotated thread-safety capability.
///
/// libstdc++'s std::mutex carries no capability attribute, so Clang's
/// thread-safety analysis cannot track std::lock_guard acquisitions of
/// it. fhp::Mutex is a zero-overhead wrapper that is a proper annotated
/// capability, and fhp::MutexLock is the matching annotated scoped lock.
/// All lockful flashhp classes (mem::PagePool, Logger, perf::RegionRegistry)
/// use these so `-Wthread-safety` sees their whole lock discipline.

#pragma once

#include <mutex>

#include "support/thread_annotations.hpp"

namespace fhp {

/// An exclusive capability backed by std::mutex.
class FHP_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() FHP_ACQUIRE() { mutex_.lock(); }
  void unlock() FHP_RELEASE() { mutex_.unlock(); }
  [[nodiscard]] bool try_lock() FHP_TRY_ACQUIRE(true) {
    return mutex_.try_lock();
  }

 private:
  std::mutex mutex_;
};

/// RAII lock over fhp::Mutex, visible to the thread-safety analysis.
class FHP_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mutex) FHP_ACQUIRE(mutex) : mutex_(mutex) {
    mutex_.lock();
  }
  ~MutexLock() FHP_RELEASE() { mutex_.unlock(); }
  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mutex_;
};

}  // namespace fhp
