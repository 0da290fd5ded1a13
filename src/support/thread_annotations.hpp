/// \file thread_annotations.hpp
/// \brief Clang thread-safety-analysis capability annotations.
///
/// These macros expand to Clang's `-Wthread-safety` attributes when the
/// compiler supports them and to nothing otherwise, so annotated code
/// builds identically under GCC. The paper's secondary lesson — that the
/// toolchain silently failing to do what you asked is the real hazard —
/// applies to locking as much as to page size: lock discipline should be
/// machine-checked at compile time, not trusted.
///
/// Conventions (see DESIGN.md "Correctness tooling"):
///   - data members protected by a mutex carry FHP_GUARDED_BY(mutex_);
///   - private helpers that assume the lock is held carry
///     FHP_REQUIRES(mutex_);
///   - use fhp::Mutex / fhp::MutexLock (support/mutex.hpp) instead of raw
///     std::mutex / std::lock_guard — libstdc++'s std::mutex is not an
///     annotated capability, so the analysis cannot see through it;
///   - intentionally unsynchronized per-lane state (e.g. the span rings
///     of obs/span.hpp) sits under the region capability of
///     support/lane.hpp instead of a mutex; FHP_NO_THREAD_SAFETY_ANALYSIS
///     is the last resort, with a comment explaining the single-writer
///     execution model.

#pragma once

#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(guarded_by)
#define FHP_THREAD_ANNOTATION(x) __attribute__((x))
#endif
#endif
#ifndef FHP_THREAD_ANNOTATION
#define FHP_THREAD_ANNOTATION(x)  // no-op outside Clang
#endif

/// Marks a type as a lockable capability ("mutex", "role", ...).
#define FHP_CAPABILITY(x) FHP_THREAD_ANNOTATION(capability(x))

/// Marks an RAII type that acquires a capability for its lifetime.
#define FHP_SCOPED_CAPABILITY FHP_THREAD_ANNOTATION(scoped_lockable)

/// Data member readable/writable only while holding the given capability.
#define FHP_GUARDED_BY(x) FHP_THREAD_ANNOTATION(guarded_by(x))

/// Pointer member whose *pointee* is protected by the given capability.
#define FHP_PT_GUARDED_BY(x) FHP_THREAD_ANNOTATION(pt_guarded_by(x))

/// Function requires the capability to be held on entry (and exit).
#define FHP_REQUIRES(...) \
  FHP_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))

/// Function acquires the capability (exclusive) and holds it on return.
#define FHP_ACQUIRE(...) \
  FHP_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))

/// Function releases the capability.
#define FHP_RELEASE(...) \
  FHP_THREAD_ANNOTATION(release_capability(__VA_ARGS__))

/// Function attempts to acquire; first argument is the success value.
#define FHP_TRY_ACQUIRE(...) \
  FHP_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))

/// Caller must NOT hold the capability (deadlock prevention).
#define FHP_EXCLUDES(...) FHP_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

/// Function returns a reference to the given capability.
#define FHP_RETURN_CAPABILITY(x) FHP_THREAD_ANNOTATION(lock_returned(x))

/// Opt a function out of the analysis; always pair with a comment
/// explaining why the access pattern is safe.
#define FHP_NO_THREAD_SAFETY_ANALYSIS \
  FHP_THREAD_ANNOTATION(no_thread_safety_analysis)
