// Annotated synchronization primitives.
//
// A thin wrapper over std::mutex carrying Clang's thread-safety capability
// attributes, so `clang -Wthread-safety` proves at compile time that every
// access to a PULPHD_GUARDED_BY field happens with the right lock held. On
// compilers without the attributes (GCC, MSVC) the macros expand to nothing
// and the wrappers compile down to std::mutex — zero behavioural
// difference, the annotations are purely static.
//
// Usage rules (docs/development.md#thread-safety-annotations keeps the
// prose version in lockstep):
//   * Every field shared between threads is declared
//     `PULPHD_GUARDED_BY(mutex_)` next to the Mutex that protects it.
//   * Lock with the scoped `MutexLock`; never call Mutex::lock() directly
//     outside a scoped guard (the analysis and the exception-safety story
//     both want RAII).
//   * A private method touching guarded state without locking declares
//     `PULPHD_REQUIRES(mutex_)`; a public method that locks internally
//     declares `PULPHD_EXCLUDES(mutex_)` so re-entry deadlocks are caught
//     statically.
#pragma once

#include <mutex>

// Capability attribute spellings, following the Clang documentation
// (https://clang.llvm.org/docs/ThreadSafetyAnalysis.html). Prefixed to stay
// out of the way of other libraries' identical macros.
#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(capability)
#define PULPHD_THREAD_ANNOTATION(x) __attribute__((x))
#endif
#endif
#ifndef PULPHD_THREAD_ANNOTATION
#define PULPHD_THREAD_ANNOTATION(x)  // no-op on non-Clang compilers
#endif

#define PULPHD_CAPABILITY(x) PULPHD_THREAD_ANNOTATION(capability(x))
#define PULPHD_SCOPED_CAPABILITY PULPHD_THREAD_ANNOTATION(scoped_lockable)
#define PULPHD_GUARDED_BY(x) PULPHD_THREAD_ANNOTATION(guarded_by(x))
#define PULPHD_PT_GUARDED_BY(x) PULPHD_THREAD_ANNOTATION(pt_guarded_by(x))
#define PULPHD_REQUIRES(...) PULPHD_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
#define PULPHD_ACQUIRE(...) PULPHD_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
#define PULPHD_RELEASE(...) PULPHD_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
#define PULPHD_TRY_ACQUIRE(...) PULPHD_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))
#define PULPHD_EXCLUDES(...) PULPHD_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))
#define PULPHD_RETURN_CAPABILITY(x) PULPHD_THREAD_ANNOTATION(lock_returned(x))
#define PULPHD_NO_THREAD_SAFETY_ANALYSIS PULPHD_THREAD_ANNOTATION(no_thread_safety_analysis)

namespace pulphd {

/// std::mutex as a named static capability.
class PULPHD_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() PULPHD_ACQUIRE() { mu_.lock(); }
  void unlock() PULPHD_RELEASE() { mu_.unlock(); }
  bool try_lock() PULPHD_TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  std::mutex mu_;
};

/// Scoped lock over a Mutex (the std::lock_guard of this layer; there is
/// only the scoped form on purpose — see the usage rules).
class PULPHD_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) PULPHD_ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~MutexLock() PULPHD_RELEASE() { mu_.unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

}  // namespace pulphd
