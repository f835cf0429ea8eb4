#ifndef TELEIOS_COMMON_THREAD_ANNOTATIONS_H_
#define TELEIOS_COMMON_THREAD_ANNOTATIONS_H_

#include <mutex>
#include <shared_mutex>

/// Clang thread-safety annotations (-Wthread-safety) for TELEIOS.
///
/// Every mutex in the tree is declared through the `Mutex` /
/// `SharedMutex` wrappers below and every member it protects carries
/// `TELEIOS_GUARDED_BY(mu_)`, so the locking discipline that PR 3
/// introduced is checked at *compile time* under clang instead of only
/// dynamically (and slowly) under TSan. Under GCC — or any compiler
/// without the attributes — every macro expands to nothing and the
/// wrappers are zero-cost veneers over the std primitives, so TSan and
/// the runtime behaviour are unchanged.
///
/// Build with -DTELEIOS_THREAD_SAFETY_ANALYSIS=ON (default ON for
/// clang) to promote violations to errors (-Werror=thread-safety).
///
/// The macro set mirrors the capability-based vocabulary used by
/// abseil/LLVM:
///   TELEIOS_GUARDED_BY(mu)     data member readable/writable only with
///                              `mu` held
///   TELEIOS_PT_GUARDED_BY(mu)  pointed-to data guarded by `mu`
///   TELEIOS_REQUIRES(mu)       function must be called with `mu` held
///   TELEIOS_REQUIRES_SHARED(mu) ... with at least shared ownership
///   TELEIOS_ACQUIRE(mu) / TELEIOS_RELEASE(mu)
///                              function acquires / releases `mu`
///   TELEIOS_EXCLUDES(mu)       function must NOT be called with `mu`
///                              held (deadlock prevention)
///   TELEIOS_NO_THREAD_SAFETY_ANALYSIS
///                              opt a function out (last resort; say why)

#if defined(__clang__) && defined(__has_attribute)
#define TELEIOS_THREAD_ANNOTATION_(x) __has_attribute(x)
#else
#define TELEIOS_THREAD_ANNOTATION_(x) 0
#endif

#if TELEIOS_THREAD_ANNOTATION_(guarded_by)
#define TELEIOS_GUARDED_BY(x) __attribute__((guarded_by(x)))
#else
#define TELEIOS_GUARDED_BY(x)
#endif

#if TELEIOS_THREAD_ANNOTATION_(pt_guarded_by)
#define TELEIOS_PT_GUARDED_BY(x) __attribute__((pt_guarded_by(x)))
#else
#define TELEIOS_PT_GUARDED_BY(x)
#endif

#if TELEIOS_THREAD_ANNOTATION_(capability)
#define TELEIOS_CAPABILITY(x) __attribute__((capability(x)))
#else
#define TELEIOS_CAPABILITY(x)
#endif

#if TELEIOS_THREAD_ANNOTATION_(scoped_lockable)
#define TELEIOS_SCOPED_CAPABILITY __attribute__((scoped_lockable))
#else
#define TELEIOS_SCOPED_CAPABILITY
#endif

#if TELEIOS_THREAD_ANNOTATION_(requires_capability)
#define TELEIOS_REQUIRES(...) \
  __attribute__((requires_capability(__VA_ARGS__)))
#else
#define TELEIOS_REQUIRES(...)
#endif

#if TELEIOS_THREAD_ANNOTATION_(requires_shared_capability)
#define TELEIOS_REQUIRES_SHARED(...) \
  __attribute__((requires_shared_capability(__VA_ARGS__)))
#else
#define TELEIOS_REQUIRES_SHARED(...)
#endif

#if TELEIOS_THREAD_ANNOTATION_(acquire_capability)
#define TELEIOS_ACQUIRE(...) __attribute__((acquire_capability(__VA_ARGS__)))
#else
#define TELEIOS_ACQUIRE(...)
#endif

#if TELEIOS_THREAD_ANNOTATION_(acquire_shared_capability)
#define TELEIOS_ACQUIRE_SHARED(...) \
  __attribute__((acquire_shared_capability(__VA_ARGS__)))
#else
#define TELEIOS_ACQUIRE_SHARED(...)
#endif

#if TELEIOS_THREAD_ANNOTATION_(release_capability)
#define TELEIOS_RELEASE(...) __attribute__((release_capability(__VA_ARGS__)))
#else
#define TELEIOS_RELEASE(...)
#endif

#if TELEIOS_THREAD_ANNOTATION_(release_shared_capability)
#define TELEIOS_RELEASE_SHARED(...) \
  __attribute__((release_shared_capability(__VA_ARGS__)))
#else
#define TELEIOS_RELEASE_SHARED(...)
#endif

#if TELEIOS_THREAD_ANNOTATION_(try_acquire_capability)
#define TELEIOS_TRY_ACQUIRE(...) \
  __attribute__((try_acquire_capability(__VA_ARGS__)))
#else
#define TELEIOS_TRY_ACQUIRE(...)
#endif

#if TELEIOS_THREAD_ANNOTATION_(locks_excluded)
#define TELEIOS_EXCLUDES(...) __attribute__((locks_excluded(__VA_ARGS__)))
#else
#define TELEIOS_EXCLUDES(...)
#endif

#if TELEIOS_THREAD_ANNOTATION_(assert_capability)
#define TELEIOS_ASSERT_HELD(...) \
  __attribute__((assert_capability(__VA_ARGS__)))
#else
#define TELEIOS_ASSERT_HELD(...)
#endif

#if TELEIOS_THREAD_ANNOTATION_(lock_returned)
#define TELEIOS_LOCK_RETURNED(x) __attribute__((lock_returned(x)))
#else
#define TELEIOS_LOCK_RETURNED(x)
#endif

#if TELEIOS_THREAD_ANNOTATION_(no_thread_safety_analysis)
#define TELEIOS_NO_THREAD_SAFETY_ANALYSIS \
  __attribute__((no_thread_safety_analysis))
#else
#define TELEIOS_NO_THREAD_SAFETY_ANALYSIS
#endif

namespace teleios {

/// An annotated std::mutex: a capability the analysis can track. Same
/// size and cost as the raw primitive; `native()` exposes the underlying
/// std::mutex for std::condition_variable waits (the analysis cannot see
/// through a condition variable anyway — the RAII wrappers below keep
/// the acquire/release bookkeeping correct around it).
class TELEIOS_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() TELEIOS_ACQUIRE() { mu_.lock(); }
  void Unlock() TELEIOS_RELEASE() { mu_.unlock(); }
  bool TryLock() TELEIOS_TRY_ACQUIRE(true) { return mu_.try_lock(); }

  std::mutex& native() { return mu_; }

 private:
  // teleios-lint: allow(TL002) -- the wrapper IS the capability.
  std::mutex mu_;
};

/// An annotated std::shared_mutex: exclusive writers, shared readers.
class TELEIOS_CAPABILITY("shared_mutex") SharedMutex {
 public:
  SharedMutex() = default;
  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;

  void Lock() TELEIOS_ACQUIRE() { mu_.lock(); }
  void Unlock() TELEIOS_RELEASE() { mu_.unlock(); }
  void LockShared() TELEIOS_ACQUIRE_SHARED() { mu_.lock_shared(); }
  void UnlockShared() TELEIOS_RELEASE_SHARED() { mu_.unlock_shared(); }

 private:
  // teleios-lint: allow(TL002) -- the wrapper IS the capability.
  std::shared_mutex mu_;
};

/// RAII exclusive lock over a Mutex, std::lock_guard-shaped but visible
/// to the analysis. Built on std::unique_lock so condition variables can
/// wait through `native()`; it is always re-locked when the scope ends.
class TELEIOS_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) TELEIOS_ACQUIRE(mu) : lock_(mu.native()) {}
  ~MutexLock() TELEIOS_RELEASE() {}

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

  /// For std::condition_variable::wait(...); the wait releases and
  /// re-acquires the mutex internally, invisibly to the analysis, and
  /// holds it again when it returns — the capability state stays
  /// truthful.
  std::unique_lock<std::mutex>& native() { return lock_; }

 private:
  std::unique_lock<std::mutex> lock_;
};

/// RAII exclusive (writer) lock over a SharedMutex.
class TELEIOS_SCOPED_CAPABILITY WriterMutexLock {
 public:
  explicit WriterMutexLock(SharedMutex& mu) TELEIOS_ACQUIRE(mu) : mu_(mu) {
    mu_.Lock();
  }
  ~WriterMutexLock() TELEIOS_RELEASE() { mu_.Unlock(); }

  WriterMutexLock(const WriterMutexLock&) = delete;
  WriterMutexLock& operator=(const WriterMutexLock&) = delete;

 private:
  SharedMutex& mu_;
};

/// RAII shared (reader) lock over a SharedMutex.
class TELEIOS_SCOPED_CAPABILITY ReaderMutexLock {
 public:
  explicit ReaderMutexLock(SharedMutex& mu) TELEIOS_ACQUIRE_SHARED(mu)
      : mu_(mu) {
    mu_.LockShared();
  }
  ~ReaderMutexLock() TELEIOS_RELEASE() { mu_.UnlockShared(); }

  ReaderMutexLock(const ReaderMutexLock&) = delete;
  ReaderMutexLock& operator=(const ReaderMutexLock&) = delete;

 private:
  SharedMutex& mu_;
};

}  // namespace teleios

#endif  // TELEIOS_COMMON_THREAD_ANNOTATIONS_H_
