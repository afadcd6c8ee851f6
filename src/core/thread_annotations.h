#ifndef TSAUG_CORE_THREAD_ANNOTATIONS_H_
#define TSAUG_CORE_THREAD_ANNOTATIONS_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>

/// Clang Thread Safety Analysis for the concurrent subsystems.
///
/// Every piece of shared mutable state in the tree declares which lock
/// guards it (TSAUG_GUARDED_BY), and every function that touches guarded
/// state declares whether it acquires the lock itself or requires the
/// caller to hold it (TSAUG_REQUIRES / TSAUG_ACQUIRE / TSAUG_RELEASE).
/// A clang build with -Wthread-safety -Werror (CMake option
/// TSAUG_THREAD_SAFETY, CI leg clang-thread-safety) then rejects any
/// guard-free access at compile time — a forgotten lock is a build break,
/// not a rare race.
///
/// The analysis only sees locks it can name, so raw std::mutex members are
/// banned outside this header (lint rule mutex-annotation): concurrent
/// code holds a core::Mutex — the TSAUG_ANNOTATED_MUTEX wrapper around
/// std::mutex — and scopes critical sections with core::MutexLock.
/// Condition variables go through core::CondVar, whose Wait requires the
/// annotated mutex to be held and re-held across the wait.
///
/// Under GCC (or any compiler without the attributes) every macro expands
/// to nothing and the wrappers compile down to the std primitives, so the
/// annotations cost nothing outside the clang analysis build.

#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(capability)
#define TSAUG_THREAD_ANNOTATION_(x) __attribute__((x))
#endif
#endif
#ifndef TSAUG_THREAD_ANNOTATION_
#define TSAUG_THREAD_ANNOTATION_(x)  // not clang: annotations compile away
#endif

/// Declares a type to be a lockable capability ("mutex" in diagnostics).
#define TSAUG_CAPABILITY(x) TSAUG_THREAD_ANNOTATION_(capability(x))

/// Declares an RAII type whose constructor acquires and destructor
/// releases a capability.
#define TSAUG_SCOPED_CAPABILITY TSAUG_THREAD_ANNOTATION_(scoped_lockable)

/// Data member is protected by the given capability: every read requires
/// the lock held (shared), every write requires it held exclusively.
#define TSAUG_GUARDED_BY(x) TSAUG_THREAD_ANNOTATION_(guarded_by(x))

/// Pointer member whose *pointee* is protected by the capability.
#define TSAUG_PT_GUARDED_BY(x) TSAUG_THREAD_ANNOTATION_(pt_guarded_by(x))

/// Function requires the caller to already hold the capability.
#define TSAUG_REQUIRES(...) \
  TSAUG_THREAD_ANNOTATION_(requires_capability(__VA_ARGS__))

/// Function acquires the capability and holds it on return.
#define TSAUG_ACQUIRE(...) \
  TSAUG_THREAD_ANNOTATION_(acquire_capability(__VA_ARGS__))

/// Function releases the capability the caller held.
#define TSAUG_RELEASE(...) \
  TSAUG_THREAD_ANNOTATION_(release_capability(__VA_ARGS__))

/// Caller must NOT hold the capability (deadlock prevention for functions
/// that acquire it themselves).
#define TSAUG_EXCLUDES(...) TSAUG_THREAD_ANNOTATION_(locks_excluded(__VA_ARGS__))

/// Function returns a reference to the capability guarding its class.
#define TSAUG_RETURN_CAPABILITY(x) TSAUG_THREAD_ANNOTATION_(lock_returned(x))

/// Escape hatch: disables analysis for one function. Use only where the
/// locking pattern is correct but inexpressible (say why in a comment).
#define TSAUG_NO_THREAD_SAFETY_ANALYSIS \
  TSAUG_THREAD_ANNOTATION_(no_thread_safety_analysis)

/// The annotated-mutex member spelling the lint rule mutex-annotation
/// steers to: `core::Mutex` (alias TSAUG_ANNOTATED_MUTEX) instead of a raw
/// `std::mutex`, so the analysis can see every lock in the tree.
#define TSAUG_ANNOTATED_MUTEX ::tsaug::core::Mutex

namespace tsaug::core {

/// std::mutex wrapper the analysis can track. Same cost, same semantics;
/// only the capability attribute and the Lock/Unlock annotations differ.
class TSAUG_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() TSAUG_ACQUIRE() { mu_.lock(); }
  void Unlock() TSAUG_RELEASE() { mu_.unlock(); }

  /// The wrapped handle, for CondVar only: waiting needs the raw mutex,
  /// and CondVar's annotations keep the capability story sound around it.
  std::mutex& native_handle() { return mu_; }

 private:
  std::mutex mu_;
};

/// RAII critical section over core::Mutex — the std::lock_guard of the
/// annotated world. The scoped-capability attribute tells the analysis
/// the lock is held exactly for this object's lifetime.
class TSAUG_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) TSAUG_ACQUIRE(mu) : mu_(mu) { mu_.Lock(); }
  ~MutexLock() TSAUG_RELEASE() { mu_.Unlock(); }
  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

/// Condition variable for core::Mutex. Wait atomically releases and
/// re-acquires the underlying std::mutex; the TSAUG_REQUIRES annotation
/// models that as "held before, held after", which is exactly the
/// caller-visible contract. Predicate loops stay in the caller
/// (`while (!cond) cv.Wait(mu);`) so the analysis sees every guarded read
/// in a context where the lock is known to be held — lambda predicates
/// would hide them from the intraprocedural analysis.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void Wait(Mutex& mu) TSAUG_REQUIRES(mu) {
    std::unique_lock<std::mutex> lock(mu.native_handle(), std::adopt_lock);
    cv_.wait(lock);
    lock.release();  // ownership stays with the caller's scope
  }

  /// Timed wait: blocks for at most `nanos` (clamped to >= 0). Returns
  /// false on timeout, true when notified. Duration-relative only — no
  /// clock value is read or exposed, so callers cannot leak wall time
  /// into computation (lint rule no-wall-clock). Spurious wakeups are
  /// possible either way: keep the predicate loop in the caller.
  bool WaitForNanos(Mutex& mu, std::int64_t nanos) TSAUG_REQUIRES(mu) {
    std::unique_lock<std::mutex> lock(mu.native_handle(), std::adopt_lock);
    const std::cv_status status =
        cv_.wait_for(lock, std::chrono::nanoseconds(nanos < 0 ? 0 : nanos));
    lock.release();  // ownership stays with the caller's scope
    return status == std::cv_status::no_timeout;
  }

  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace tsaug::core

#endif  // TSAUG_CORE_THREAD_ANNOTATIONS_H_
