#ifndef PPDB_COMMON_MUTEX_H_
#define PPDB_COMMON_MUTEX_H_

#include <chrono>
#include <condition_variable>
#include <mutex>         // ppdb-lint: allow(std-sync) — the wrapper home
#include <shared_mutex>  // ppdb-lint: allow(std-sync) — the wrapper home

#include "common/deadlock.h"
#include "common/thread_annotations.h"

namespace ppdb {

/// Capability-annotated wrappers over `std::mutex` / `std::shared_mutex`.
///
/// Clang's Thread Safety Analysis can only check lock discipline against
/// types it can see annotations on, and libstdc++'s mutexes carry none. All
/// ppdb code therefore uses these wrappers instead of the std types
/// directly (`ppdb_analyze`'s std-sync rule enforces it), so that
/// `-Wthread-safety -Werror` turns "this field is touched without its lock"
/// into a compile error rather than a code-review hope.
///
/// Beyond forwarding to the underlying std primitive, each wrapper carries
/// an optional construction-time name (its level in the documented global
/// lock order, see PPDB_LOCK_LEVEL) and hooks into the runtime deadlock
/// detector (common/deadlock.h). With detection off — the default — the
/// hooks cost one relaxed atomic load per lock operation; debug tests
/// enable detection and get an abort-with-cycle-report on any lock-order
/// inversion, naming the mutexes involved.
class PPDB_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  /// `name` should match the member's PPDB_LOCK_LEVEL declaration; it must
  /// outlive the mutex (string literals do).
  explicit Mutex(const char* name) : name_(name) {}
  ~Mutex() {
    if (deadlock::Enabled()) deadlock::OnDestroy(this);
  }
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() PPDB_ACQUIRE() {
    // The detector runs before the acquisition so a predicted deadlock is
    // reported even when this call would actually block forever.
    if (deadlock::Enabled()) deadlock::OnAcquire(this, name_, true);
    mu_.lock();
  }
  void Unlock() PPDB_RELEASE() {
    mu_.unlock();
    if (deadlock::Enabled()) deadlock::OnRelease(this);
  }
  bool TryLock() PPDB_TRY_ACQUIRE(true) {
    const bool acquired = mu_.try_lock();
    // A try-acquisition cannot deadlock by itself, so it adds no order
    // edges — but it joins the held stack so later acquisitions see it.
    if (acquired && deadlock::Enabled()) {
      deadlock::OnAcquire(this, name_, false);
    }
    return acquired;
  }

  const char* name() const { return name_; }

  /// Statically asserts to the analysis that this thread holds the lock.
  /// `std::mutex` cannot verify ownership at runtime, so this is purely a
  /// compile-time assertion — only use it where a comment can name the
  /// caller that actually holds the lock (e.g. a callback fired under it).
  void AssertHeld() const PPDB_ASSERT_CAPABILITY(this) {}

 private:
  friend class CondVar;
  std::mutex mu_;  // ppdb-lint: allow(std-sync)
  const char* name_ = "<mutex>";
};

/// Reader/writer capability wrapper over `std::shared_mutex`. Writers use
/// `Lock`/`Unlock`, readers `LockShared`/`UnlockShared`; the analysis
/// distinguishes the two, so a write to a `PPDB_GUARDED_BY` field under a
/// reader lock is a compile error.
class PPDB_CAPABILITY("shared_mutex") SharedMutex {
 public:
  SharedMutex() = default;
  /// See Mutex(const char*).
  explicit SharedMutex(const char* name) : name_(name) {}
  ~SharedMutex() {
    if (deadlock::Enabled()) deadlock::OnDestroy(this);
  }
  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;

  // Shared and exclusive acquisitions feed the deadlock detector
  // identically: reader/reader inversions cannot deadlock on their own,
  // but become deadlocks the moment any writer joins, so the order
  // discipline is enforced for both modes.
  void Lock() PPDB_ACQUIRE() {
    if (deadlock::Enabled()) deadlock::OnAcquire(this, name_, true);
    mu_.lock();
  }
  void Unlock() PPDB_RELEASE() {
    mu_.unlock();
    if (deadlock::Enabled()) deadlock::OnRelease(this);
  }
  void LockShared() PPDB_ACQUIRE_SHARED() {
    if (deadlock::Enabled()) deadlock::OnAcquire(this, name_, true);
    mu_.lock_shared();
  }
  void UnlockShared() PPDB_RELEASE_SHARED() {
    mu_.unlock_shared();
    if (deadlock::Enabled()) deadlock::OnRelease(this);
  }

  const char* name() const { return name_; }

  /// See Mutex::AssertHeld — compile-time only.
  void AssertHeld() const PPDB_ASSERT_CAPABILITY(this) {}
  void AssertReaderHeld() const PPDB_ASSERT_SHARED_CAPABILITY(this) {}

 private:
  std::shared_mutex mu_;  // ppdb-lint: allow(std-sync)
  const char* name_ = "<shared_mutex>";
};

/// RAII exclusive lock on a `Mutex`; the annotated replacement for
/// `std::lock_guard` / `std::unique_lock`.
class PPDB_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) PPDB_ACQUIRE(mu) : mu_(mu) { mu_.Lock(); }
  ~MutexLock() PPDB_RELEASE() { mu_.Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

/// RAII exclusive (writer) lock on a `SharedMutex`.
class PPDB_SCOPED_CAPABILITY WriterMutexLock {
 public:
  explicit WriterMutexLock(SharedMutex& mu) PPDB_ACQUIRE(mu) : mu_(mu) {
    mu_.Lock();
  }
  ~WriterMutexLock() PPDB_RELEASE() { mu_.Unlock(); }

  WriterMutexLock(const WriterMutexLock&) = delete;
  WriterMutexLock& operator=(const WriterMutexLock&) = delete;

 private:
  SharedMutex& mu_;
};

/// RAII shared (reader) lock on a `SharedMutex`.
class PPDB_SCOPED_CAPABILITY ReaderMutexLock {
 public:
  explicit ReaderMutexLock(SharedMutex& mu) PPDB_ACQUIRE_SHARED(mu)
      : mu_(mu) {
    mu_.LockShared();
  }
  ~ReaderMutexLock() PPDB_RELEASE() { mu_.UnlockShared(); }

  ReaderMutexLock(const ReaderMutexLock&) = delete;
  ReaderMutexLock& operator=(const ReaderMutexLock&) = delete;

 private:
  SharedMutex& mu_;
};

/// Condition variable paired with `Mutex`. Waits require the lock to be
/// held (checked statically); predicates are evaluated with the lock held,
/// so they may read `PPDB_GUARDED_BY` fields freely.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Atomically releases `mu`, waits for a notification, and re-acquires
  /// `mu` before returning. Spurious wakeups happen; use the predicate
  /// overload unless you re-check the condition yourself.
  void Wait(Mutex& mu) PPDB_REQUIRES(mu) {
    // Adopt the already-held std::mutex for the duration of the wait and
    // release it back to the caller's ownership afterwards; the capability
    // is held again when this returns, exactly as the annotation says.
    std::unique_lock<std::mutex> lock(  // ppdb-lint: allow(std-sync)
        mu.mu_, std::adopt_lock);
    cv_.wait(lock);
    lock.release();
  }

  template <typename Predicate>
  void Wait(Mutex& mu, Predicate predicate) PPDB_REQUIRES(mu) {
    while (!predicate()) Wait(mu);
  }

  /// Predicate wait bounded by `timeout` overall. Returns the predicate's
  /// final value (false = timed out with the predicate still unsatisfied).
  template <typename Rep, typename Period, typename Predicate>
  bool WaitFor(Mutex& mu, std::chrono::duration<Rep, Period> timeout,
               Predicate predicate) PPDB_REQUIRES(mu) {
    const auto deadline = std::chrono::steady_clock::now() + timeout;
    while (!predicate()) {
      if (!WaitUntil(mu, deadline)) return predicate();
    }
    return true;
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  /// Single timed wait; false once `deadline` has passed.
  bool WaitUntil(Mutex& mu, std::chrono::steady_clock::time_point deadline)
      PPDB_REQUIRES(mu) {
    std::unique_lock<std::mutex> lock(  // ppdb-lint: allow(std-sync)
        mu.mu_, std::adopt_lock);
    const std::cv_status status = cv_.wait_until(lock, deadline);
    lock.release();
    return status == std::cv_status::no_timeout;
  }

  std::condition_variable cv_;  // ppdb-lint: allow(std-sync)
};

}  // namespace ppdb

#endif  // PPDB_COMMON_MUTEX_H_
