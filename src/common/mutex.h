#pragma once

#include <mutex>
#include <shared_mutex>

#include "src/common/thread_annotations.h"

namespace rock::common {

/// Capability-annotated wrapper over std::mutex. Every lock in the library
/// outside src/common/ must be one of these wrappers (scripts/rock_analyze.py
/// enforces it): a raw standard mutex carries no capability, so Clang's
/// thread safety analysis cannot tie ROCK_GUARDED_BY fields to it and the
/// locking discipline silently degrades to a comment.
class ROCK_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() ROCK_ACQUIRE() { mu_.lock(); }
  void Unlock() ROCK_RELEASE() { mu_.unlock(); }
  bool TryLock() ROCK_TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  std::mutex mu_;
};

/// Capability-annotated wrapper over std::shared_mutex (writer-exclusive,
/// reader-shared).
class ROCK_CAPABILITY("shared_mutex") SharedMutex {
 public:
  SharedMutex() = default;
  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;

  void Lock() ROCK_ACQUIRE() { mu_.lock(); }
  void Unlock() ROCK_RELEASE() { mu_.unlock(); }
  bool TryLock() ROCK_TRY_ACQUIRE(true) { return mu_.try_lock(); }

  void LockShared() ROCK_ACQUIRE_SHARED() { mu_.lock_shared(); }
  void UnlockShared() ROCK_RELEASE_SHARED() { mu_.unlock_shared(); }
  bool TryLockShared() ROCK_TRY_ACQUIRE_SHARED(true) {
    return mu_.try_lock_shared();
  }

 private:
  std::shared_mutex mu_;
};

/// RAII exclusive lock over Mutex (the annotated replacement for
/// std::lock_guard).
class ROCK_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) ROCK_ACQUIRE(mu) : mu_(mu) { mu_.Lock(); }
  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;
  ~MutexLock() ROCK_RELEASE() { mu_.Unlock(); }

 private:
  Mutex& mu_;
};

/// RAII exclusive lock over SharedMutex.
class ROCK_SCOPED_CAPABILITY WriterLock {
 public:
  explicit WriterLock(SharedMutex& mu) ROCK_ACQUIRE(mu) : mu_(mu) {
    mu_.Lock();
  }
  WriterLock(const WriterLock&) = delete;
  WriterLock& operator=(const WriterLock&) = delete;
  ~WriterLock() ROCK_RELEASE() { mu_.Unlock(); }

 private:
  SharedMutex& mu_;
};

/// RAII shared (read) lock over SharedMutex.
class ROCK_SCOPED_CAPABILITY ReaderLock {
 public:
  explicit ReaderLock(SharedMutex& mu) ROCK_ACQUIRE_SHARED(mu) : mu_(mu) {
    mu_.LockShared();
  }
  ReaderLock(const ReaderLock&) = delete;
  ReaderLock& operator=(const ReaderLock&) = delete;
  ~ReaderLock() ROCK_RELEASE() { mu_.UnlockShared(); }

 private:
  SharedMutex& mu_;
};

/// A zero-cost capability with no runtime lock behind it: a *thread role*
/// (Clang TSA's capability model covers roles as well as locks). It encodes
/// single-writer phase discipline — e.g. "FixStore mutators run only on the
/// chase's serial apply thread" — as a compile-time contract: mutators are
/// annotated ROCK_REQUIRES(role), so any new call site must visibly take a
/// RoleGuard, acknowledging the contract, or Clang rejects the build. The
/// guard compiles to nothing; which thread actually holds the role remains
/// a (documented, TSan-checked) human invariant.
class ROCK_CAPABILITY("role") ThreadRole {
 public:
  ThreadRole() = default;
  ThreadRole(const ThreadRole&) = delete;
  ThreadRole& operator=(const ThreadRole&) = delete;

  void Acquire() const ROCK_ACQUIRE() {}
  void Release() const ROCK_RELEASE() {}
};

/// RAII scope for a ThreadRole; runtime no-op.
class ROCK_SCOPED_CAPABILITY RoleGuard {
 public:
  explicit RoleGuard(const ThreadRole& role) ROCK_ACQUIRE(role)
      : role_(role) {
    role_.Acquire();
  }
  RoleGuard(const RoleGuard&) = delete;
  RoleGuard& operator=(const RoleGuard&) = delete;
  ~RoleGuard() ROCK_RELEASE() { role_.Release(); }

 private:
  const ThreadRole& role_;
};

}  // namespace rock::common
