#ifndef PPDB_STORAGE_FS_H_
#define PPDB_STORAGE_FS_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/mutex.h"
#include "common/result.h"
#include "common/rng.h"
#include "common/thread_annotations.h"

namespace ppdb::storage {

/// A file opened for durable appending — the primitive the write-ahead
/// journal is built on. `Append` adds bytes at the end (buffered, ordered);
/// `Sync` is the durability barrier: on OK every byte appended so far has
/// reached stable storage (fsync). `Close` releases the descriptor; a file
/// that is destroyed without `Close` is closed best-effort with the error
/// dropped, so callers that care about the last write call `Sync`+`Close`
/// explicitly.
///
/// Thread safety: thread-compatible. The journal serializes all calls on
/// one file behind its own mutex.
class AppendableFile {
 public:
  virtual ~AppendableFile() = default;

  virtual Status Append(std::string_view data) = 0;
  virtual Status Sync() = 0;
  virtual Status Close() = 0;
};

/// The handful of filesystem operations the durability layer is built on.
///
/// `SaveDatabase`/`LoadDatabase` go through this interface so that tests can
/// substitute `FaultInjectingFileSystem` and exercise every crash point of
/// the commit protocol deterministically. Operations that mutate the disk
/// (`CreateDirectories`, `WriteFile`, `Rename`, `RemoveAll`) are the fault
/// injection sites; reads are assumed reliable.
///
/// `WriteFile` has write-through semantics: on OK the full contents are on
/// disk (buffered stream flushed and close-checked). `Rename` is the atomic
/// primitive the commit protocol relies on — it either fully happens or
/// fully doesn't, matching POSIX rename(2) within one filesystem.
class FileSystem {
 public:
  virtual ~FileSystem() = default;

  /// Creates `path` and any missing parents. OK when it already exists.
  virtual Status CreateDirectories(const std::string& path) = 0;

  /// Atomically-ordered full-file write: truncate, write, flush, close.
  virtual Status WriteFile(const std::string& path,
                          std::string_view contents) = 0;

  /// Reads the whole file; `kNotFound` when it cannot be opened.
  virtual Result<std::string> ReadFile(const std::string& path) = 0;

  /// Renames `from` to `to`, replacing `to` if it exists.
  virtual Status Rename(const std::string& from, const std::string& to) = 0;

  /// Recursively deletes `path`. OK when it does not exist.
  virtual Status RemoveAll(const std::string& path) = 0;

  /// True iff `path` exists (file or directory).
  virtual bool Exists(const std::string& path) = 0;

  /// True iff `path` exists and is a directory.
  virtual bool IsDirectory(const std::string& path) = 0;

  /// Names (not full paths) of the entries of directory `path`, sorted.
  virtual Result<std::vector<std::string>> ListDirectory(
      const std::string& path) = 0;

  /// Opens `path` for appending, creating it (empty) when absent. Writes
  /// through the returned handle land strictly at the end of the file.
  virtual Result<std::unique_ptr<AppendableFile>> OpenAppendable(
      const std::string& path) = 0;

  /// Truncates `path` to exactly `size` bytes (which must not exceed the
  /// current size). The journal uses this to amputate a torn tail before
  /// resuming appends.
  virtual Status TruncateFile(const std::string& path, uint64_t size) = 0;
};

/// Production backend over std::filesystem / std::ofstream.
class RealFileSystem : public FileSystem {
 public:
  Status CreateDirectories(const std::string& path) override;
  Status WriteFile(const std::string& path,
                   std::string_view contents) override;
  Result<std::string> ReadFile(const std::string& path) override;
  Status Rename(const std::string& from, const std::string& to) override;
  Status RemoveAll(const std::string& path) override;
  bool Exists(const std::string& path) override;
  bool IsDirectory(const std::string& path) override;
  Result<std::vector<std::string>> ListDirectory(
      const std::string& path) override;
  Result<std::unique_ptr<AppendableFile>> OpenAppendable(
      const std::string& path) override;
  Status TruncateFile(const std::string& path, uint64_t size) override;
};

/// Process-wide shared `RealFileSystem` used by the convenience overloads.
RealFileSystem& GetRealFileSystem();

/// What happens at the targeted fault point.
///
/// The kind applies to whatever mutating operation sits at the targeted
/// index: a `kTornWrite` landing on a `Rename` degenerates to a clean
/// failure (renames cannot tear), which is exactly the "rename failure"
/// case of the crash matrix.
enum class FaultKind {
  /// The operation fails cleanly with `kUnavailable` (transient; a retry
  /// after the fault point has passed succeeds). Nothing reaches the disk.
  kFailOp,
  /// A `WriteFile` durably writes a seeded-random prefix of the payload,
  /// then fails with `kUnavailable`.
  kTornWrite,
  /// Like `kTornWrite` but fails with `kOutOfRange` carrying ENOSPC text —
  /// a permanent "disk full" that retrying must not mask.
  kNoSpace,
  /// Simulated process death: the operation tears (writes a prefix) and
  /// every subsequent mutating operation fails with `kInternal`. The disk
  /// is left exactly as a crash would leave it.
  kCrash,
};

/// Returns the canonical name of `kind`, e.g. "torn_write".
std::string_view FaultKindName(FaultKind kind);

/// One planned fault: fail the `fail_at_op`-th mutating operation (0-based,
/// counted since the plan was set) in the manner of `kind`.
struct FaultPlan {
  /// Index of the mutating op to fault; -1 never faults (counting only).
  int64_t fail_at_op = -1;
  FaultKind kind = FaultKind::kFailOp;
  /// For `kFailOp`: how many times the targeted op fails before it starts
  /// succeeding again. Lets tests exhaust (or satisfy) bounded retries.
  int transient_failures = 1;
  /// When non-empty, only mutating operations whose path contains this
  /// substring are counted and faulted; everything else passes through
  /// without consuming an op index. Lets a test target one subsystem's
  /// I/O (e.g. "journal-" vs ".staging-") without knowing the interleaved
  /// op numbering. A latched `kCrash` still fails *every* later mutating
  /// op regardless of the filter — a dead process writes nowhere.
  std::string path_filter = {};
};

/// Deterministic fault-injecting wrapper around another `FileSystem`.
///
/// Counts mutating operations and fails the one the plan names. Torn-write
/// prefix lengths are drawn from the seeded `Rng`, so a (plan, seed) pair
/// reproduces a crash byte-for-byte.
///
/// Thread-safe: the op counter, `Rng`, plan and crash latch sit behind one
/// leaf mutex, so a checkpoint's staging writes may overlap journal
/// appends on other threads. Each op draws its index atomically; which
/// thread gets which index is up to the scheduler, so a plan is
/// reproducible only when the ops it counts come in a fixed order (one
/// thread, or a `path_filter` that one thread's ops alone match).
///
///   FaultInjectingFileSystem faulty(&real, Rng(seed));
///   faulty.SetPlan({.fail_at_op = 7, .kind = FaultKind::kCrash});
///   Status s = SaveDatabase(dir, db, faulty, opts);  // dies at op 7
class FaultInjectingFileSystem : public FileSystem {
 public:
  /// Wraps `base` (not owned; must outlive this object).
  FaultInjectingFileSystem(FileSystem* base, Rng rng);

  /// Installs a plan and resets the op counter and crash latch.
  void SetPlan(FaultPlan plan) PPDB_EXCLUDES(mu_);

  /// Mutating operations seen since the last `SetPlan`.
  int64_t ops_seen() const PPDB_EXCLUDES(mu_);
  /// Faults actually injected since the last `SetPlan`.
  int64_t faults_injected() const PPDB_EXCLUDES(mu_);
  /// True once a `kCrash` fault has fired; all later mutations fail.
  bool crashed() const PPDB_EXCLUDES(mu_);

  Status CreateDirectories(const std::string& path) override;
  Status WriteFile(const std::string& path,
                   std::string_view contents) override;
  Result<std::string> ReadFile(const std::string& path) override;
  Status Rename(const std::string& from, const std::string& to) override;
  Status RemoveAll(const std::string& path) override;
  bool Exists(const std::string& path) override;
  bool IsDirectory(const std::string& path) override;
  Result<std::vector<std::string>> ListDirectory(
      const std::string& path) override;
  /// The open itself is a mutating op (it may create the file); every
  /// `Append`/`Sync` through the returned handle is one more, sharing this
  /// filesystem's op counter — so a plan's `fail_at_op` walks save writes
  /// and journal appends on one timeline.
  Result<std::unique_ptr<AppendableFile>> OpenAppendable(
      const std::string& path) override;
  Status TruncateFile(const std::string& path, uint64_t size) override;

 private:
  friend class FaultInjectingAppendableFile;

  /// Returns the fault status for this mutating op, or OK to pass through.
  /// `is_write` selects torn-write behaviour; `contents`/`path` feed it.
  /// A torn write lands its seeded-random prefix through `partial_write`
  /// when provided (appends must append the prefix, not truncate-write
  /// it), else through `base_->WriteFile`.
  Status NextOp(const std::string& path, bool is_write = false,
                std::string_view contents = {},
                const std::function<Status(std::string_view)>*
                    partial_write = nullptr) PPDB_EXCLUDES(mu_);

  FileSystem* const base_;
  /// A leaf: nothing is acquired while it is held (the injected-fault
  /// counter is bumped after it is released).
  mutable Mutex mu_{"fault_fs"} PPDB_LOCK_LEVEL(fault_fs)
      PPDB_ACQUIRED_AFTER(metrics);
  Rng rng_ PPDB_GUARDED_BY(mu_);
  FaultPlan plan_ PPDB_GUARDED_BY(mu_);
  int64_t ops_seen_ PPDB_GUARDED_BY(mu_) = 0;
  int64_t faults_injected_ PPDB_GUARDED_BY(mu_) = 0;
  bool crashed_ PPDB_GUARDED_BY(mu_) = false;
};

}  // namespace ppdb::storage

#endif  // PPDB_STORAGE_FS_H_
