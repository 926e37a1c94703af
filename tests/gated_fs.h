#ifndef PPDB_TESTS_GATED_FS_H_
#define PPDB_TESTS_GATED_FS_H_

#include <algorithm>
#include <chrono>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "storage/fs.h"

namespace ppdb::testing {

/// A `FileSystem` that forwards to another but can hold up a checkpoint's
/// staging: once `Arm()`ed, the first `WriteFile` whose path contains
/// `gate` waits until `Release()`, and every such write sleeps `delay`
/// first. It also records how many such writes were ever in progress at
/// once, which is how tests see whether two checkpoints overlapped.
class GatedFileSystem : public storage::FileSystem {
 public:
  GatedFileSystem(storage::FileSystem* base, std::string gate,
                  std::chrono::microseconds delay = {})
      : base_(base), gate_(std::move(gate)), delay_(delay) {}

  /// Makes the next matching write wait for `Release()`.
  void Arm() {
    MutexLock lock(mu_);
    armed_ = true;
  }

  /// True once a write is waiting at the gate (it stays true).
  bool held() const {
    MutexLock lock(mu_);
    return held_;
  }

  /// Opens the gate; the held write (and every later one) proceeds.
  void Release() {
    MutexLock lock(mu_);
    released_ = true;
    cv_.NotifyAll();
  }

  int max_concurrent_gated_writes() const {
    MutexLock lock(mu_);
    return max_in_progress_;
  }

  Status WriteFile(const std::string& path,
                   std::string_view contents) override {
    if (path.find(gate_) == std::string::npos) {
      return base_->WriteFile(path, contents);
    }
    {
      MutexLock lock(mu_);
      max_in_progress_ = std::max(max_in_progress_, ++in_progress_);
      if (armed_ && !held_) {
        held_ = true;
        cv_.Wait(mu_, [this] { return released_; });
      }
    }
    if (delay_.count() > 0) std::this_thread::sleep_for(delay_);
    Status status = base_->WriteFile(path, contents);
    MutexLock lock(mu_);
    --in_progress_;
    return status;
  }

  Status CreateDirectories(const std::string& path) override {
    return base_->CreateDirectories(path);
  }
  Result<std::string> ReadFile(const std::string& path) override {
    return base_->ReadFile(path);
  }
  Status Rename(const std::string& from, const std::string& to) override {
    return base_->Rename(from, to);
  }
  Status RemoveAll(const std::string& path) override {
    return base_->RemoveAll(path);
  }
  bool Exists(const std::string& path) override {
    return base_->Exists(path);
  }
  bool IsDirectory(const std::string& path) override {
    return base_->IsDirectory(path);
  }
  Result<std::vector<std::string>> ListDirectory(
      const std::string& path) override {
    return base_->ListDirectory(path);
  }
  Result<std::unique_ptr<storage::AppendableFile>> OpenAppendable(
      const std::string& path) override {
    return base_->OpenAppendable(path);
  }
  Status TruncateFile(const std::string& path, uint64_t size) override {
    return base_->TruncateFile(path, size);
  }

 private:
  storage::FileSystem* const base_;
  const std::string gate_;
  const std::chrono::microseconds delay_;
  mutable Mutex mu_;
  CondVar cv_;
  bool armed_ PPDB_GUARDED_BY(mu_) = false;
  bool held_ PPDB_GUARDED_BY(mu_) = false;
  bool released_ PPDB_GUARDED_BY(mu_) = false;
  int in_progress_ PPDB_GUARDED_BY(mu_) = 0;
  int max_in_progress_ PPDB_GUARDED_BY(mu_) = 0;
};

/// Polls `done` every 100 µs for up to `timeout`; returns its last value.
template <typename Predicate>
bool WaitFor(Predicate done,
             std::chrono::milliseconds timeout = std::chrono::seconds(10)) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (!done()) {
    if (std::chrono::steady_clock::now() > deadline) return done();
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  return true;
}

}  // namespace ppdb::testing

#endif  // PPDB_TESTS_GATED_FS_H_
