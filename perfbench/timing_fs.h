#ifndef PERFBENCH_TIMING_FS_H_
#define PERFBENCH_TIMING_FS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "spans.h"
#include "storage/fs.h"

namespace perfbench {

/// A `storage::FileSystem` decorator handed to `DatabaseService::Create`.
/// It forwards every call to the real filesystem and, from outside the
/// program:
///
///  * counts the bytes written (journal appends, checkpoint files), journal
///    record payload bytes and fsyncs, and, when `timed`, append and fsync
///    time;
///  * records spans into a `SpanLog` when one is given;
///  * tracks which bytes are durable, under a power-loss model: a journal
///    (any `AppendableFile`) keeps only what its last successful `Sync`
///    covered, `WriteFile` content that was never fsync'd is lost (the file
///    survives empty), and directory creation, renames, removals and
///    truncation count as done. `MaterializePowerLossImage` writes that
///    state out as a directory the database can be reloaded from.
class TimingFileSystem : public ppdb::storage::FileSystem {
 public:
  struct Counters {
    int64_t write_file_bytes = 0;
    int64_t append_bytes = 0;
    int64_t append_ns = 0;
    int64_t journal_payload_bytes = 0;  // record payloads, framing excluded
    int64_t syncs = 0;
    int64_t sync_ns = 0;
  };

  /// `base` and `spans` are not owned; `spans` may be null. Time is read
  /// only when `timed`.
  TimingFileSystem(ppdb::storage::FileSystem* base, bool timed,
                   SpanLog* spans)
      : base_(base), timed_(timed), spans_(spans) {}

  Counters Snapshot() const;

  /// Completed checkpoint intervals (staging dir created -> CURRENT
  /// renamed) as [start_ns, end_ns]; recorded only when `timed`.
  std::vector<std::pair<int64_t, int64_t>> Checkpoints() const;

  /// Copies the directory tree `dir` (as the program named it) to `out`
  /// with only the bytes the power-loss model keeps.
  ppdb::Status MaterializePowerLossImage(const std::string& dir,
                                         const std::string& out) const;

  ppdb::Status CreateDirectories(const std::string& path) override;
  ppdb::Status WriteFile(const std::string& path,
                         std::string_view contents) override;
  ppdb::Result<std::string> ReadFile(const std::string& path) override;
  ppdb::Status Rename(const std::string& from,
                      const std::string& to) override;
  ppdb::Status RemoveAll(const std::string& path) override;
  bool Exists(const std::string& path) override;
  bool IsDirectory(const std::string& path) override;
  ppdb::Result<std::vector<std::string>> ListDirectory(
      const std::string& path) override;
  ppdb::Result<std::unique_ptr<ppdb::storage::AppendableFile>>
  OpenAppendable(const std::string& path) override;
  ppdb::Status TruncateFile(const std::string& path, uint64_t size) override;

 private:
  friend class TimingAppendableFile;

  /// Durability of one file the program wrote through this decorator.
  struct FileState {
    bool appendable = false;
    uint64_t appended = 0;  // appendable: bytes handed to Append
    uint64_t durable = 0;   // appendable: bytes covered by the last Sync
  };

  int64_t Clock() const { return timed_ ? NowNs() : 0; }
  void Record(SpanKind kind, int64_t start, int64_t end);
  void OnAppend(const std::string& path, std::string_view data,
                int64_t start, int64_t end, bool ok);
  void OnSync(const std::string& path, int64_t start, int64_t end, bool ok);
  /// Erases `path` and everything below it from files_.
  void ForgetLocked(const std::string& path);

  ppdb::storage::FileSystem* base_;
  const bool timed_;
  SpanLog* spans_;
  mutable std::mutex mu_;
  Counters counters_;
  std::map<std::string, FileState> files_;
  int64_t checkpoint_start_ = -1;
  std::vector<std::pair<int64_t, int64_t>> checkpoints_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TIMING_FS_H_
