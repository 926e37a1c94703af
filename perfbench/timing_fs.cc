#include "timing_fs.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <utility>

namespace perfbench {

namespace stdfs = std::filesystem;
using ppdb::Result;
using ppdb::Status;

namespace {

bool EndsWith(const std::string& s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

/// True for `path` itself and every path below it.
bool Under(const std::string& candidate, const std::string& path) {
  return candidate == path ||
         (candidate.size() > path.size() &&
          candidate.compare(0, path.size(), path) == 0 &&
          candidate[path.size()] == '/');
}

/// Payload bytes in one journal append: a segment header line carries
/// none; otherwise the data is whole `[u32 length][u32 crc][payload]`
/// frames (the journal appends one group-commit batch per call).
int64_t JournalPayloadBytes(std::string_view data) {
  if (data.substr(0, 12) == "ppdb-journal") return 0;
  int64_t payload = 0;
  size_t pos = 0;
  while (pos + 8 <= data.size()) {
    const auto* p = reinterpret_cast<const unsigned char*>(data.data() + pos);
    const uint32_t length = p[0] | (p[1] << 8) | (p[2] << 16) |
                            (static_cast<uint32_t>(p[3]) << 24);
    payload += length;
    pos += 8 + length;
  }
  return payload;
}

}  // namespace

/// Wraps the real appendable file so appends and fsyncs are counted,
/// timed and tracked for durability.
class TimingAppendableFile : public ppdb::storage::AppendableFile {
 public:
  TimingAppendableFile(TimingFileSystem* fs, std::string path,
                       std::unique_ptr<ppdb::storage::AppendableFile> base)
      : fs_(fs), path_(std::move(path)), base_(std::move(base)) {}

  Status Append(std::string_view data) override {
    const int64_t start = fs_->Clock();
    Status status = base_->Append(data);
    fs_->OnAppend(path_, data, start, fs_->Clock(), status.ok());
    return status;
  }

  Status Sync() override {
    const int64_t start = fs_->Clock();
    Status status = base_->Sync();
    fs_->OnSync(path_, start, fs_->Clock(), status.ok());
    return status;
  }

  Status Close() override { return base_->Close(); }

 private:
  TimingFileSystem* fs_;
  std::string path_;
  std::unique_ptr<ppdb::storage::AppendableFile> base_;
};

TimingFileSystem::Counters TimingFileSystem::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return counters_;
}

std::vector<std::pair<int64_t, int64_t>> TimingFileSystem::Checkpoints()
    const {
  std::lock_guard<std::mutex> lock(mu_);
  return checkpoints_;
}

void TimingFileSystem::Record(SpanKind kind, int64_t start, int64_t end) {
  if (spans_ != nullptr) {
    spans_->Add({.start_ns = start, .end_ns = end, .kind = kind});
  }
}

void TimingFileSystem::ForgetLocked(const std::string& path) {
  for (auto it = files_.lower_bound(path); it != files_.end();) {
    if (!Under(it->first, path)) break;
    it = files_.erase(it);
  }
}

Status TimingFileSystem::CreateDirectories(const std::string& path) {
  const int64_t start = Clock();
  Status status = base_->CreateDirectories(path);
  // SaveDatabase opens every checkpoint by creating `.staging-<N>/tables`.
  if (timed_ && status.ok() &&
      path.find("/.staging-") != std::string::npos) {
    std::lock_guard<std::mutex> lock(mu_);
    checkpoint_start_ = start;
  }
  return status;
}

Status TimingFileSystem::WriteFile(const std::string& path,
                                   std::string_view contents) {
  const int64_t start = Clock();
  Status status = base_->WriteFile(path, contents);
  const int64_t end = Clock();
  {
    std::lock_guard<std::mutex> lock(mu_);
    counters_.write_file_bytes += static_cast<int64_t>(contents.size());
    // Never fsync'd: under the power-loss model the content is lost.
    ForgetLocked(path);
    files_[path] = FileState{};
  }
  Record(SpanKind::kCheckpointWrite, start, end);
  return status;
}

Result<std::string> TimingFileSystem::ReadFile(const std::string& path) {
  return base_->ReadFile(path);
}

Status TimingFileSystem::Rename(const std::string& from,
                                const std::string& to) {
  const int64_t start = Clock();
  Status status = base_->Rename(from, to);
  const int64_t end = Clock();
  int64_t checkpoint_start = -1;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (status.ok()) {
      ForgetLocked(to);
      std::vector<std::pair<std::string, FileState>> moved;
      for (auto it = files_.lower_bound(from); it != files_.end();) {
        if (!Under(it->first, from)) break;
        moved.emplace_back(to + it->first.substr(from.size()), it->second);
        it = files_.erase(it);
      }
      for (auto& [path, state] : moved) files_[path] = state;
      // Swapping CURRENT is the checkpoint's commit point.
      if (timed_ && checkpoint_start_ >= 0 && EndsWith(to, "/CURRENT")) {
        checkpoint_start = checkpoint_start_;
        checkpoints_.emplace_back(checkpoint_start, end);
        checkpoint_start_ = -1;
      }
    }
  }
  Record(SpanKind::kCheckpointRename, start, end);
  if (checkpoint_start >= 0) {
    Record(SpanKind::kCheckpoint, checkpoint_start, end);
  }
  return status;
}

Status TimingFileSystem::RemoveAll(const std::string& path) {
  Status status = base_->RemoveAll(path);
  if (status.ok()) {
    std::lock_guard<std::mutex> lock(mu_);
    ForgetLocked(path);
  }
  return status;
}

bool TimingFileSystem::Exists(const std::string& path) {
  return base_->Exists(path);
}

bool TimingFileSystem::IsDirectory(const std::string& path) {
  return base_->IsDirectory(path);
}

Result<std::vector<std::string>> TimingFileSystem::ListDirectory(
    const std::string& path) {
  return base_->ListDirectory(path);
}

Result<std::unique_ptr<ppdb::storage::AppendableFile>>
TimingFileSystem::OpenAppendable(const std::string& path) {
  std::error_code ec;
  const uintmax_t existing = stdfs::file_size(path, ec);
  Result<std::unique_ptr<ppdb::storage::AppendableFile>> file =
      base_->OpenAppendable(path);
  if (!file.ok()) return file.status();
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (files_.count(path) == 0) {
      // Bytes already on disk when the program opened the file were
      // written before this run and are taken as durable.
      const uint64_t size = ec ? 0 : existing;
      files_[path] = FileState{.appendable = true,
                               .appended = size,
                               .durable = size};
    }
  }
  return std::unique_ptr<ppdb::storage::AppendableFile>(
      std::make_unique<TimingAppendableFile>(this, path,
                                             std::move(file).value()));
}

Status TimingFileSystem::TruncateFile(const std::string& path,
                                      uint64_t size) {
  Status status = base_->TruncateFile(path, size);
  if (status.ok()) {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = files_.find(path);
    if (it != files_.end() && it->second.appendable) {
      it->second.appended = std::min(it->second.appended, size);
      it->second.durable = std::min(it->second.durable, size);
    }
  }
  return status;
}

void TimingFileSystem::OnAppend(const std::string& path,
                                std::string_view data, int64_t start,
                                int64_t end, bool ok) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    counters_.append_ns += end - start;
    if (!ok) return;
    counters_.append_bytes += static_cast<int64_t>(data.size());
    counters_.journal_payload_bytes += JournalPayloadBytes(data);
    auto it = files_.find(path);
    if (it != files_.end()) it->second.appended += data.size();
  }
  Record(SpanKind::kJournalAppend, start, end);
}

void TimingFileSystem::OnSync(const std::string& path, int64_t start,
                              int64_t end, bool ok) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++counters_.syncs;
    counters_.sync_ns += end - start;
    if (!ok) return;
    auto it = files_.find(path);
    if (it != files_.end()) it->second.durable = it->second.appended;
  }
  Record(SpanKind::kJournalSync, start, end);
}

Status TimingFileSystem::MaterializePowerLossImage(
    const std::string& dir, const std::string& out) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::error_code ec;
  stdfs::remove_all(out, ec);
  stdfs::create_directories(out, ec);
  if (ec) return Status::Internal("cannot create " + out + ": " + ec.message());
  for (auto it = stdfs::recursive_directory_iterator(dir, ec);
       !ec && it != stdfs::recursive_directory_iterator(); it.increment(ec)) {
    const std::string path = it->path().string();
    const stdfs::path target =
        stdfs::path(out) / stdfs::relative(it->path(), dir);
    if (it->is_directory()) {
      stdfs::create_directories(target, ec);
      continue;
    }
    auto state = files_.find(path);
    uint64_t keep = it->file_size();
    if (state != files_.end()) {
      keep = state->second.appendable ? std::min(keep, state->second.durable)
                                      : 0;
    }
    std::ifstream in(path, std::ios::binary);
    std::string bytes(keep, '\0');
    in.read(bytes.data(), static_cast<std::streamsize>(keep));
    std::ofstream copy(target, std::ios::binary | std::ios::trunc);
    copy.write(bytes.data(), static_cast<std::streamsize>(keep));
    if (!in || !copy) return Status::Internal("cannot copy " + path);
  }
  if (ec) return Status::Internal("cannot walk " + dir + ": " + ec.message());
  return Status::OK();
}

}  // namespace perfbench
