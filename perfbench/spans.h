#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string_view>
#include <vector>

namespace perfbench {

/// Monotonic nanoseconds; the one clock every span and latency uses.
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

enum class SpanKind : uint8_t {
  kClient,           // one request, due -> response read by the client
  kNetRead,          // one server-side Transport::Read
  kNetWrite,         // one server-side Transport::Write
  kJournalAppend,    // AppendableFile::Append on a journal segment
  kJournalSync,      // AppendableFile::Sync (fsync) on a journal segment
  kCheckpoint,       // staging dir created -> CURRENT renamed
  kCheckpointWrite,  // one FileSystem::WriteFile
  kCheckpointRename, // one FileSystem::Rename
};

inline std::string_view SpanKindName(SpanKind kind) {
  switch (kind) {
    case SpanKind::kClient: return "client";
    case SpanKind::kNetRead: return "net.read";
    case SpanKind::kNetWrite: return "net.write";
    case SpanKind::kJournalAppend: return "journal.append";
    case SpanKind::kJournalSync: return "journal.sync";
    case SpanKind::kCheckpoint: return "checkpoint";
    case SpanKind::kCheckpointWrite: return "checkpoint.write";
    case SpanKind::kCheckpointRename: return "checkpoint.rename";
  }
  return "unknown";
}

/// One recorded interval. `conn`/`request` name the client request it
/// belongs to (the client's connection index and the server's 1-based
/// per-connection request id) when the layer can attribute it, else -1;
/// net spans carry the server fd in `fd` until the run maps it to a
/// client connection.
struct Span {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  SpanKind kind = SpanKind::kClient;
  int32_t fd = -1;
  int32_t conn = -1;
  int64_t request = -1;
};

/// In-memory span buffer for the filesystem decorator, whose calls come
/// from any broker worker; written out once the run ends.
class SpanLog {
 public:
  void Add(const Span& span) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(span);
  }
  std::vector<Span> Take() {
    std::lock_guard<std::mutex> lock(mu_);
    return std::move(spans_);
  }

 private:
  std::mutex mu_;
  std::vector<Span> spans_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
