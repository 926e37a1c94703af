#include "storage/journal.h"

#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <utility>

#include "common/crc32c.h"
#include "common/macros.h"
#include "common/string_util.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace ppdb::storage {

namespace {

constexpr char kHeaderPrefix[] = "ppdb-journal v1 base=";
/// Sanity cap on one record: serve request lines are bounded well under
/// this, so a larger length field is corruption, not data.
constexpr uint32_t kMaxRecordBytes = 1u << 20;

std::string HeaderFor(std::string_view base_generation) {
  return kHeaderPrefix + std::string(base_generation) + "\n";
}

void PutU32Le(std::string& out, uint32_t v) {
  out.push_back(static_cast<char>(v & 0xFF));
  out.push_back(static_cast<char>((v >> 8) & 0xFF));
  out.push_back(static_cast<char>((v >> 16) & 0xFF));
  out.push_back(static_cast<char>((v >> 24) & 0xFF));
}

uint32_t GetU32Le(std::string_view in, size_t offset) {
  return static_cast<uint32_t>(static_cast<uint8_t>(in[offset])) |
         static_cast<uint32_t>(static_cast<uint8_t>(in[offset + 1])) << 8 |
         static_cast<uint32_t>(static_cast<uint8_t>(in[offset + 2])) << 16 |
         static_cast<uint32_t>(static_cast<uint8_t>(in[offset + 3])) << 24;
}

std::string EncodeFrame(std::string_view payload) {
  std::string frame;
  frame.reserve(8 + payload.size());
  PutU32Le(frame, static_cast<uint32_t>(payload.size()));
  PutU32Le(frame, Crc32c(payload));
  frame.append(payload);
  return frame;
}

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// The journal's registry instruments, registered as one batch on first
/// use — the first `Journal::Open` or replay, both of which happen during
/// service startup, so a metrics scrape always sees the families.
struct JournalMetrics {
  obs::Counter* appended;
  obs::Counter* replayed;
  obs::Counter* torn;
  obs::Counter* rotations;
  obs::Gauge* active_segment_bytes;
  obs::Histogram* batch_records;
  obs::Histogram* fsync_seconds;

  static const JournalMetrics& Get() {
    static const JournalMetrics metrics = [] {
      obs::MetricsRegistry& r = obs::MetricsRegistry::Default();
      JournalMetrics m;
      m.appended = r.GetCounter(
          "ppdb_journal_appended_records_total",
          "Records appended to the write-ahead journal and made durable.");
      m.replayed = r.GetCounter(
          "ppdb_journal_replayed_records_total",
          "Journal records replayed during database load recovery.");
      m.torn = r.GetCounter(
          "ppdb_journal_torn_records_total",
          "Torn journal tails amputated (at open or during replay).");
      m.rotations = r.GetCounter(
          "ppdb_journal_rotations_total",
          "Journal segment rotations after successful checkpoints.");
      m.active_segment_bytes = r.GetGauge(
          "ppdb_journal_active_segment_bytes",
          "Durable bytes in the active journal segment, header included.");
      m.batch_records = r.GetHistogram(
          "ppdb_journal_batch_records",
          "Records per group-commit batch (one shared fsync each).",
          {1, 2, 4, 8, 16, 32, 64, 128, 256});
      m.fsync_seconds = r.GetHistogram(
          "ppdb_journal_fsync_seconds",
          "Latency of one group-commit fsync.");
      return m;
    }();
    return metrics;
  }
};

}  // namespace

std::string Journal::SegmentNameFor(std::string_view generation) {
  return std::string(kSegmentPrefix) + std::string(generation);
}

Journal::Journal(std::string dir, FileSystem& fs, Options options)
    : dir_(std::move(dir)), fs_(fs), options_(options) {}

Journal::~Journal() {
  MutexLock lock(mu_);
  if (file_ != nullptr) (void)file_->Close();
}

Result<std::unique_ptr<Journal>> Journal::Open(std::string dir,
                                               std::string base_generation,
                                               FileSystem& fs,
                                               Options options) {
  // The constructor is private, so make_unique cannot reach it.
  std::unique_ptr<Journal> journal(
      new Journal(std::move(dir), fs, options));  // ppdb-lint: allow(raw-new)
  MutexLock lock(journal->mu_);
  PPDB_RETURN_NOT_OK(journal->OpenSegmentLocked(base_generation));
  return journal;
}

std::string Journal::PathFor(std::string_view generation) const {
  return (std::filesystem::path(dir_) / SegmentNameFor(generation)).string();
}

Status Journal::OpenSegmentLocked(const std::string& base_generation) {
  const JournalMetrics& metrics = JournalMetrics::Get();
  segment_name_ = SegmentNameFor(base_generation);
  segment_path_ = PathFor(base_generation);
  const std::string header = HeaderFor(base_generation);

  durable_bytes_ = 0;
  durable_records_ = 0;
  if (fs_.Exists(segment_path_)) {
    Result<std::string> contents = fs_.ReadFile(segment_path_);
    if (contents.ok()) {
      Result<JournalScan> scan = ScanJournalSegment(*contents);
      if (scan.ok() && scan->base_generation == base_generation) {
        if (scan->torn_tail) {
          // Amputate the tail so appends resume on a record boundary.
          PPDB_RETURN_NOT_OK(
              fs_.TruncateFile(segment_path_, scan->valid_bytes));
          metrics.torn->Add();
        }
        durable_bytes_ = scan->valid_bytes;
        durable_records_ = static_cast<int64_t>(scan->payloads.size());
      }
    }
  }
  if (durable_bytes_ == 0 && fs_.Exists(segment_path_)) {
    // Not a resumable segment (wrong header, wrong base, unreadable):
    // start it over.
    PPDB_RETURN_NOT_OK(fs_.RemoveAll(segment_path_));
  }

  PPDB_ASSIGN_OR_RETURN(file_, fs_.OpenAppendable(segment_path_));
  if (durable_bytes_ == 0) {
    PPDB_RETURN_NOT_OK(file_->Append(header));
    PPDB_RETURN_NOT_OK(file_->Sync());
    durable_bytes_ = header.size();
  }
  metrics.active_segment_bytes->Set(static_cast<double>(durable_bytes_));
  return Status::OK();
}

Status Journal::Append(std::string_view payload) {
  const JournalMetrics& metrics = JournalMetrics::Get();
  obs::SpanScope span("journal_append");
  const std::string frame = EncodeFrame(payload);

  mu_.Lock();
  if (wedged_) {
    Status out = wedge_status_;
    mu_.Unlock();
    return out;
  }
  const uint64_t my_lsn = ++next_lsn_;
  pending_.append(frame);
  ++pending_records_;

  // Followers wait out the in-progress flush; whoever finds none becomes
  // the next leader. A finished flush may already cover our record.
  while (true) {
    if (durable_lsn_ >= my_lsn) {
      mu_.Unlock();
      return Status::OK();
    }
    if (wedged_) {
      Status out = wedge_status_;
      mu_.Unlock();
      return out;
    }
    if (!flush_in_progress_) break;
    cv_.Wait(mu_);
  }

  // Leader: optionally hold the batch open so concurrent appenders can
  // pile on (they append to pending_ while we wait with mu_ released).
  flush_in_progress_ = true;
  if (options_.batch_window.count() > 0) {
    (void)cv_.WaitFor(mu_, options_.batch_window, [] { return false; });
  }
  std::string batch;
  batch.swap(pending_);
  const int64_t batch_records = pending_records_;
  pending_records_ = 0;
  const uint64_t batch_last_lsn = next_lsn_;
  AppendableFile* file = file_.get();
  mu_.Unlock();

  // The I/O runs without the mutex; flush_in_progress_ keeps this the
  // only thread touching the file.
  Status io = file->Append(batch);
  double fsync_elapsed = 0.0;
  if (io.ok()) {
    const auto started = std::chrono::steady_clock::now();
    io = file->Sync();
    fsync_elapsed = std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - started)
                        .count();
  }

  mu_.Lock();
  flush_in_progress_ = false;
  if (io.ok()) {
    durable_lsn_ = batch_last_lsn;
    durable_bytes_ += batch.size();
    durable_records_ += batch_records;
    metrics.appended->Add(batch_records);
    metrics.batch_records->Observe(static_cast<double>(batch_records));
    metrics.fsync_seconds->Observe(fsync_elapsed);
    metrics.active_segment_bytes->Set(static_cast<double>(durable_bytes_));
    span.Note("batch_records", batch_records);
  } else {
    // The batch's durability is unknown (an fsync can fail with its bytes
    // already on disk, a torn append leaves a partial frame). Wedge so no
    // later event can be acknowledged atop an uncertain tail, and repair
    // best-effort: truncating to the durable prefix removes any partial
    // bytes so a resumed segment stays frame-aligned.
    wedged_ = true;
    wedge_status_ = io;
    pending_.clear();
    pending_records_ = 0;
    (void)fs_.TruncateFile(segment_path_, durable_bytes_);
  }
  cv_.NotifyAll();
  Status out = durable_lsn_ >= my_lsn ? Status::OK() : wedge_status_;
  mu_.Unlock();
  return out;
}

Result<Journal::PreparedSegment> Journal::PrepareSuccessor(
    std::string_view generation, uint64_t mark) {
  std::string active_path;
  uint64_t durable_bytes = 0;
  {
    MutexLock lock(mu_);
    // The caller keeps appends out, so no flush should be running; wait
    // rather than read a segment mid-write if one is.
    cv_.Wait(mu_, [this] { return !flush_in_progress_; });
    active_path = segment_path_;
    durable_bytes = durable_bytes_;
  }
  if (mark > durable_bytes) {
    return Status::FailedPrecondition(
        "journal mark " + std::to_string(mark) + " is past the " +
        std::to_string(durable_bytes) + " durable bytes of '" + active_path +
        "'");
  }
  // Only the durable prefix is carried: bytes past it belong to a failed
  // batch whose repair truncation may not have landed.
  PPDB_ASSIGN_OR_RETURN(std::string active, fs_.ReadFile(active_path));
  if (active.size() < durable_bytes) {
    return Status::Internal("'" + active_path + "' holds " +
                            std::to_string(active.size()) +
                            " bytes, fewer than its " +
                            std::to_string(durable_bytes) + " durable ones");
  }
  const std::string contents =
      HeaderFor(generation) + active.substr(mark, durable_bytes - mark);
  PPDB_ASSIGN_OR_RETURN(JournalScan scan, ScanJournalSegment(contents));
  if (scan.torn_tail) {
    return Status::Internal("carried journal tail of '" + active_path +
                            "' is not whole frames: " + scan.torn_detail);
  }

  PreparedSegment segment;
  segment.generation = std::string(generation);
  segment.bytes = contents.size();
  segment.records = static_cast<int64_t>(scan.payloads.size());
  const std::string path = PathFor(generation);
  // Left behind by an earlier attempt at this generation that crashed
  // before it could discard it.
  if (fs_.Exists(path)) PPDB_RETURN_NOT_OK(fs_.RemoveAll(path));
  PPDB_ASSIGN_OR_RETURN(segment.file, fs_.OpenAppendable(path));
  Status written = segment.file->Append(contents);
  if (written.ok()) written = segment.file->Sync();
  if (!written.ok()) {
    Discard(std::move(segment));
    return written;
  }
  return segment;
}

void Journal::Activate(PreparedSegment segment) {
  const JournalMetrics& metrics = JournalMetrics::Get();
  MutexLock lock(mu_);
  cv_.Wait(mu_, [this] { return !flush_in_progress_; });
  // Nothing is pending: the caller keeps appends out, and a failed batch
  // clears what it held.
  pending_.clear();
  pending_records_ = 0;
  if (file_ != nullptr) (void)file_->Close();
  file_ = std::move(segment.file);
  segment_name_ = SegmentNameFor(segment.generation);
  segment_path_ = PathFor(segment.generation);
  durable_bytes_ = segment.bytes;
  durable_records_ = segment.records;
  wedged_ = false;
  wedge_status_ = Status::OK();
  durable_lsn_ = next_lsn_;
  metrics.rotations->Add();
  metrics.active_segment_bytes->Set(static_cast<double>(durable_bytes_));
}

void Journal::Discard(PreparedSegment segment) {
  if (segment.file != nullptr) (void)segment.file->Close();
  (void)fs_.RemoveAll(PathFor(segment.generation));
}

bool Journal::wedged() const {
  MutexLock lock(mu_);
  return wedged_;
}

std::string Journal::segment_name() const {
  MutexLock lock(mu_);
  return segment_name_;
}

uint64_t Journal::active_segment_bytes() const {
  MutexLock lock(mu_);
  return durable_bytes_;
}

int64_t Journal::records_in_segment() const {
  MutexLock lock(mu_);
  return durable_records_;
}

Result<JournalScan> ScanJournalSegment(std::string_view contents) {
  const size_t newline = contents.find('\n');
  if (newline == std::string_view::npos) {
    return Status::ParseError("journal has no header line");
  }
  std::string_view header = contents.substr(0, newline);
  constexpr size_t kPrefixLen = sizeof(kHeaderPrefix) - 1;
  if (header.size() <= kPrefixLen ||
      header.substr(0, kPrefixLen) != kHeaderPrefix) {
    return Status::ParseError("bad journal header '" + std::string(header) +
                              "'");
  }
  JournalScan scan;
  scan.base_generation = std::string(header.substr(kPrefixLen));

  size_t offset = newline + 1;
  scan.valid_bytes = offset;
  auto torn = [&](const std::string& why) {
    scan.torn_tail = true;
    scan.torn_detail = why + " at offset " + std::to_string(offset);
    return scan;
  };
  while (offset < contents.size()) {
    if (contents.size() - offset < 8) return torn("short frame header");
    const uint32_t length = GetU32Le(contents, offset);
    const uint32_t crc = GetU32Le(contents, offset + 4);
    if (length > kMaxRecordBytes) return torn("implausible record length");
    if (contents.size() - offset - 8 < length) {
      return torn("record length beyond end of segment");
    }
    std::string_view payload = contents.substr(offset + 8, length);
    if (Crc32c(payload) != crc) return torn("crc mismatch");
    scan.payloads.emplace_back(payload);
    offset += 8 + length;
    scan.valid_bytes = offset;
  }
  return scan;
}

std::string JournalEvent::Encode() const {
  switch (kind) {
    case Kind::kAddProvider:
      return "add " + std::to_string(provider) + ' ' + Num(threshold);
    case Kind::kRemoveProvider:
      return "remove " + std::to_string(provider);
    case Kind::kSetPreference:
      return "pref " + std::to_string(provider) + ' ' + attribute + ' ' +
             purpose + ' ' + std::to_string(visibility) + ' ' +
             std::to_string(granularity) + ' ' + std::to_string(retention);
    case Kind::kRemovePreference:
      return "unpref " + std::to_string(provider) + ' ' + attribute + ' ' +
             purpose;
    case Kind::kSetThreshold:
      return "threshold " + std::to_string(provider) + ' ' + Num(threshold);
  }
  return "";
}

Result<JournalEvent> JournalEvent::Decode(std::string_view payload) {
  std::vector<std::string_view> fields = Split(payload, ' ');
  if (fields.empty()) {
    return Status::ParseError("empty journal event");
  }
  auto arity = [&](size_t n) -> Status {
    if (fields.size() != n) {
      return Status::ParseError("journal event '" + std::string(fields[0]) +
                                "' has " + std::to_string(fields.size() - 1) +
                                " arguments, expected " +
                                std::to_string(n - 1));
    }
    return Status::OK();
  };
  auto level = [](std::string_view s) -> Result<int> {
    PPDB_ASSIGN_OR_RETURN(int64_t v, ParseInt64(s));
    if (v < 0 || v > 1000000) {
      return Status::ParseError("implausible level '" + std::string(s) + "'");
    }
    return static_cast<int>(v);
  };

  JournalEvent event;
  if (fields[0] == "add") {
    PPDB_RETURN_NOT_OK(arity(3));
    event.kind = Kind::kAddProvider;
    PPDB_ASSIGN_OR_RETURN(event.provider, ParseInt64(fields[1]));
    PPDB_ASSIGN_OR_RETURN(event.threshold, ParseDouble(fields[2]));
  } else if (fields[0] == "remove") {
    PPDB_RETURN_NOT_OK(arity(2));
    event.kind = Kind::kRemoveProvider;
    PPDB_ASSIGN_OR_RETURN(event.provider, ParseInt64(fields[1]));
  } else if (fields[0] == "pref") {
    PPDB_RETURN_NOT_OK(arity(7));
    event.kind = Kind::kSetPreference;
    PPDB_ASSIGN_OR_RETURN(event.provider, ParseInt64(fields[1]));
    event.attribute = std::string(fields[2]);
    event.purpose = std::string(fields[3]);
    PPDB_ASSIGN_OR_RETURN(event.visibility, level(fields[4]));
    PPDB_ASSIGN_OR_RETURN(event.granularity, level(fields[5]));
    PPDB_ASSIGN_OR_RETURN(event.retention, level(fields[6]));
  } else if (fields[0] == "unpref") {
    PPDB_RETURN_NOT_OK(arity(4));
    event.kind = Kind::kRemovePreference;
    PPDB_ASSIGN_OR_RETURN(event.provider, ParseInt64(fields[1]));
    event.attribute = std::string(fields[2]);
    event.purpose = std::string(fields[3]);
  } else if (fields[0] == "threshold") {
    PPDB_RETURN_NOT_OK(arity(3));
    event.kind = Kind::kSetThreshold;
    PPDB_ASSIGN_OR_RETURN(event.provider, ParseInt64(fields[1]));
    PPDB_ASSIGN_OR_RETURN(event.threshold, ParseDouble(fields[2]));
  } else {
    return Status::ParseError("unknown journal event kind '" +
                              std::string(fields[0]) + "'");
  }
  if (event.attribute.empty() &&
      (event.kind == Kind::kSetPreference ||
       event.kind == Kind::kRemovePreference)) {
    return Status::ParseError("journal event has empty attribute");
  }
  return event;
}

Status JournalEvent::Validate(const privacy::PrivacyConfig& config) const {
  // Mirrors LivePopulationMonitor's event preconditions so that a record
  // the service appended (post-validation) replays cleanly.
  switch (kind) {
    case Kind::kAddProvider:
      if (config.preferences.Contains(provider)) {
        return Status::AlreadyExists("provider " + std::to_string(provider) +
                                     " is already monitored");
      }
      return Status::OK();
    case Kind::kRemoveProvider:
      if (!config.preferences.Contains(provider)) {
        return Status::NotFound("provider " + std::to_string(provider) +
                                " is not monitored");
      }
      return Status::OK();
    case Kind::kSetPreference: {
      PPDB_ASSIGN_OR_RETURN(privacy::PurposeId id,
                            config.purposes.Lookup(purpose));
      privacy::PrivacyTuple tuple{id, visibility, granularity, retention};
      return tuple.ValidateAgainst(config.scales);
    }
    case Kind::kRemovePreference: {
      if (!config.preferences.Contains(provider)) {
        return Status::NotFound("provider " + std::to_string(provider) +
                                " is not monitored");
      }
      PPDB_ASSIGN_OR_RETURN(privacy::PurposeId id,
                            config.purposes.Lookup(purpose));
      PPDB_ASSIGN_OR_RETURN(const privacy::ProviderPreferences* prefs,
                            config.preferences.Find(provider));
      return prefs->Find(attribute, id).status();
    }
    case Kind::kSetThreshold:
      if (!config.preferences.Contains(provider)) {
        return Status::NotFound("provider " + std::to_string(provider) +
                                " is not monitored");
      }
      if (threshold < 0.0) {
        return Status::InvalidArgument("threshold must be non-negative");
      }
      return Status::OK();
  }
  return Status::Internal("unhandled journal event kind");
}

Status JournalEvent::Apply(privacy::PrivacyConfig& config) const {
  PPDB_RETURN_NOT_OK(Validate(config));
  switch (kind) {
    case Kind::kAddProvider:
      config.preferences.ForProvider(provider);  // Creates the empty entry.
      config.thresholds[provider] = threshold;
      return Status::OK();
    case Kind::kRemoveProvider:
      PPDB_RETURN_NOT_OK(config.preferences.Erase(provider));
      config.thresholds.erase(provider);
      return Status::OK();
    case Kind::kSetPreference: {
      PPDB_ASSIGN_OR_RETURN(privacy::PurposeId id,
                            config.purposes.Lookup(purpose));
      privacy::PrivacyTuple tuple{id, visibility, granularity, retention};
      config.preferences.ForProvider(provider).Set(attribute, tuple);
      return Status::OK();
    }
    case Kind::kRemovePreference: {
      PPDB_ASSIGN_OR_RETURN(privacy::PurposeId id,
                            config.purposes.Lookup(purpose));
      return config.preferences.ForProvider(provider).Remove(attribute, id);
    }
    case Kind::kSetThreshold:
      config.thresholds[provider] = threshold;
      return Status::OK();
  }
  return Status::Internal("unhandled journal event kind");
}

Result<JournalReplayResult> ReplayJournal(std::string_view contents,
                                          std::string_view expected_base,
                                          privacy::PrivacyConfig& config) {
  const JournalMetrics& metrics = JournalMetrics::Get();
  obs::SpanScope span("journal_replay");
  PPDB_ASSIGN_OR_RETURN(JournalScan scan, ScanJournalSegment(contents));
  if (scan.base_generation != expected_base) {
    return Status::FailedPrecondition(
        "journal base '" + scan.base_generation + "' does not match loaded "
        "generation '" + std::string(expected_base) + "'");
  }
  JournalReplayResult result;
  result.torn_tail = scan.torn_tail;
  result.torn_detail = scan.torn_detail;
  if (scan.torn_tail) metrics.torn->Add();
  for (const std::string& payload : scan.payloads) {
    Result<JournalEvent> event = JournalEvent::Decode(payload);
    Status applied = event.ok() ? event->Apply(config) : event.status();
    if (!applied.ok()) {
      // Only reachable when journal and checkpoint disagree (e.g. manual
      // edits): stop cleanly, keeping what replayed so far.
      result.stopped = Status(applied.code(),
                              "journal record " +
                                  std::to_string(result.replayed) + " ('" +
                                  payload + "'): " + applied.message());
      break;
    }
    ++result.replayed;
  }
  metrics.replayed->Add(result.replayed);
  span.Note("replayed", result.replayed);
  return result;
}

}  // namespace ppdb::storage
