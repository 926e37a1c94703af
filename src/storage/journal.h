#ifndef PPDB_STORAGE_JOURNAL_H_
#define PPDB_STORAGE_JOURNAL_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/mutex.h"
#include "common/result.h"
#include "common/thread_annotations.h"
#include "privacy/config.h"
#include "storage/fs.h"

namespace ppdb::storage {

/// Write-ahead event journal.
///
/// Generation checkpoints (`SaveDatabase`) make durability checkpoint-
/// granular: a crash between checkpoints loses every event the service
/// already acknowledged since the last one. The journal closes that gap.
/// Every mutating event is encoded, CRC-framed, appended to the active
/// segment and fsync'd *before* it is applied in memory and acknowledged;
/// `LoadDatabase` replays the surviving tail on top of the committed
/// generation, so an acknowledged event survives any crash.
///
/// On-disk format of one segment (`<dir>/journal-<generation>`):
///
///   ppdb-journal v1 base=<generation>\n        — text header line
///   [u32 length LE][u32 crc32c LE][payload]    — repeated binary records
///
/// The CRC covers the payload. A torn final record (short frame, length
/// beyond EOF, or CRC mismatch) is a *clean stop*: everything before it
/// replays, the tail is reported and amputated, and nothing after a bad
/// frame is ever looked at — a record that was never fsync-acknowledged
/// was never acknowledged to a client either.
///
/// Lifecycle: a checkpoint snapshots the config and notes the active
/// segment's durable size as its *mark*, writes the new generation while
/// events keep appending here, and then — under the service's writer lock,
/// so no append is in flight — carries the tail over: `PrepareSuccessor`
/// writes `journal-<new generation>` holding the header plus every frame
/// past the mark (the events acknowledged while the generation was being
/// written) and fsyncs it, `CURRENT` is swapped, and `Activate` makes the
/// prepared segment the active one. The old segment is pruned after that.
/// A generation and its own segment are therefore always the whole state:
/// before the swap the old pair is, after it the new pair is. If the swap
/// fails the prepared segment is `Discard`ed and appends continue here.
/// Between a failed append/fsync and the next committed checkpoint the
/// journal is *wedged*: appends fail with the original error so no event
/// can be acknowledged without durability, and a best-effort truncate
/// amputates whatever the failed batch may have partially written.
///
/// Group commit: concurrent appenders under the broker's writer lanes
/// share one fsync. The first appender to find no flush in progress
/// becomes the leader, optionally sleeps `Options::batch_window` to let
/// followers pile on, then writes and syncs the whole pending buffer as
/// one batch with the journal mutex released during I/O. Batch sizes and
/// fsync latencies land in the `ppdb_journal_batch_records` /
/// `ppdb_journal_fsync_seconds` histograms.
class Journal {
 public:
  struct Options {
    /// How long a group-commit leader waits for followers before syncing.
    /// 0 = sync immediately (latency-first); contention still batches.
    std::chrono::microseconds batch_window{0};
  };

  /// "journal-" — every segment name starts with this.
  static constexpr std::string_view kSegmentPrefix = "journal-";

  /// The segment name for a base generation, e.g. "journal-gen-3".
  static std::string SegmentNameFor(std::string_view generation);

  /// Opens (or creates) the segment for `base_generation` inside `dir`.
  /// An existing segment keeps its valid records — the service appends
  /// after the tail `LoadDatabase` just replayed — and a torn tail is
  /// truncated away first. A segment whose header does not match is
  /// recreated empty. `fs` must outlive the journal.
  static Result<std::unique_ptr<Journal>> Open(std::string dir,
                                               std::string base_generation,
                                               FileSystem& fs,
                                               Options options);

  Journal(const Journal&) = delete;
  Journal& operator=(const Journal&) = delete;
  ~Journal();

  /// Appends one record and returns once it is fsync-durable (possibly as
  /// part of a shared batch). On any append/fsync failure the journal
  /// wedges and the caller must not apply or acknowledge the event.
  Status Append(std::string_view payload) PPDB_EXCLUDES(mu_);

  /// A successor segment written and fsync'd by `PrepareSuccessor` but not
  /// yet appended to. Owning it keeps the file open; pass it to `Activate`
  /// or `Discard`.
  struct PreparedSegment {
    std::string generation;
    std::unique_ptr<AppendableFile> file;
    uint64_t bytes = 0;
    int64_t records = 0;
  };

  /// Writes `journal-<generation>`: the header plus the active segment's
  /// durable frames from byte `mark` on, then fsyncs it. `mark` is
  /// `active_segment_bytes()` as read when the checkpoint's snapshot was
  /// taken. The active segment is untouched. The caller must keep appends
  /// out until `Activate`/`Discard` (the service holds its writer lock).
  Result<PreparedSegment> PrepareSuccessor(std::string_view generation,
                                           uint64_t mark) PPDB_EXCLUDES(mu_);

  /// Makes `segment` the active segment once its generation is committed,
  /// clearing any wedge. The old segment's file is closed, not removed.
  void Activate(PreparedSegment segment) PPDB_EXCLUDES(mu_);

  /// Closes and deletes (best-effort) a segment whose generation did not
  /// commit; appends continue on the active segment.
  void Discard(PreparedSegment segment);

  /// True after an append/fsync failure until a successor is activated.
  bool wedged() const PPDB_EXCLUDES(mu_);

  /// Name of the active segment, e.g. "journal-gen-3".
  std::string segment_name() const PPDB_EXCLUDES(mu_);

  /// Durable bytes in the active segment (header included).
  uint64_t active_segment_bytes() const PPDB_EXCLUDES(mu_);

  /// Durable records in the active segment (survives reopen).
  int64_t records_in_segment() const PPDB_EXCLUDES(mu_);

 private:
  Journal(std::string dir, FileSystem& fs, Options options);

  /// Opens the segment for `base_generation`, keeping an existing
  /// segment's valid records (truncating a torn tail); a segment that is
  /// not resumable starts over.
  Status OpenSegmentLocked(const std::string& base_generation)
      PPDB_REQUIRES(mu_);

  std::string PathFor(std::string_view generation) const;

  const std::string dir_;
  FileSystem& fs_;
  const Options options_;

  mutable Mutex mu_{"journal"} PPDB_LOCK_LEVEL(journal)
      PPDB_ACQUIRED_AFTER(service) PPDB_ACQUIRED_BEFORE(breaker);
  CondVar cv_;
  std::unique_ptr<AppendableFile> file_ PPDB_GUARDED_BY(mu_);
  std::string segment_name_ PPDB_GUARDED_BY(mu_);
  std::string segment_path_ PPDB_GUARDED_BY(mu_);
  /// Encoded frames accepted but not yet handed to a flush batch.
  std::string pending_ PPDB_GUARDED_BY(mu_);
  int64_t pending_records_ PPDB_GUARDED_BY(mu_) = 0;
  /// Ticket of the newest accepted record / newest durable record. An
  /// append returns OK iff durable_lsn_ reaches its own ticket.
  uint64_t next_lsn_ PPDB_GUARDED_BY(mu_) = 0;
  uint64_t durable_lsn_ PPDB_GUARDED_BY(mu_) = 0;
  /// True while a leader is flushing with mu_ released.
  bool flush_in_progress_ PPDB_GUARDED_BY(mu_) = false;
  /// Bytes known durable in the segment — the truncation target after a
  /// failed batch, whose partial bytes must not survive.
  uint64_t durable_bytes_ PPDB_GUARDED_BY(mu_) = 0;
  int64_t durable_records_ PPDB_GUARDED_BY(mu_) = 0;
  Status wedge_status_ PPDB_GUARDED_BY(mu_);
  bool wedged_ PPDB_GUARDED_BY(mu_) = false;
};

/// What one segment's raw bytes contain, as far as they are trustworthy.
struct JournalScan {
  /// The base generation named in the header, e.g. "gen-3".
  std::string base_generation;
  /// Payloads of every CRC-valid record, in order.
  std::vector<std::string> payloads;
  /// Bytes up to and including the last valid record (header included) —
  /// the truncation point that amputates a torn tail.
  uint64_t valid_bytes = 0;
  /// True when trailing bytes exist past the last valid record.
  bool torn_tail = false;
  /// Why the scan stopped early, e.g. "crc mismatch at offset 57".
  std::string torn_detail;
};

/// Parses one segment's bytes. Pure function of the input (the fuzz
/// surface): any byte string either scans — possibly with a torn tail —
/// or fails cleanly on a bad header. No payload with a failing CRC is
/// ever returned.
Result<JournalScan> ScanJournalSegment(std::string_view contents);

/// One replayable event — the journal's unit of payload, mirroring the
/// five mutating request kinds of the serve protocol.
struct JournalEvent {
  enum class Kind {
    kAddProvider,
    kRemoveProvider,
    kSetPreference,
    kRemovePreference,
    kSetThreshold,
  };

  Kind kind = Kind::kAddProvider;
  int64_t provider = 0;
  /// kAddProvider / kSetThreshold.
  double threshold = 0.0;
  /// kSetPreference / kRemovePreference.
  std::string attribute;
  /// Purpose *name* (ids are registry-relative; names survive reload).
  std::string purpose;
  int visibility = 0;
  int granularity = 0;
  int retention = 0;

  /// Single-line text payload, e.g. "pref 7 weight marketing 1 2 0".
  std::string Encode() const;

  /// Parses `Encode` output.
  static Result<JournalEvent> Decode(std::string_view payload);

  /// Checks the event would apply cleanly against `config` — the same
  /// preconditions the live monitor's event API enforces — without
  /// mutating anything. The service validates before appending, so a
  /// journal only ever holds events that were acknowledged `ok`.
  Status Validate(const privacy::PrivacyConfig& config) const;

  /// Applies the event to `config` (preferences + thresholds), enforcing
  /// `Validate`'s preconditions.
  Status Apply(privacy::PrivacyConfig& config) const;
};

/// Outcome of replaying one segment on top of its base generation.
struct JournalReplayResult {
  /// Events decoded, validated, and applied.
  int64_t replayed = 0;
  /// A torn tail was amputated (clean stop, not an error).
  bool torn_tail = false;
  std::string torn_detail;
  /// OK, or why replay stopped before the end (a record that fails to
  /// decode or apply — possible only if the journal and checkpoint
  /// disagree, e.g. after manual edits). Events before the stop stay
  /// applied; nothing after it is.
  Status stopped;
};

/// Replays a segment's events onto `config`. Errors (nothing applied)
/// when the bytes are not a journal or the header's base generation is
/// not `expected_base` — a stale segment from before the last checkpoint
/// must be discarded, not replayed.
Result<JournalReplayResult> ReplayJournal(std::string_view contents,
                                          std::string_view expected_base,
                                          privacy::PrivacyConfig& config);

}  // namespace ppdb::storage

#endif  // PPDB_STORAGE_JOURNAL_H_
