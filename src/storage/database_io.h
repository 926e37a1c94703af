#ifndef PPDB_STORAGE_DATABASE_IO_H_
#define PPDB_STORAGE_DATABASE_IO_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "audit/audit_log.h"
#include "audit/ledger.h"
#include "common/result.h"
#include "common/retry.h"
#include "privacy/config.h"
#include "relational/catalog.h"
#include "storage/fs.h"

namespace ppdb::storage {

/// Everything that constitutes one ppdb database on disk.
struct Database {
  rel::Catalog catalog;
  privacy::PrivacyConfig config;
  audit::IngestLedger ledger;
  audit::AuditLog log;
};

/// On-disk layout (all human-readable text, matching the library's
/// existing formats). A database directory holds numbered, immutable
/// generations plus a pointer file naming the committed one:
///
///   <dir>/CURRENT               "gen-<N>\n" — the committed generation
///   <dir>/gen-<N>/MANIFEST      format version + table inventory
///   <dir>/gen-<N>/privacy.ppdb  the privacy DSL (policy_dsl.h)
///   <dir>/gen-<N>/tables/<name>.csv
///                               one CSV per table (provider_id first)
///   <dir>/gen-<N>/ledger.csv    table,provider,attribute,ingest_day
///   <dir>/gen-<N>/audit.csv     the append-only audit log
///   <dir>/.staging-<N>/         an in-progress save; never read
///   <dir>/journal-gen-<N>       write-ahead event journal atop gen-<N>
///                               (see storage/journal.h; "journal-flat"
///                               for the pre-generation layout)
///
/// Commit protocol (crash-safe at every step), in two calls so a caller
/// can keep serving while the slow half runs:
///   stage  (`StageGeneration`, no lock needed)
///     1. every file is written into a fresh `.staging-<N>/`,
///     2. the staging dir is renamed to `gen-<N>/`;
///   commit (`CommitGeneration`, a few small writes)
///     3. with a journal, `journal-gen-<N>` is prepared: its header plus
///        the frames the journal made durable after the snapshot was
///        taken, fsync'd (see storage/journal.h),
///     4. `CURRENT` is swapped via temp-file + rename — the commit point;
///        with a journal, the prepared segment then becomes the active one
///        (on a failed swap it is deleted and the old one stays active).
/// `PruneAfterCommit` then deletes, best-effort, older generations, stray
/// staging dirs and the journal segments that existed when staging began;
/// the previous generation is retained for rollback. A crash anywhere
/// leaves either the old generation with its own segment or the new one
/// with its own segment committed, never a hybrid; `LoadDatabase`
/// discards torn leftovers (see `RecoveryReport`). `SaveDatabase` is the
/// three in a row.
///
/// Pre-generation directories (MANIFEST at the top level) still load.
///
/// Thread safety: the free functions here are thread-compatible — they
/// mutate only the directory passed in and keep no shared mutable state
/// (metric instruments are sharded/atomic). Callers serialize saves per
/// database directory; `DatabaseService` does so with its checkpoint
/// mutex, and keeps journal appends out of step 3–4 with its writer lock.
struct SaveOptions {
  /// Bounded retry for transient (`kUnavailable`) filesystem faults on the
  /// staging writes and commit renames. `max_attempts = 1` disables.
  RetryOptions retry;
};

/// What `LoadDatabase` had to skip or repair to produce a database.
struct RecoveryReport {
  /// Name of the generation actually loaded, e.g. "gen-3"; "flat" for a
  /// pre-generation directory.
  std::string loaded_generation;
  /// Entries ignored during load: uncommitted staging dirs, generations
  /// newer than CURRENT, torn generations (with the load error), and
  /// stale or damaged journal segments.
  std::vector<std::string> discarded;
  /// True when the generation CURRENT named could not be loaded and an
  /// older committed generation was used instead.
  bool used_fallback = false;
  /// Write-ahead journal records replayed on top of the loaded
  /// generation — acknowledged events a crash kept out of a checkpoint.
  int64_t journal_replayed = 0;
  /// True when the journal ended in a torn record (amputated cleanly;
  /// a torn record was never acknowledged).
  bool journal_torn_tail = false;

  /// True when the load needed no recovery of any kind. Replayed journal
  /// events count as recovery: the in-memory state is ahead of the
  /// committed generation until the next checkpoint re-commits it.
  bool clean() const {
    return discarded.empty() && !used_fallback && journal_replayed == 0 &&
           !journal_torn_tail;
  }
  /// Human-readable multi-line summary.
  std::string ToString() const;
};

class Journal;

/// A generation written and published as `gen-<N>/` but not committed:
/// what `StageGeneration` hands to `CommitGeneration`. Until the commit a
/// load ignores it ("complete but never committed").
struct StagedGeneration {
  /// e.g. "gen-4".
  std::string name;
  /// Entries to delete once it is committed: generations older than the
  /// one it replaces, stray staging dirs, and every journal segment that
  /// existed when staging began.
  std::vector<std::string> prunable;
  /// When staging began; the save's wall time is measured from here.
  std::chrono::steady_clock::time_point started;
};

/// Steps 1–2 of the commit protocol: writes `database` with `config` in
/// place of `database.config` (so a caller can save a config snapshot
/// without copying the rest) and publishes it as the next generation.
Result<StagedGeneration> StageGeneration(std::string_view dir,
                                         const Database& database,
                                         const privacy::PrivacyConfig& config,
                                         FileSystem& fs,
                                         const SaveOptions& options);

/// Steps 3–4: commits `staged`. With a `journal`, first prepares the new
/// generation's segment from the journal's frames past `journal_mark`
/// (the journal's `active_segment_bytes()` when the staged config was
/// snapshotted), and activates it once `CURRENT` names the generation.
/// The caller must keep journal appends out for the duration.
Status CommitGeneration(std::string_view dir, const StagedGeneration& staged,
                        FileSystem& fs, const SaveOptions& options,
                        Journal* journal = nullptr,
                        uint64_t journal_mark = 0);

/// Deletes `staged.prunable`, best-effort: a prune failure never fails a
/// committed save.
void PruneAfterCommit(std::string_view dir, const StagedGeneration& staged,
                      FileSystem& fs);

/// Atomically saves `database` (commit protocol above) via the process-wide
/// real filesystem.
Status SaveDatabase(std::string_view dir, const Database& database);

/// As above through an explicit filesystem (tests inject faults here).
/// It is given no journal, so it prunes every `journal-*` segment: their
/// events are taken to be inside `database`.
Status SaveDatabase(std::string_view dir, const Database& database,
                    FileSystem& fs, const SaveOptions& options = {});

/// Loads the committed generation of a database directory. Schema types
/// are recorded in the manifest, so round-trips preserve typing exactly.
/// A nonexistent `dir` is `kNotFound` naming the path.
Result<Database> LoadDatabase(std::string_view dir);

/// As above through an explicit filesystem. When `report` is non-null it
/// receives what was skipped or recovered; falling back to an older
/// committed generation is not an error (the save that produced the newer
/// one never reported success).
Result<Database> LoadDatabase(std::string_view dir, FileSystem& fs,
                              RecoveryReport* report = nullptr);

/// Serializes an audit log to CSV (also usable standalone).
std::string AuditLogToCsv(const audit::AuditLog& log);

/// Parses an audit log from `AuditLogToCsv` output.
Result<audit::AuditLog> AuditLogFromCsv(std::string_view csv);

/// Serializes an ingest ledger to CSV.
std::string LedgerToCsv(const audit::IngestLedger& ledger);

/// Parses a ledger from `LedgerToCsv` output.
Result<audit::IngestLedger> LedgerFromCsv(std::string_view csv);

}  // namespace ppdb::storage

#endif  // PPDB_STORAGE_DATABASE_IO_H_
