#ifndef PPDB_SERVER_SERVICE_H_
#define PPDB_SERVER_SERVICE_H_

#include <chrono>
#include <memory>
#include <string>

#include "audit/audit_log.h"
#include "audit/ledger.h"
#include "common/circuit_breaker.h"
#include "common/deadline.h"
#include "common/mutex.h"
#include "common/result.h"
#include "common/retry.h"
#include "common/thread_annotations.h"
#include "relational/catalog.h"
#include "server/request.h"
#include "storage/database_io.h"
#include "storage/fs.h"
#include "storage/journal.h"
#include "violation/live_monitor.h"

namespace ppdb::server {

/// The engine behind the broker: one loaded database, a live population
/// monitor as the authoritative copy of its privacy config, a write-ahead
/// event journal, and a circuit breaker guarding every checkpoint.
///
/// Durability: each mutating event is validated, appended to the journal
/// and fsync'd, then applied in memory and acknowledged — in that order,
/// under the writer lock. A crash at any point loses no acknowledged
/// event (`LoadDatabase` replays the journal) and applies no
/// unacknowledged one. The service owns checkpoint policy: every
/// `checkpoint_every_events` successful events, the event that crosses
/// the cadence runs a checkpoint after releasing the writer lock and
/// before its own response. A checkpoint has three phases (`Checkpoint`):
/// it copies the config and marks the journal's durable size under the
/// shared lock, writes the generation with no service lock while events
/// keep being acknowledged into the old journal segment, and commits under
/// the exclusive lock — carrying the segment's tail past the mark into
/// the new generation's segment, swapping `CURRENT`, switching segments
/// (see storage/database_io.h). Journal append failures feed the circuit
/// breaker exactly like checkpoint failures; a wedged journal triggers a
/// rescue checkpoint on the next event and keeps events failing
/// `kUnavailable` until one commits.
///
/// Concurrency: events and `driftcheck` take the exclusive lock; queries,
/// `stats`, `expansion-check`, `certify` and `estimate` take the shared
/// lock. The census scans (`analyze`, `whatif`, `search`) hold the shared
/// lock only while they copy the config, then scan that private copy with
/// no lock held, so events and queries keep flowing during an O(N·|HP|)
/// scan. The copy is taken under the lock, so a scan still never sees an
/// unacknowledged event. `certify` reads the view's O(1) counters (Def. 3
/// needs only N and the violated count) and rides the priority lane. The
/// scans parallelize internally through the engine's own `ThreadPool`.
/// Checkpoints (cadence, `save`, rescue, shutdown) are serialized by
/// `checkpoint_mu_`, taken before the service lock, and hold the service
/// lock only for one config copy (shared) and one commit (exclusive, a few
/// small writes). At most one is in flight: a cadence crossing or a rescue
/// during one does not start a second; `save` and `FinalCheckpoint` wait
/// for it and then take their own.
///
/// Degraded mode: every checkpoint except the shutdown one passes through
/// the circuit breaker. After `failure_threshold` consecutive transient
/// storage faults the breaker opens and the service turns *read-only*:
/// mutating requests are rejected with `kUnavailable` (a retry-after hint
/// in the message) instead of accepting events whose durability cannot be
/// promised, while every read keeps serving from memory. Once
/// `open_duration` passes, the next checkpoint probes the backend and a
/// success restores writes. A failed cadence checkpoint never fails the
/// event that ran it: the failure lands in `last_checkpoint` (stats) and
/// in the breaker.
class DatabaseService {
 public:
  struct Options {
    /// Checkpoint cadence, in successful mutating events. 0 disables
    /// periodic checkpoints (explicit `save` still works).
    int64_t checkpoint_every_events = 32;
    /// Breaker guarding the storage backend.
    CircuitBreaker::Options breaker;
    /// Bounded retry inside each save attempt (one breaker outcome).
    RetryOptions save_retry;
    /// Threads for the heavy analytics (0 = hardware concurrency).
    int num_threads = 0;
    /// Write-ahead journal: every mutating event is appended and fsync'd
    /// *before* it is applied and acknowledged, so acknowledged events
    /// survive a crash between checkpoints. false restores the seed's
    /// checkpoint-granular durability (tests use it to isolate save
    /// faults).
    bool journal_enabled = true;
    /// Group-commit window: how long a journal flush leader waits for
    /// concurrent events to join its fsync. 0 = sync immediately.
    std::chrono::microseconds journal_batch_window{0};
    /// Drift-oracle cadence: every N successful mutating events, run a
    /// full re-analysis and bitwise-compare it against the maintained
    /// view (the `driftcheck` request does the same on demand). 0
    /// disables the periodic check. A detected drift is logged and
    /// counted (ppdb_view_delta_drift_checks_total{result="drift"}) but
    /// never fails the event that triggered it.
    int64_t drift_check_every_events = 0;
  };

  /// Loads the database at `dir` through `fs` and starts monitoring it.
  /// `fs` must outlive the service. Recovery (discarded staging dirs, torn
  /// generations) is not an error; it is reported in `recovery()`.
  static Result<std::unique_ptr<DatabaseService>> Create(std::string dir,
                                                         storage::FileSystem* fs,
                                                         Options options);

  DatabaseService(const DatabaseService&) = delete;
  DatabaseService& operator=(const DatabaseService&) = delete;

  /// Executes one parsed request. Never throws; every failure is a Status
  /// in the response. `deadline` reaches the engine's cooperative
  /// checkpoints, so heavy work bails with `kDeadlineExceeded` mid-scan.
  Response Execute(const Request& request, const Deadline& deadline)
      PPDB_EXCLUDES(checkpoint_mu_, mu_);

  /// One last checkpoint, bypassing the circuit breaker — at shutdown
  /// there is no later retry, so even a probably-failing backend gets the
  /// attempt. Waits for an in-flight checkpoint first.
  Status FinalCheckpoint() PPDB_EXCLUDES(checkpoint_mu_, mu_);

  /// What `LoadDatabase` skipped or repaired at startup.
  const storage::RecoveryReport& recovery() const { return recovery_; }

  const CircuitBreaker& breaker() const { return breaker_; }

 private:
  DatabaseService(std::string dir, storage::FileSystem* fs, Options options,
                  storage::RecoveryReport recovery,
                  violation::LivePopulationMonitor monitor,
                  storage::Database database,
                  std::unique_ptr<storage::Journal> journal);

  /// One checkpoint: breaker-gated unless `gated` is false (shutdown);
  /// one breaker outcome per call, also recorded as `last_checkpoint`.
  Status Checkpoint(bool gated) PPDB_REQUIRES(checkpoint_mu_)
      PPDB_EXCLUDES(mu_);
  /// Snapshot, stage, commit, prune — the three phases plus cleanup.
  Status SnapshotStageCommit() PPDB_REQUIRES(checkpoint_mu_)
      PPDB_EXCLUDES(mu_);
  /// Runs a breaker-gated checkpoint when one is due — the cadence is
  /// crossed or the journal is wedged — unless one is already in flight.
  void CheckpointIfDue() PPDB_EXCLUDES(checkpoint_mu_, mu_);

  Response ExecuteLocked(const Request& request, const Deadline& deadline)
      PPDB_EXCLUDES(checkpoint_mu_, mu_);
  /// The monitored config, copied under the shared lock: what a census
  /// scan runs on after the lock is released. O(N·|HP|) to copy, several
  /// times cheaper than one scan.
  privacy::PrivacyConfig ConfigCopy() PPDB_EXCLUDES(mu_);
  Response Certify(const Request& request, const Deadline& deadline)
      PPDB_REQUIRES_SHARED(mu_);
  Response Estimate(const Request& request, const Deadline& deadline)
      PPDB_REQUIRES_SHARED(mu_);
  /// Sets `*checkpoint_due` when this event crossed the cadence.
  Response Event(const Request& request, bool* checkpoint_due)
      PPDB_REQUIRES(mu_);
  Response Query(const Request& request) PPDB_REQUIRES_SHARED(mu_);
  Response Stats() PPDB_REQUIRES_SHARED(mu_);
  /// §9 expansion inequality from the view's maintained counters — O(1),
  /// no scan, so it rides the broker's priority lane.
  Response ExpansionCheck(const Request& request)
      PPDB_REQUIRES_SHARED(mu_);
  /// On-demand drift oracle: full O(N·|HP|) re-analysis bitwise-compared
  /// against the view. Needs the writer lock — CheckDrift bumps the
  /// view's counters.
  Response DriftCheck() PPDB_REQUIRES(mu_);

  const std::string dir_;
  storage::FileSystem* const fs_;
  const Options options_;
  storage::RecoveryReport recovery_;

  /// Serializes checkpoints. Held across all three phases, so it comes
  /// before the service lock; cadence and rescue checkpoints only
  /// `TryLock` it, which is what keeps one checkpoint in flight.
  Mutex checkpoint_mu_{"checkpoint"} PPDB_LOCK_LEVEL(checkpoint)
      PPDB_ACQUIRED_AFTER(broker) PPDB_ACQUIRED_BEFORE(service);

  /// Guards monitor_ and the checkpoint counters. Shared = queries,
  /// certify, estimate, the config copy census scans run on and a
  /// checkpoint's snapshot; exclusive = events, driftcheck and a
  /// checkpoint's commit. While held the service may acquire the journal
  /// (event append, segment switch), the breaker (event failures), the
  /// thread pool (sharded analytics) and the tracer clock (span
  /// timestamps) — all below it in the documented global lock order.
  SharedMutex mu_{"service"} PPDB_LOCK_LEVEL(service)
      PPDB_ACQUIRED_AFTER(broker, checkpoint)
      PPDB_ACQUIRED_BEFORE(journal, breaker, pool);
  violation::LivePopulationMonitor monitor_ PPDB_GUARDED_BY(mu_);
  /// The loaded database minus its privacy config, whose authoritative
  /// copy lives in monitor_. Never mutated after construction, so a
  /// checkpoint reads it with no lock. It never holds a config: each
  /// checkpoint writes a snapshot it copied into a local, which is freed
  /// when the checkpoint's staging ends.
  const storage::Database database_;
  /// Write-ahead journal (null when Options::journal_enabled is false).
  /// Internally synchronized; the pointer itself is set once at
  /// construction and never reseated.
  const std::unique_ptr<storage::Journal> journal_;
  /// Generation holding the last successful checkpoint — the journal's
  /// base. Starts at the loaded generation.
  std::string last_checkpoint_generation_ PPDB_GUARDED_BY(mu_);
  /// Successful mutating events not yet inside a committed generation
  /// (those acknowledged during a checkpoint's staging stay counted).
  int64_t events_since_checkpoint_ PPDB_GUARDED_BY(mu_) = 0;
  /// Checkpoints that committed.
  int64_t checkpoints_taken_ PPDB_GUARDED_BY(mu_) = 0;
  /// Outcome of the most recent checkpoint attempt (OK before the first).
  Status last_checkpoint_status_ PPDB_GUARDED_BY(mu_);
  /// Successful mutating events since the last periodic drift check
  /// (only advanced when Options::drift_check_every_events > 0).
  int64_t events_since_drift_check_ PPDB_GUARDED_BY(mu_) = 0;

  CircuitBreaker breaker_;
};

}  // namespace ppdb::server

#endif  // PPDB_SERVER_SERVICE_H_
