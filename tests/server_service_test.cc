#include "server/service.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "obs/metrics.h"
#include "privacy/policy_dsl.h"
#include "server/request.h"
#include "sim/population.h"
#include "storage/database_io.h"
#include "storage/fs.h"
#include "tests/test_util.h"
#include "violation/metrics.h"

namespace ppdb::server {
namespace {

using std::chrono::milliseconds;

constexpr char kConfigDsl[] = R"(
scale visibility: l0, l1, l2, l3
scale granularity: l0, l1, l2, l3
scale retention: l0, l1, l2, l3
purpose pr
policy weight for pr: visibility=2, granularity=2, retention=2
pref 1 weight for pr: visibility=0, granularity=0, retention=0
pref 2 weight for pr: visibility=3, granularity=3, retention=3
attr_sensitivity weight = 2
threshold 1 = 3
threshold 2 = 3
)";

class DatabaseServiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("ppdb_service_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::remove_all(dir_);
    storage::Database database;
    ASSERT_OK_AND_ASSIGN(database.config,
                         privacy::ParsePrivacyConfig(kConfigDsl));
    ASSERT_OK(storage::SaveDatabase(dir_.string(), database));
    faulty_ = std::make_unique<storage::FaultInjectingFileSystem>(
        &storage::GetRealFileSystem(), Rng(7));
  }

  void TearDown() override { std::filesystem::remove_all(dir_); }

  /// A service whose saves hit the fault-injecting filesystem, with a
  /// hand-cranked breaker clock and no in-save retry (so each save is one
  /// breaker-visible outcome). The journal is off by default: the breaker
  /// drills below are about *checkpoint* faults, and with a journal a
  /// latched disk would fail the events themselves (by design — see the
  /// Journal* tests) instead of leaving durability debt.
  std::unique_ptr<DatabaseService> MakeService(int failure_threshold = 2,
                                               bool journal_enabled = false) {
    DatabaseService::Options options;
    options.checkpoint_every_events = 1;
    options.num_threads = 1;
    options.save_retry.max_attempts = 1;
    options.breaker.failure_threshold = failure_threshold;
    options.breaker.open_duration = milliseconds(1000);
    options.breaker.clock = [this] { return now_; };
    options.journal_enabled = journal_enabled;
    auto service =
        DatabaseService::Create(dir_.string(), faulty_.get(), options);
    EXPECT_OK(service.status());
    return std::move(service).value();
  }

  Response Run(DatabaseService& service, const std::string& line,
               const Deadline& deadline = Deadline()) {
    Result<Request> request = ParseRequest(line);
    EXPECT_OK(request.status()) << line;
    return service.Execute(request.value(), deadline);
  }

  /// Latches the filesystem: every mutating operation fails with
  /// kUnavailable until `Heal()`.
  void BreakDisk() {
    faulty_->SetPlan({.fail_at_op = 0,
                      .kind = storage::FaultKind::kFailOp,
                      .transient_failures = 1 << 30});
  }
  void Heal() { faulty_->SetPlan({.fail_at_op = -1}); }

  std::filesystem::path dir_;
  std::unique_ptr<storage::FaultInjectingFileSystem> faulty_;
  std::chrono::steady_clock::time_point now_{};
};

TEST_F(DatabaseServiceTest, ServesReadsAndEvents) {
  std::unique_ptr<DatabaseService> service = MakeService();

  Response ping = Run(*service, "ping");
  ASSERT_OK(ping.status);
  EXPECT_EQ(ping.payload, "pong");

  // Provider 1 (all-zero preference vs policy level 2) is violated.
  Response analyze = Run(*service, "analyze");
  ASSERT_OK(analyze.status);
  EXPECT_NE(analyze.payload.find("providers=2"), std::string::npos);
  EXPECT_NE(analyze.payload.find("violated=1"), std::string::npos);

  Response query = Run(*service, "query pw");
  ASSERT_OK(query.status);
  EXPECT_EQ(query.payload, "pw=0.5");

  // A new provider with implicit-zero preferences raises P(W) to 2/3.
  ASSERT_OK(Run(*service, "event add 9 100").status);
  EXPECT_EQ(Run(*service, "query pw").payload, "pw=0.666667");

  Response provider = Run(*service, "query provider 1");
  ASSERT_OK(provider.status);
  EXPECT_NE(provider.payload.find("violated=1"), std::string::npos);
  EXPECT_NE(provider.payload.find("defaulted=1"), std::string::npos);

  // Raising provider 9's tolerance above the policy clears the violation:
  // back to 1 violated of (now) 3 providers.
  Response pref = Run(*service, "event pref 9 weight pr 3 3 3");
  ASSERT_OK(pref.status);
  EXPECT_EQ(Run(*service, "query pw").payload, "pw=0.333333");

  // Unknown purposes and providers surface as clean errors.
  EXPECT_TRUE(
      Run(*service, "event pref 9 weight nosuch 1 1 1").status.IsNotFound());
  EXPECT_TRUE(Run(*service, "query provider 777").status.IsNotFound());
}

TEST_F(DatabaseServiceTest, AnalyticsRequestsWork) {
  std::unique_ptr<DatabaseService> service = MakeService();

  Response certify = Run(*service, "certify 0.6");
  ASSERT_OK(certify.status);
  EXPECT_NE(certify.payload.find("certified=1"), std::string::npos);

  Response estimate = Run(*service, "estimate pw 400 42");
  ASSERT_OK(estimate.status);
  EXPECT_NE(estimate.payload.find("census=0.5"), std::string::npos);

  Response whatif = Run(*service, "whatif v 2");
  ASSERT_OK(whatif.status);
  EXPECT_NE(whatif.payload.find("points=3"), std::string::npos);

  Response search = Run(*service, "search 4 1.0");
  ASSERT_OK(search.status);
  EXPECT_NE(search.payload.find("best_utility="), std::string::npos);

  EXPECT_TRUE(Run(*service, "whatif purpose 2").status.IsInvalidArgument());
}

TEST_F(DatabaseServiceTest, ExpiredDeadlineShortCircuits) {
  std::unique_ptr<DatabaseService> service = MakeService();
  Deadline expired = Deadline::After(milliseconds(0));
  EXPECT_TRUE(Run(*service, "analyze", expired).status.IsDeadlineExceeded());
  EXPECT_TRUE(Run(*service, "estimate pw 1000 1", expired)
                  .status.IsDeadlineExceeded());
}

// The acceptance-criteria fault drill: latched save failures trip the
// breaker within the configured threshold, the service keeps serving reads
// (degraded to read-only), and a half-open probe restores writes.
TEST_F(DatabaseServiceTest, BreakerTripsDegradesToReadOnlyAndRecovers) {
  std::unique_ptr<DatabaseService> service = MakeService(
      /*failure_threshold=*/2);
  BreakDisk();

  // Events succeed even though their checkpoints fail — durability debt is
  // recorded, not inflicted on the event.
  ASSERT_OK(Run(*service, "event add 100 1").status);
  EXPECT_EQ(service->breaker().state(), CircuitBreaker::State::kClosed);
  ASSERT_OK(Run(*service, "event add 101 1").status);
  EXPECT_EQ(service->breaker().state(), CircuitBreaker::State::kOpen);
  EXPECT_EQ(service->breaker().trips(), 1);

  // Open breaker: writes rejected up front with a retry hint...
  Response rejected = Run(*service, "event add 102 1");
  EXPECT_TRUE(rejected.status.IsUnavailable());
  EXPECT_NE(rejected.status.message().find("read-only"), std::string::npos);
  EXPECT_NE(rejected.status.message().find("retry_after_ms="),
            std::string::npos);
  EXPECT_TRUE(Run(*service, "save").status.IsUnavailable());

  // ...while reads keep serving from memory.
  EXPECT_EQ(Run(*service, "query pw").payload, "pw=0.75");
  ASSERT_OK(Run(*service, "analyze").status);
  Response stats = Run(*service, "stats");
  ASSERT_OK(stats.status);
  EXPECT_NE(stats.payload.find("breaker=open"), std::string::npos);

  // Disk heals; once the open window lapses the next write is the probe.
  Heal();
  now_ += milliseconds(1500);
  ASSERT_OK(Run(*service, "event add 102 1").status);
  EXPECT_EQ(service->breaker().state(), CircuitBreaker::State::kClosed);

  // Writes are fully restored and the checkpoint actually persisted.
  ASSERT_OK(Run(*service, "save").status);
  ASSERT_OK_AND_ASSIGN(storage::Database reloaded,
                       storage::LoadDatabase(dir_.string()));
  EXPECT_DOUBLE_EQ(reloaded.config.ThresholdFor(102), 1.0);
}

TEST_F(DatabaseServiceTest, FinalCheckpointBypassesTheOpenBreaker) {
  std::unique_ptr<DatabaseService> service = MakeService(
      /*failure_threshold=*/1);
  BreakDisk();
  ASSERT_OK(Run(*service, "event add 200 5").status);
  ASSERT_EQ(service->breaker().state(), CircuitBreaker::State::kOpen);

  // The breaker would reject this save; shutdown tries anyway — and the
  // disk has healed, so the last state lands.
  Heal();
  ASSERT_OK(service->FinalCheckpoint());
  ASSERT_OK_AND_ASSIGN(storage::Database reloaded,
                       storage::LoadDatabase(dir_.string()));
  EXPECT_DOUBLE_EQ(reloaded.config.ThresholdFor(200), 5.0);
}

TEST_F(DatabaseServiceTest, CheckpointFailureNeverFailsTheEvent) {
  std::unique_ptr<DatabaseService> service = MakeService(
      /*failure_threshold=*/100);
  BreakDisk();
  for (int i = 0; i < 10; ++i) {
    Response response =
        Run(*service, "event add " + std::to_string(300 + i) + " 1");
    ASSERT_OK(response.status) << i;
  }
  // All ten events landed in memory despite ten failed checkpoints.
  Response monitor = Run(*service, "query monitor");
  ASSERT_OK(monitor.status);
  EXPECT_NE(monitor.payload.find("providers=12"), std::string::npos);
  EXPECT_NE(monitor.payload.find("last_checkpoint=unavailable"),
            std::string::npos);
  EXPECT_EQ(service->breaker().consecutive_failures(), 10);
}

// --- Write-ahead journal drills -------------------------------------------
// These run with the journal ON and periodic checkpoints OFF, so the
// journal is the only thing standing between an acknowledged event and a
// crash.

class JournaledServiceTest : public DatabaseServiceTest {
 protected:
  std::unique_ptr<DatabaseService> MakeJournaled(int failure_threshold = 2) {
    DatabaseService::Options options;
    options.checkpoint_every_events = 0;  // the journal carries durability
    options.num_threads = 1;
    options.save_retry.max_attempts = 1;
    options.breaker.failure_threshold = failure_threshold;
    options.breaker.open_duration = milliseconds(1000);
    options.breaker.clock = [this] { return now_; };
    auto service =
        DatabaseService::Create(dir_.string(), faulty_.get(), options);
    EXPECT_OK(service.status());
    return std::move(service).value();
  }

  /// Faults the `op`-th journal I/O (open/append/sync/truncate on a
  /// "journal-" path); save-protocol I/O passes through unfaulted.
  void FaultJournalOp(int64_t op, storage::FaultKind kind) {
    faulty_->SetPlan(
        {.fail_at_op = op, .kind = kind, .path_filter = "journal-"});
  }
};

TEST_F(JournaledServiceTest, AcknowledgedEventsSurviveCrashWithoutCheckpoint) {
  {
    std::unique_ptr<DatabaseService> service = MakeJournaled();
    ASSERT_OK(Run(*service, "event add 9 100").status);
    ASSERT_OK(Run(*service, "event pref 9 weight pr 3 3 3").status);
    ASSERT_OK(Run(*service, "event threshold 9 50").status);
    // Service dropped without FinalCheckpoint — a kill -9.
  }
  storage::RecoveryReport report;
  ASSERT_OK_AND_ASSIGN(
      storage::Database reloaded,
      storage::LoadDatabase(dir_.string(), storage::GetRealFileSystem(),
                            &report));
  EXPECT_EQ(report.journal_replayed, 3) << report.ToString();
  EXPECT_FALSE(report.clean());
  EXPECT_DOUBLE_EQ(reloaded.config.ThresholdFor(9), 50.0);
  EXPECT_TRUE(reloaded.config.preferences.Contains(9));
}

TEST_F(JournaledServiceTest, SaveCheckpointRotatesAndPrunesTheJournal) {
  std::unique_ptr<DatabaseService> service = MakeJournaled();
  ASSERT_OK(Run(*service, "event add 9 100").status);
  Response stats = Run(*service, "stats");
  EXPECT_NE(stats.payload.find(" journal_records=1"), std::string::npos)
      << stats.payload;

  ASSERT_OK(Run(*service, "save").status);
  stats = Run(*service, "stats");
  // The checkpoint sealed the event into a generation; the journal
  // rotated to it and starts empty.
  EXPECT_NE(stats.payload.find(" journal_records=0"), std::string::npos)
      << stats.payload;
  EXPECT_NE(stats.payload.find(" events_since_checkpoint=0"),
            std::string::npos)
      << stats.payload;

  storage::RecoveryReport report;
  ASSERT_OK_AND_ASSIGN(
      storage::Database reloaded,
      storage::LoadDatabase(dir_.string(), storage::GetRealFileSystem(),
                            &report));
  EXPECT_TRUE(report.clean()) << report.ToString();
  EXPECT_DOUBLE_EQ(reloaded.config.ThresholdFor(9), 100.0);
}

TEST_F(JournaledServiceTest, AppendFaultFailsTheEventAndRescueRestores) {
  std::unique_ptr<DatabaseService> service = MakeJournaled();
  ASSERT_OK(Run(*service, "event add 9 100").status);

  // Fault the next journal write (SetPlan resets the op counter and the
  // filter skips save I/O, so op 0 is the event's frame append). The event
  // must NOT be acknowledged and must NOT be applied in memory.
  FaultJournalOp(0, storage::FaultKind::kTornWrite);
  Response failed = Run(*service, "event add 10 100");
  EXPECT_TRUE(failed.status.IsUnavailable()) << failed.status.ToString();
  EXPECT_NE(failed.status.message().find("not durable"), std::string::npos);
  EXPECT_EQ(service->breaker().consecutive_failures(), 1);

  Response stats = Run(*service, "stats");
  EXPECT_NE(stats.payload.find("journal_wedged=1"), std::string::npos)
      << stats.payload;
  // The unacknowledged event is not in memory.
  EXPECT_TRUE(Run(*service, "query provider 10").status.IsNotFound());

  // The disk is healthy again; the next event rescues with a checkpoint,
  // rotates the journal, and goes through.
  Heal();
  ASSERT_OK(Run(*service, "event add 11 100").status);
  stats = Run(*service, "stats");
  EXPECT_EQ(stats.payload.find("journal_wedged=1"), std::string::npos)
      << stats.payload;

  storage::RecoveryReport report;
  ASSERT_OK_AND_ASSIGN(
      storage::Database reloaded,
      storage::LoadDatabase(dir_.string(), storage::GetRealFileSystem(),
                            &report));
  EXPECT_DOUBLE_EQ(reloaded.config.ThresholdFor(9), 100.0);
  EXPECT_DOUBLE_EQ(reloaded.config.ThresholdFor(11), 100.0);
  EXPECT_FALSE(reloaded.config.preferences.Contains(10));
}

TEST_F(JournaledServiceTest, EnospcOpensTheBreakerAndTurnsReadOnly) {
  std::unique_ptr<DatabaseService> service = MakeJournaled(
      /*failure_threshold=*/1);
  ASSERT_OK(Run(*service, "event add 9 100").status);

  // ENOSPC is permanent (kOutOfRange), but the breaker must still open:
  // the journal failure is recorded as one transient-coded outcome.
  FaultJournalOp(0, storage::FaultKind::kNoSpace);
  EXPECT_TRUE(Run(*service, "event add 10 100").status.IsUnavailable());
  EXPECT_EQ(service->breaker().state(), CircuitBreaker::State::kOpen);

  // Read-only: mutating requests are rejected up front, reads keep going.
  Response rejected = Run(*service, "event add 11 100");
  EXPECT_TRUE(rejected.status.IsUnavailable());
  EXPECT_NE(rejected.status.message().find("read-only"), std::string::npos);
  ASSERT_OK(Run(*service, "analyze").status);

  // Past the open window, the probe event rescues (checkpoint + rotate)
  // and writes come back.
  Heal();
  now_ += milliseconds(1500);
  ASSERT_OK(Run(*service, "event add 11 100").status);
  EXPECT_EQ(service->breaker().state(), CircuitBreaker::State::kClosed);
}

TEST_F(JournaledServiceTest, StatsExposeDurabilityPosture) {
  std::unique_ptr<DatabaseService> service = MakeJournaled();
  Response stats = Run(*service, "stats");
  ASSERT_OK(stats.status);
  EXPECT_NE(stats.payload.find(" journal=journal-"), std::string::npos)
      << stats.payload;
  EXPECT_NE(stats.payload.find(" journal_bytes="), std::string::npos);
  EXPECT_NE(stats.payload.find(" events_since_checkpoint=0"),
            std::string::npos);
  EXPECT_NE(stats.payload.find(" last_checkpoint_generation=gen-"),
            std::string::npos)
      << stats.payload;

  ASSERT_OK(Run(*service, "event add 9 100").status);
  stats = Run(*service, "stats");
  EXPECT_NE(stats.payload.find(" events_since_checkpoint=1"),
            std::string::npos)
      << stats.payload;
}

TEST_F(DatabaseServiceTest, JournalDisabledStatsSayNone) {
  std::unique_ptr<DatabaseService> service = MakeService();
  Response stats = Run(*service, "stats");
  ASSERT_OK(stats.status);
  EXPECT_NE(stats.payload.find(" journal=none"), std::string::npos)
      << stats.payload;
}

// --- incremental-view serve surface ---------------------------------------

TEST_F(DatabaseServiceTest, ExpansionCheckAnsweredFromMaintainedState) {
  std::unique_ptr<DatabaseService> service = MakeService();
  // 2 providers, provider 1 defaulted (severity 6 > threshold 3):
  // N_future = 1, so doubling per-provider utility is justified.
  Response check = Run(*service, "expansion-check 10 12");
  ASSERT_OK(check.status);
  EXPECT_NE(check.payload.find("justified=1"), std::string::npos)
      << check.payload;
  EXPECT_NE(check.payload.find("n_current=2"), std::string::npos);
  EXPECT_NE(check.payload.find("n_defaulted=1"), std::string::npos);
  EXPECT_NE(check.payload.find("n_future=1"), std::string::npos);
  EXPECT_NE(check.payload.find("break_even_extra_utility=10"),
            std::string::npos)
      << check.payload;

  // T below break-even: not justified.
  check = Run(*service, "expansion-check 10 5");
  ASSERT_OK(check.status);
  EXPECT_NE(check.payload.find("justified=0"), std::string::npos)
      << check.payload;
}

TEST_F(DatabaseServiceTest, DriftCheckRequestRunsTheOracle) {
  std::unique_ptr<DatabaseService> service = MakeService();
  ASSERT_OK(Run(*service, "event add 9 100").status);
  Response drift = Run(*service, "driftcheck");
  ASSERT_OK(drift.status);
  EXPECT_NE(drift.payload.find("clean=1"), std::string::npos)
      << drift.payload;
  EXPECT_NE(drift.payload.find("providers_checked=3"), std::string::npos)
      << drift.payload;
  EXPECT_NE(drift.payload.find("drift_checks_clean=1"), std::string::npos)
      << drift.payload;
  EXPECT_NE(drift.payload.find("drift_checks_failed=0"), std::string::npos)
      << drift.payload;
}

TEST_F(DatabaseServiceTest, StatsExposeViewPosture) {
  std::unique_ptr<DatabaseService> service = MakeService();
  Response stats = Run(*service, "stats");
  ASSERT_OK(stats.status);
  // 2 providers × 1 policy tuple.
  EXPECT_NE(stats.payload.find(" view_cells=2"), std::string::npos)
      << stats.payload;
  EXPECT_NE(stats.payload.find(" view_delta_events=0"), std::string::npos);
  EXPECT_NE(stats.payload.find(" view_rebuild_events=0"), std::string::npos);
  EXPECT_NE(stats.payload.find(" drift_checks_failed=0"), std::string::npos);

  // A preference event rides the delta path and reports its cell count.
  ASSERT_OK(Run(*service, "event pref 1 weight pr 3 3 3").status);
  stats = Run(*service, "stats");
  EXPECT_NE(stats.payload.find(" view_delta_events=1"), std::string::npos)
      << stats.payload;
  EXPECT_NE(stats.payload.find(" view_last_delta_cells=1"),
            std::string::npos)
      << stats.payload;
}

TEST_F(DatabaseServiceTest, PeriodicDriftCheckRunsAtConfiguredCadence) {
  DatabaseService::Options options;
  options.checkpoint_every_events = 0;
  options.num_threads = 1;
  options.journal_enabled = false;
  options.drift_check_every_events = 2;
  ASSERT_OK_AND_ASSIGN(
      std::unique_ptr<DatabaseService> service,
      DatabaseService::Create(dir_.string(), faulty_.get(), options));

  ASSERT_OK(Run(*service, "event add 9 1").status);  // event 1: not yet
  Response stats = Run(*service, "stats");
  EXPECT_NE(stats.payload.find(" drift_checks_clean=0"), std::string::npos)
      << stats.payload;

  ASSERT_OK(Run(*service, "event add 10 1").status);  // event 2: fires
  stats = Run(*service, "stats");
  EXPECT_NE(stats.payload.find(" drift_checks_clean=1"), std::string::npos)
      << stats.payload;
  EXPECT_NE(stats.payload.find(" drift_checks_failed=0"), std::string::npos)
      << stats.payload;
}

TEST_F(JournaledServiceTest, ReplayedJournalConvergesViewDriftClean) {
  {
    std::unique_ptr<DatabaseService> service = MakeJournaled();
    ASSERT_OK(Run(*service, "event add 9 100").status);
    ASSERT_OK(Run(*service, "event pref 9 weight pr 3 3 3").status);
    ASSERT_OK(Run(*service, "event threshold 9 50").status);
    ASSERT_OK(Run(*service, "event add 11 0.5").status);
    // Dropped without FinalCheckpoint — a kill -9; the journal is the only
    // record of these events.
  }
  // The reloaded service rebuilds its view from the replayed config; the
  // drift oracle must find maintained state and full analysis identical.
  std::unique_ptr<DatabaseService> service = MakeJournaled();
  Response drift = Run(*service, "driftcheck");
  ASSERT_OK(drift.status);
  EXPECT_NE(drift.payload.find("clean=1"), std::string::npos)
      << drift.payload;
  EXPECT_NE(drift.payload.find("providers_checked=4"), std::string::npos)
      << drift.payload;
  Response provider = Run(*service, "query provider 9");
  ASSERT_OK(provider.status);
  EXPECT_NE(provider.payload.find("violated=0"), std::string::npos)
      << provider.payload;
}

// --- census requests off the service lock --------------------------------

/// Replaces the fixture database with a synthetic population of
/// `providers` providers and |HP| = 8 (4 attributes x 2 purposes), so the
/// census requests scan long enough to overlap other work.
void SaveSyntheticPopulation(const std::filesystem::path& dir,
                             int64_t providers) {
  sim::PopulationConfig config;
  config.num_providers = providers;
  config.attributes = {{"age", 2.0, 45.0, 15.0},
                       {"income", 4.0, 50.0, 20.0},
                       {"zip", 3.0, 50.0, 10.0},
                       {"diagnosis", 5.0, 0.0, 1.0}};
  config.purposes = {"service", "marketing"};
  ASSERT_OK_AND_ASSIGN(sim::Population population,
                       sim::PopulationGenerator(config).Generate());
  ASSERT_OK_AND_ASSIGN(
      privacy::HousePolicy policy,
      sim::MakeUniformPolicy(config.attributes, config.purposes, 0.5, 0.5,
                             0.5, &population.config));
  population.config.policy = std::move(policy);
  storage::Database database;
  database.config = std::move(population.config);
  std::filesystem::remove_all(dir);
  ASSERT_OK(storage::SaveDatabase(dir.string(), database));
}

/// A service with no journal and no periodic checkpoints, so an event
/// costs only its view delta, and one analytics thread.
Result<std::unique_ptr<DatabaseService>> CreateWithoutDurability(
    const std::filesystem::path& dir, storage::FileSystem* fs) {
  DatabaseService::Options options;
  options.checkpoint_every_events = 0;
  options.num_threads = 1;
  options.journal_enabled = false;
  return DatabaseService::Create(dir.string(), fs, options);
}

// A census scan runs on a private config copy with no service lock held,
// so events and queries complete while it is still running instead of
// queueing on the writer lock behind it.
TEST_F(DatabaseServiceTest, EventsAndQueriesCompleteDuringACensusScan) {
  ASSERT_NO_FATAL_FAILURE(SaveSyntheticPopulation(dir_, 4000));
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<DatabaseService> service,
                       CreateWithoutDurability(dir_, faulty_.get()));

  // One search step scores every single-level widening: 25 full scans.
  const obs::Histogram& scans =
      *violation::ViolationMetrics::Get().analyze_seconds;
  const int64_t scans_before = scans.Count();
  std::atomic<bool> search_done{false};
  Response search;
  std::thread census([&] {
    search = Run(*service, "search 1 1.0");
    search_done.store(true);
  });
  // Once the search's baseline scan has finished, it is running with 24
  // scans to go.
  while (scans.Count() == scans_before && !search_done.load()) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }

  const char* kLive[] = {
      "event threshold 5 2.5", "query pw",
      "event threshold 6 0.5", "query provider 5",
      "event threshold 5 9",   "query pdefault",
      "certify 0.5",           "expansion-check 10 2",
      "stats",
  };
  for (const char* line : kLive) {
    EXPECT_OK(Run(*service, line).status) << line;
  }
  EXPECT_FALSE(search_done.load())
      << "live requests waited for the census scan to finish";
  census.join();
  ASSERT_OK(search.status);
  EXPECT_NE(search.payload.find("best_utility="), std::string::npos);
}

// An analyze scans a copy that an event may have outdated by the time the
// scan publishes its population gauges; the service then restores the
// monitor's live values, so the gauges end on the acknowledged state.
TEST_F(DatabaseServiceTest, GaugesEndOnTheLiveStateAfterAnOutdatedScan) {
  ASSERT_NO_FATAL_FAILURE(SaveSyntheticPopulation(dir_, 4000));
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<DatabaseService> service,
                       CreateWithoutDurability(dir_, faulty_.get()));

  const obs::Gauge& providers = *violation::ViolationMetrics::Get().providers;
  for (int added = 1; added <= 3; ++added) {
    std::thread census([&] { EXPECT_OK(Run(*service, "analyze").status); });
    // Lands while the scan runs on the copy taken before it.
    std::this_thread::sleep_for(milliseconds(3));
    EXPECT_OK(
        Run(*service, "event add " + std::to_string(100000 + added) + " 1")
            .status);
    census.join();
    EXPECT_EQ(providers.Value(), 4000.0 + added);
  }
}

// The census answers are a function of the acknowledged state alone: a
// burst of events applied and then undone leaves every payload
// byte-identical.
TEST_F(DatabaseServiceTest, CensusPayloadsDependOnlyOnTheState) {
  std::unique_ptr<DatabaseService> service = MakeService();
  const char* kCensus[] = {"analyze", "certify 0.6", "whatif v 2",
                           "search 4 1.0"};
  auto census = [&] {
    std::vector<std::string> payloads;
    for (const char* line : kCensus) {
      Response response = Run(*service, line);
      EXPECT_OK(response.status) << line;
      payloads.push_back(response.payload);
    }
    return payloads;
  };
  const std::vector<std::string> before = census();

  const char* kBurst[] = {"event add 9 100", "event threshold 1 5",
                          "event pref 2 weight pr 0 0 0",
                          "event pref 1 weight pr 1 1 1"};
  for (const char* line : kBurst) ASSERT_OK(Run(*service, line).status);
  const std::vector<std::string> during = census();
  for (size_t i = 0; i < before.size(); ++i) {
    EXPECT_NE(during[i], before[i]) << kCensus[i];
  }

  const char* kUndo[] = {"event pref 1 weight pr 0 0 0",
                         "event pref 2 weight pr 3 3 3",
                         "event threshold 1 3", "event remove 9"};
  for (const char* line : kUndo) ASSERT_OK(Run(*service, line).status);
  EXPECT_EQ(census(), before);
}

}  // namespace
}  // namespace ppdb::server
