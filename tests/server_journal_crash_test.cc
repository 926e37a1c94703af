// Crash matrix for the write-ahead journal: a full serving session is run
// once with a fault-counting filesystem to enumerate every journal I/O
// (open, header write, record append, fsync, truncate, rotation), then for
// every site × every fault kind × several seeds the same session is run
// with that one op faulted and the directory re-loaded as a fresh process
// would. The oracle is the durability contract: *no acknowledged event is
// ever lost, and no unacknowledged event is ever applied* — with the one
// principled exception that the single in-flight event whose append/fsync
// faulted may surface after recovery when its frame reached the disk
// before the failure (classic WAL gray zone: durable but unacknowledged).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/deadlock.h"
#include "common/macros.h"
#include "common/rng.h"
#include "privacy/policy_dsl.h"
#include "server/request.h"
#include "server/service.h"
#include "storage/database_io.h"
#include "storage/fs.h"
#include "storage/journal.h"
#include "tests/gated_fs.h"
#include "tests/test_util.h"

namespace ppdb::server {
namespace {

namespace stdfs = std::filesystem;

constexpr char kConfigDsl[] = R"(
scale visibility: l0, l1, l2, l3
scale granularity: l0, l1, l2, l3
scale retention: l0, l1, l2, l3
purpose pr
policy weight for pr: visibility=2, granularity=2, retention=2
pref 1 weight for pr: visibility=0, granularity=0, retention=0
threshold 1 = 3
)";

// The scripted session. Every line is valid when the whole prefix before
// it was applied; a line whose prerequisite event was dropped by a fault
// simply fails validation (never acknowledged, never journaled), which the
// oracle accounts for.
const std::vector<std::string>& Script() {
  static const std::vector<std::string> script = {
      "event add 9 10",
      "event pref 9 weight pr 1 1 1",
      "event threshold 9 20",
      "event add 10 5",
      "event pref 10 weight pr 2 2 2",
      "event unpref 10 weight pr",
      "event remove 9",
      "event add 11 7",
      "event threshold 11 3",
      "event remove 10",
  };
  return script;
}

class JournalCrashMatrixTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  void SetUp() override {
    root_ = stdfs::temp_directory_path() /
            ("ppdb_journal_crash_" + std::to_string(::getpid()) + "_seed" +
             std::to_string(GetParam()));
    stdfs::remove_all(root_);
  }
  void TearDown() override { stdfs::remove_all(root_); }

  static void SeedDirectory(const std::string& dir) {
    storage::Database database;
    ASSERT_OK_AND_ASSIGN(database.config,
                         privacy::ParsePrivacyConfig(kConfigDsl));
    ASSERT_OK(storage::SaveDatabase(dir, database));
  }

  static DatabaseService::Options ServiceOptions() {
    DatabaseService::Options options;
    // A mid-script periodic checkpoint exercises pruning + rotation as
    // injection sites alongside the appends.
    options.checkpoint_every_events = 4;
    options.num_threads = 1;
    options.save_retry.max_attempts = 1;
    // Keep the breaker out of the way: the matrix is about durability,
    // and the read-only drill has its own tests.
    options.breaker.failure_threshold = 1000;
    return options;
  }

  /// Runs the script, applying every *acknowledged* event to `model` in
  /// order, and records the one event whose journal append faulted (the
  /// only event that can be durable-but-unacknowledged).
  static void RunScript(DatabaseService& service,
                        privacy::PrivacyConfig& model,
                        std::string* faulted_payload) {
    for (const std::string& line : Script()) {
      Result<Request> request = ParseRequest(line);
      ASSERT_OK(request.status()) << line;
      Response response = service.Execute(request.value(), Deadline());
      const std::string payload = line.substr(std::string("event ").size());
      if (response.status.ok()) {
        ASSERT_OK_AND_ASSIGN(storage::JournalEvent event,
                             storage::JournalEvent::Decode(payload));
        ASSERT_OK(event.Apply(model)) << line;
      } else if (response.status.message().find("not durable") !=
                 std::string::npos) {
        // The append itself faulted: its frame may or may not be durable.
        *faulted_payload = payload;
      }
    }
  }

  /// `RunScript` over script lines [begin, end).
  static void RunLines(DatabaseService& service, privacy::PrivacyConfig& model,
                       std::string* faulted_payload, size_t begin,
                       size_t end) {
    for (size_t i = begin; i < end; ++i) {
      const std::string& line = Script()[i];
      Result<Request> request = ParseRequest(line);
      ASSERT_OK(request.status()) << line;
      Response response = service.Execute(request.value(), Deadline());
      const std::string payload = line.substr(std::string("event ").size());
      if (response.status.ok()) {
        ASSERT_OK_AND_ASSIGN(storage::JournalEvent event,
                             storage::JournalEvent::Decode(payload));
        ASSERT_OK(event.Apply(model)) << line;
      } else if (response.status.message().find("not durable") !=
                 std::string::npos) {
        *faulted_payload = payload;
      }
    }
  }

  /// The oracle: `dir` reloads to exactly the acknowledged history `model`
  /// (or to it plus the one faulted in-flight event), and a healthy
  /// re-save absorbs whatever the fault left behind.
  void ExpectRecoveredHistory(const std::string& dir,
                              const privacy::PrivacyConfig& model,
                              const std::string& faulted_payload) {
    storage::RecoveryReport report;
    Result<storage::Database> loaded =
        storage::LoadDatabase(dir, real_, &report);
    ASSERT_OK(loaded.status()) << report.ToString();

    const std::string got =
        privacy::SerializePrivacyConfig(loaded->config);
    const std::string acked = privacy::SerializePrivacyConfig(model);
    // The gray zone: the faulted event's frame may have become durable
    // before the failure. It is the last record the journal can hold, so
    // at most one extra state is acceptable.
    std::string acked_plus_faulted = acked;
    if (!faulted_payload.empty()) {
      ASSERT_OK_AND_ASSIGN(
          storage::JournalEvent event,
          storage::JournalEvent::Decode(faulted_payload));
      privacy::PrivacyConfig gray = model;
      if (event.Apply(gray).ok()) {
        acked_plus_faulted = privacy::SerializePrivacyConfig(gray);
      }
    }
    EXPECT_TRUE(got == acked || got == acked_plus_faulted)
        << "recovered state matches neither the acknowledged history nor "
           "acknowledged+in-flight\nrecovery: "
        << report.ToString();

    // A later healthy recover absorbs whatever the crash left behind.
    ASSERT_OK(storage::SaveDatabase(dir, loaded.value()));
    storage::RecoveryReport clean_report;
    ASSERT_OK_AND_ASSIGN(storage::Database again,
                         storage::LoadDatabase(dir, real_, &clean_report));
    EXPECT_TRUE(clean_report.clean()) << clean_report.ToString();
    EXPECT_EQ(privacy::SerializePrivacyConfig(again.config), got);
  }

  stdfs::path root_;
  storage::RealFileSystem real_;
};

TEST_P(JournalCrashMatrixTest, NoAckedEventLostNoUnackedEventApplied) {
  const uint64_t seed = GetParam();

  // Pass 1: count the journal I/O sites of one full session.
  const std::string count_dir = (root_ / "count").string();
  SeedDirectory(count_dir);
  storage::FaultInjectingFileSystem counting(&real_, Rng(seed));
  counting.SetPlan({.fail_at_op = -1, .path_filter = "journal-"});
  {
    ASSERT_OK_AND_ASSIGN(std::unique_ptr<DatabaseService> service,
                         DatabaseService::Create(count_dir, &counting,
                                                 ServiceOptions()));
    privacy::PrivacyConfig model;
    ASSERT_OK_AND_ASSIGN(model, privacy::ParsePrivacyConfig(kConfigDsl));
    std::string faulted;
    RunScript(*service, model, &faulted);
    EXPECT_TRUE(faulted.empty());
  }
  const int64_t total_ops = counting.ops_seen();
  ASSERT_GE(total_ops, 25) << "journal I/O shrank below the fault matrix";

  const storage::FaultKind kinds[] = {
      storage::FaultKind::kFailOp, storage::FaultKind::kTornWrite,
      storage::FaultKind::kNoSpace, storage::FaultKind::kCrash};
  for (storage::FaultKind kind : kinds) {
    for (int64_t op = 0; op < total_ops; ++op) {
      SCOPED_TRACE("seed " + std::to_string(seed) + ", kind " +
                   std::string(storage::FaultKindName(kind)) +
                   ", fault at journal op " + std::to_string(op));
      const std::string dir =
          (root_ / (std::string(storage::FaultKindName(kind)) + "_" +
                    std::to_string(op)))
              .string();
      SeedDirectory(dir);
      privacy::PrivacyConfig model;
      ASSERT_OK_AND_ASSIGN(model, privacy::ParsePrivacyConfig(kConfigDsl));

      storage::FaultInjectingFileSystem faulty(&real_,
                                               Rng(seed * 1000003 + op));
      faulty.SetPlan(
          {.fail_at_op = op, .kind = kind, .path_filter = "journal-"});
      std::string faulted_payload;
      {
        Result<std::unique_ptr<DatabaseService>> service =
            DatabaseService::Create(dir, &faulty, ServiceOptions());
        if (service.ok()) {
          RunScript(*service.value(), model, &faulted_payload);
        }
        // else: the fault hit the journal open inside Create — nothing was
        // ever acknowledged, so the model stays the seeded config.
        // The service is dropped here without FinalCheckpoint: a kill -9.
      }

      storage::RecoveryReport report;
      Result<storage::Database> loaded =
          storage::LoadDatabase(dir, real_, &report);
      ASSERT_OK(loaded.status()) << report.ToString();

      const std::string got =
          privacy::SerializePrivacyConfig(loaded->config);
      const std::string acked = privacy::SerializePrivacyConfig(model);
      // The gray zone: the faulted event's frame may have become durable
      // before the failure. It is the last record the journal can hold, so
      // at most one extra state is acceptable.
      std::string acked_plus_faulted = acked;
      if (!faulted_payload.empty()) {
        ASSERT_OK_AND_ASSIGN(
            storage::JournalEvent event,
            storage::JournalEvent::Decode(faulted_payload));
        privacy::PrivacyConfig gray = model;
        if (event.Apply(gray).ok()) {
          acked_plus_faulted = privacy::SerializePrivacyConfig(gray);
        }
      }
      EXPECT_TRUE(got == acked || got == acked_plus_faulted)
          << "recovered state matches neither the acknowledged history nor "
             "acknowledged+in-flight\nrecovery: "
          << report.ToString();

      // A later healthy recover absorbs whatever the crash left behind.
      ASSERT_OK(storage::SaveDatabase(dir, loaded.value()));
      storage::RecoveryReport clean_report;
      ASSERT_OK_AND_ASSIGN(storage::Database again,
                           storage::LoadDatabase(dir, real_, &clean_report));
      EXPECT_TRUE(clean_report.clean()) << clean_report.ToString();
      EXPECT_EQ(privacy::SerializePrivacyConfig(again.config), got);
      stdfs::remove_all(dir);
    }
  }
}

// The same oracle with a checkpoint overlapping acknowledged events. A
// `save` runs on a second thread and is held at its first staging write
// while K events are acknowledged on this one; then it stages, prepares
// the new generation's segment with those K events, swaps CURRENT and
// prunes; then the script finishes. Every mutating op of that session is
// faulted in turn — staging writes, the gen- rename, the successor
// segment's open/append/sync, CURRENT.tmp, the CURRENT rename, the prunes
// and the events' own appends and fsyncs. The gate sits outside the fault
// injector, so the op order (and with it each fault's site) is the same
// in every run.
TEST_P(JournalCrashMatrixTest, CheckpointOverlappingEventsLosesNoAckedEvent) {
  deadlock::ScopedDetectionForTest detection(deadlock::Mode::kReport);
  const int64_t reports_before = deadlock::ViolationCount();
  const uint64_t seed = GetParam();
  constexpr size_t kBefore = 3;  // events acknowledged before the save
  constexpr size_t kDuring = 4;  // events acknowledged during its staging
  DatabaseService::Options options = ServiceOptions();
  options.checkpoint_every_events = 0;  // the save is the only checkpoint

  // Runs the session against `faulty` on `dir`; the service is dropped
  // without a final checkpoint (a kill -9).
  auto session = [&](const std::string& dir,
                     storage::FaultInjectingFileSystem& faulty,
                     privacy::PrivacyConfig& model, std::string* faulted) {
    testing::GatedFileSystem gated(&faulty, "/.staging-");
    Result<std::unique_ptr<DatabaseService>> service =
        DatabaseService::Create(dir, &gated, options);
    if (!service.ok()) return;  // the fault hit the journal open
    RunLines(**service, model, faulted, 0, kBefore);
    gated.Arm();
    std::atomic<bool> save_done{false};
    std::thread checkpoint([&] {
      Result<Request> save = ParseRequest("save");
      (void)(*service)->Execute(save.value(), Deadline());
      save_done.store(true);
    });
    // Held at the gate, or failed before reaching it — then open the gate
    // so a rescue checkpoint of a later event cannot stop there.
    EXPECT_TRUE(testing::WaitFor(
        [&] { return gated.held() || save_done.load(); }));
    if (!gated.held()) gated.Release();
    RunLines(**service, model, faulted, kBefore, kBefore + kDuring);
    gated.Release();
    checkpoint.join();
    RunLines(**service, model, faulted, kBefore + kDuring,
             Script().size());
  };

  // Pass 1: count every mutating op of one healthy session.
  const std::string count_dir = (root_ / "overlap_count").string();
  SeedDirectory(count_dir);
  storage::FaultInjectingFileSystem counting(&real_, Rng(seed));
  counting.SetPlan({.fail_at_op = -1});
  {
    privacy::PrivacyConfig model;
    ASSERT_OK_AND_ASSIGN(model, privacy::ParsePrivacyConfig(kConfigDsl));
    std::string faulted;
    session(count_dir, counting, model, &faulted);
    EXPECT_TRUE(faulted.empty());
    ASSERT_NO_FATAL_FAILURE(ExpectRecoveredHistory(count_dir, model, ""));
  }
  const int64_t total_ops = counting.ops_seen();
  ASSERT_GE(total_ops, 30) << "the session's I/O shrank below the matrix";

  const storage::FaultKind kinds[] = {
      storage::FaultKind::kFailOp, storage::FaultKind::kTornWrite,
      storage::FaultKind::kNoSpace, storage::FaultKind::kCrash};
  for (storage::FaultKind kind : kinds) {
    for (int64_t op = 0; op < total_ops; ++op) {
      SCOPED_TRACE("seed " + std::to_string(seed) + ", kind " +
                   std::string(storage::FaultKindName(kind)) +
                   ", fault at op " + std::to_string(op));
      const std::string dir =
          (root_ / ("overlap_" + std::string(storage::FaultKindName(kind)) +
                    "_" + std::to_string(op)))
              .string();
      SeedDirectory(dir);
      privacy::PrivacyConfig model;
      ASSERT_OK_AND_ASSIGN(model, privacy::ParsePrivacyConfig(kConfigDsl));
      storage::FaultInjectingFileSystem faulty(&real_,
                                               Rng(seed * 1000003 + op));
      faulty.SetPlan({.fail_at_op = op, .kind = kind});
      std::string faulted_payload;
      session(dir, faulty, model, &faulted_payload);
      EXPECT_EQ(faulty.faults_injected(), 1);
      ASSERT_NO_FATAL_FAILURE(
          ExpectRecoveredHistory(dir, model, faulted_payload));
      stdfs::remove_all(dir);
    }
  }
  EXPECT_EQ(deadlock::ViolationCount(), reports_before);
}

INSTANTIATE_TEST_SUITE_P(Seeds, JournalCrashMatrixTest,
                         ::testing::Values<uint64_t>(1, 2, 3));

}  // namespace
}  // namespace ppdb::server
