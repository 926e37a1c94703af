#include "storage/journal.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "common/crc32c.h"
#include "common/deadlock.h"
#include "common/macros.h"
#include "common/rng.h"
#include "privacy/policy_dsl.h"
#include "storage/fs.h"
#include "tests/test_util.h"

namespace ppdb::storage {
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

privacy::PrivacyConfig MakeConfig() {
  auto config = privacy::ParsePrivacyConfig(kConfigDsl);
  PPDB_CHECK_OK(config.status());
  return std::move(config).value();
}

void PutU32Le(std::string& out, uint32_t v) {
  out.push_back(static_cast<char>(v & 0xFF));
  out.push_back(static_cast<char>((v >> 8) & 0xFF));
  out.push_back(static_cast<char>((v >> 16) & 0xFF));
  out.push_back(static_cast<char>((v >> 24) & 0xFF));
}

std::string Frame(std::string_view payload) {
  std::string frame;
  PutU32Le(frame, static_cast<uint32_t>(payload.size()));
  PutU32Le(frame, Crc32c(payload));
  frame.append(payload);
  return frame;
}

std::string Header(std::string_view base) {
  return "ppdb-journal v1 base=" + std::string(base) + "\n";
}

// --- CRC-32C ---------------------------------------------------------------

TEST(Crc32cTest, KnownVectors) {
  // RFC 3720 B.4 test vectors.
  EXPECT_EQ(Crc32c("123456789"), 0xE3069283u);
  EXPECT_EQ(Crc32c(std::string(32, '\0')), 0x8A9136AAu);
  EXPECT_EQ(Crc32c(std::string(32, '\xff')), 0x62A8AB43u);
  EXPECT_EQ(Crc32c(""), 0u);
}

TEST(Crc32cTest, ExtendChainsAcrossSplits) {
  const std::string data = "the quick brown fox jumps over the lazy dog";
  const uint32_t whole = Crc32c(data);
  for (size_t split = 0; split <= data.size(); ++split) {
    EXPECT_EQ(ExtendCrc32c(Crc32c(data.substr(0, split)), data.substr(split)),
              whole)
        << "split at " << split;
  }
}

TEST(Crc32cTest, DetectsSingleBitFlips) {
  const std::string data = "add 7 0.5";
  const uint32_t good = Crc32c(data);
  for (size_t byte = 0; byte < data.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string flipped = data;
      flipped[byte] = static_cast<char>(flipped[byte] ^ (1 << bit));
      EXPECT_NE(Crc32c(flipped), good);
    }
  }
}

// --- Segment scanning -------------------------------------------------------

TEST(JournalScanTest, RejectsNonJournals) {
  EXPECT_TRUE(ScanJournalSegment("").status().IsParseError());
  EXPECT_TRUE(ScanJournalSegment("no newline here").status().IsParseError());
  EXPECT_TRUE(ScanJournalSegment("wrong header\n").status().IsParseError());
  // A header prefix with no base generation is not a journal either.
  EXPECT_TRUE(
      ScanJournalSegment("ppdb-journal v1 base=\n").status().IsParseError());
}

TEST(JournalScanTest, HeaderOnlyScansEmpty) {
  ASSERT_OK_AND_ASSIGN(JournalScan scan, ScanJournalSegment(Header("gen-3")));
  EXPECT_EQ(scan.base_generation, "gen-3");
  EXPECT_TRUE(scan.payloads.empty());
  EXPECT_FALSE(scan.torn_tail);
  EXPECT_EQ(scan.valid_bytes, Header("gen-3").size());
}

TEST(JournalScanTest, ScansRecordsInOrder) {
  const std::string contents =
      Header("gen-0") + Frame("add 7 0.5") + Frame("remove 7");
  ASSERT_OK_AND_ASSIGN(JournalScan scan, ScanJournalSegment(contents));
  ASSERT_EQ(scan.payloads.size(), 2u);
  EXPECT_EQ(scan.payloads[0], "add 7 0.5");
  EXPECT_EQ(scan.payloads[1], "remove 7");
  EXPECT_FALSE(scan.torn_tail);
  EXPECT_EQ(scan.valid_bytes, contents.size());
}

TEST(JournalScanTest, TornTailVariantsStopCleanly) {
  const std::string base = Header("gen-0") + Frame("add 7 0.5");
  struct Case {
    std::string name;
    std::string tail;
  };
  const Case cases[] = {
      {"short frame header", std::string("\x03\x00", 2)},
      {"record length beyond end of segment", Frame("add 8 1").substr(0, 10)},
      {"crc mismatch", [] {
         std::string f = Frame("add 8 1");
         f.back() ^= 1;  // corrupt the payload, keep the stored CRC
         return f;
       }()},
      {"implausible record length", [] {
         std::string f;
         PutU32Le(f, 0xFFFFFFFFu);
         PutU32Le(f, 0);
         return f;
       }()},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    ASSERT_OK_AND_ASSIGN(JournalScan scan,
                         ScanJournalSegment(base + c.tail));
    // The good prefix survives; the tail is reported, not returned.
    ASSERT_EQ(scan.payloads.size(), 1u);
    EXPECT_EQ(scan.payloads[0], "add 7 0.5");
    EXPECT_TRUE(scan.torn_tail);
    EXPECT_NE(scan.torn_detail.find(c.name), std::string::npos)
        << scan.torn_detail;
    EXPECT_EQ(scan.valid_bytes, base.size());
  }
}

// --- Event codec ------------------------------------------------------------

TEST(JournalEventTest, EncodeDecodeRoundTripsEveryKind) {
  std::vector<JournalEvent> events(5);
  events[0].kind = JournalEvent::Kind::kAddProvider;
  events[0].provider = 7;
  events[0].threshold = 0.125;
  events[1].kind = JournalEvent::Kind::kRemoveProvider;
  events[1].provider = 9;
  events[2].kind = JournalEvent::Kind::kSetPreference;
  events[2].provider = 7;
  events[2].attribute = "weight";
  events[2].purpose = "pr";
  events[2].visibility = 1;
  events[2].granularity = 2;
  events[2].retention = 3;
  events[3].kind = JournalEvent::Kind::kRemovePreference;
  events[3].provider = 7;
  events[3].attribute = "weight";
  events[3].purpose = "pr";
  events[4].kind = JournalEvent::Kind::kSetThreshold;
  events[4].provider = 7;
  events[4].threshold = 1e-9;

  for (const JournalEvent& event : events) {
    SCOPED_TRACE(event.Encode());
    ASSERT_OK_AND_ASSIGN(JournalEvent decoded,
                         JournalEvent::Decode(event.Encode()));
    EXPECT_EQ(decoded.Encode(), event.Encode());
    EXPECT_EQ(decoded.kind, event.kind);
    EXPECT_EQ(decoded.provider, event.provider);
  }
}

TEST(JournalEventTest, DecodeRejectsMalformedPayloads) {
  EXPECT_TRUE(JournalEvent::Decode("").status().IsParseError());
  EXPECT_TRUE(JournalEvent::Decode("frobnicate 1").status().IsParseError());
  EXPECT_TRUE(JournalEvent::Decode("add 7").status().IsParseError());
  EXPECT_TRUE(JournalEvent::Decode("add 7 x").status().IsParseError());
  EXPECT_TRUE(JournalEvent::Decode("remove").status().IsParseError());
  EXPECT_TRUE(
      JournalEvent::Decode("pref 7 weight pr 1 2").status().IsParseError());
  EXPECT_TRUE(JournalEvent::Decode("pref 7 weight pr 1 2 9999999")
                  .status()
                  .IsParseError());
}

TEST(JournalEventTest, ValidateAndApplyMirrorTheMonitor) {
  privacy::PrivacyConfig config = MakeConfig();

  JournalEvent add;
  add.kind = JournalEvent::Kind::kAddProvider;
  add.provider = 1;
  add.threshold = 5;
  // Provider 1 already exists in the DSL config.
  EXPECT_TRUE(add.Apply(config).IsAlreadyExists());

  add.provider = 9;
  ASSERT_OK(add.Apply(config));
  EXPECT_TRUE(config.preferences.Contains(9));
  EXPECT_DOUBLE_EQ(config.ThresholdFor(9), 5.0);

  JournalEvent pref;
  pref.kind = JournalEvent::Kind::kSetPreference;
  pref.provider = 9;
  pref.attribute = "weight";
  pref.purpose = "pr";
  pref.visibility = 3;
  pref.granularity = 3;
  pref.retention = 3;
  ASSERT_OK(pref.Apply(config));
  pref.purpose = "nosuch";
  EXPECT_TRUE(pref.Apply(config).IsNotFound());
  pref.purpose = "pr";
  pref.visibility = 99;  // beyond the 4-level scale
  EXPECT_FALSE(pref.Apply(config).ok());

  JournalEvent unpref;
  unpref.kind = JournalEvent::Kind::kRemovePreference;
  unpref.provider = 9;
  unpref.attribute = "weight";
  unpref.purpose = "pr";
  ASSERT_OK(unpref.Apply(config));
  EXPECT_TRUE(unpref.Apply(config).IsNotFound());  // already removed

  JournalEvent threshold;
  threshold.kind = JournalEvent::Kind::kSetThreshold;
  threshold.provider = 77;
  threshold.threshold = 1;
  EXPECT_TRUE(threshold.Apply(config).IsNotFound());
  threshold.provider = 9;
  threshold.threshold = -1;
  EXPECT_TRUE(threshold.Apply(config).IsInvalidArgument());
  threshold.threshold = 42;
  ASSERT_OK(threshold.Apply(config));
  EXPECT_DOUBLE_EQ(config.ThresholdFor(9), 42.0);

  JournalEvent remove;
  remove.kind = JournalEvent::Kind::kRemoveProvider;
  remove.provider = 9;
  ASSERT_OK(remove.Apply(config));
  EXPECT_FALSE(config.preferences.Contains(9));
  EXPECT_TRUE(remove.Apply(config).IsNotFound());
}

// --- Replay -----------------------------------------------------------------

TEST(JournalReplayTest, ReplaysOntoConfig) {
  privacy::PrivacyConfig config = MakeConfig();
  const std::string contents = Header("gen-0") + Frame("add 9 5") +
                               Frame("pref 9 weight pr 3 3 3") +
                               Frame("threshold 9 42");
  ASSERT_OK_AND_ASSIGN(JournalReplayResult replay,
                       ReplayJournal(contents, "gen-0", config));
  EXPECT_EQ(replay.replayed, 3);
  EXPECT_FALSE(replay.torn_tail);
  ASSERT_OK(replay.stopped);
  EXPECT_DOUBLE_EQ(config.ThresholdFor(9), 42.0);
}

TEST(JournalReplayTest, RefusesStaleBaseGeneration) {
  privacy::PrivacyConfig config = MakeConfig();
  const std::string contents = Header("gen-0") + Frame("add 9 5");
  EXPECT_TRUE(ReplayJournal(contents, "gen-1", config)
                  .status()
                  .IsFailedPrecondition());
  EXPECT_FALSE(config.preferences.Contains(9));  // nothing applied
}

TEST(JournalReplayTest, TornTailIsACleanStop) {
  privacy::PrivacyConfig config = MakeConfig();
  std::string contents = Header("gen-0") + Frame("add 9 5");
  contents += Frame("add 10 5").substr(0, 9);  // torn mid-frame
  ASSERT_OK_AND_ASSIGN(JournalReplayResult replay,
                       ReplayJournal(contents, "gen-0", config));
  EXPECT_EQ(replay.replayed, 1);
  EXPECT_TRUE(replay.torn_tail);
  ASSERT_OK(replay.stopped);
  EXPECT_TRUE(config.preferences.Contains(9));
  EXPECT_FALSE(config.preferences.Contains(10));
}

TEST(JournalReplayTest, BadRecordStopsWithoutApplyingTheRest) {
  privacy::PrivacyConfig config = MakeConfig();
  // Valid CRC frame whose event cannot apply (provider 1 already exists):
  // replay stops there, keeping earlier events, skipping later ones.
  const std::string contents = Header("gen-0") + Frame("add 9 5") +
                               Frame("add 1 5") + Frame("add 10 5");
  ASSERT_OK_AND_ASSIGN(JournalReplayResult replay,
                       ReplayJournal(contents, "gen-0", config));
  EXPECT_EQ(replay.replayed, 1);
  EXPECT_TRUE(replay.stopped.IsAlreadyExists()) << replay.stopped.ToString();
  EXPECT_TRUE(config.preferences.Contains(9));
  EXPECT_FALSE(config.preferences.Contains(10));
}

// --- The Journal object -----------------------------------------------------

class JournalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = stdfs::temp_directory_path() /
           ("ppdb_journal_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    stdfs::remove_all(dir_);
    ASSERT_OK(real_.CreateDirectories(dir_.string()));
  }
  void TearDown() override { stdfs::remove_all(dir_); }

  std::string SegmentPath(std::string_view base) {
    return (dir_ / Journal::SegmentNameFor(base)).string();
  }

  stdfs::path dir_;
  RealFileSystem real_;
};

TEST_F(JournalTest, AppendsAreDurableAndScannable) {
  ASSERT_OK_AND_ASSIGN(
      std::unique_ptr<Journal> journal,
      Journal::Open(dir_.string(), "gen-0", real_, Journal::Options{}));
  EXPECT_EQ(journal->segment_name(), "journal-gen-0");
  EXPECT_EQ(journal->records_in_segment(), 0);
  ASSERT_OK(journal->Append("add 7 0.5"));
  ASSERT_OK(journal->Append("remove 7"));
  EXPECT_EQ(journal->records_in_segment(), 2);

  ASSERT_OK_AND_ASSIGN(std::string contents,
                       real_.ReadFile(SegmentPath("gen-0")));
  ASSERT_OK_AND_ASSIGN(JournalScan scan, ScanJournalSegment(contents));
  EXPECT_EQ(scan.base_generation, "gen-0");
  ASSERT_EQ(scan.payloads.size(), 2u);
  EXPECT_EQ(scan.payloads[0], "add 7 0.5");
  EXPECT_EQ(journal->active_segment_bytes(), contents.size());
}

TEST_F(JournalTest, ReopenResumesAfterTheExistingTail) {
  {
    ASSERT_OK_AND_ASSIGN(
        std::unique_ptr<Journal> journal,
        Journal::Open(dir_.string(), "gen-0", real_, Journal::Options{}));
    ASSERT_OK(journal->Append("add 7 0.5"));
  }
  ASSERT_OK_AND_ASSIGN(
      std::unique_ptr<Journal> journal,
      Journal::Open(dir_.string(), "gen-0", real_, Journal::Options{}));
  EXPECT_EQ(journal->records_in_segment(), 1);
  ASSERT_OK(journal->Append("remove 7"));

  ASSERT_OK_AND_ASSIGN(std::string contents,
                       real_.ReadFile(SegmentPath("gen-0")));
  ASSERT_OK_AND_ASSIGN(JournalScan scan, ScanJournalSegment(contents));
  ASSERT_EQ(scan.payloads.size(), 2u);
  EXPECT_EQ(scan.payloads[1], "remove 7");
}

TEST_F(JournalTest, OpenAmputatesATornTail) {
  {
    ASSERT_OK_AND_ASSIGN(
        std::unique_ptr<Journal> journal,
        Journal::Open(dir_.string(), "gen-0", real_, Journal::Options{}));
    ASSERT_OK(journal->Append("add 7 0.5"));
  }
  // Simulate a crash mid-append: raw garbage after the last valid record.
  {
    ASSERT_OK_AND_ASSIGN(std::unique_ptr<AppendableFile> raw,
                         real_.OpenAppendable(SegmentPath("gen-0")));
    ASSERT_OK(raw->Append(std::string("\x42\x00\x00", 3)));
    ASSERT_OK(raw->Close());
  }
  ASSERT_OK_AND_ASSIGN(
      std::unique_ptr<Journal> journal,
      Journal::Open(dir_.string(), "gen-0", real_, Journal::Options{}));
  EXPECT_EQ(journal->records_in_segment(), 1);
  ASSERT_OK(journal->Append("remove 7"));

  ASSERT_OK_AND_ASSIGN(std::string contents,
                       real_.ReadFile(SegmentPath("gen-0")));
  ASSERT_OK_AND_ASSIGN(JournalScan scan, ScanJournalSegment(contents));
  EXPECT_FALSE(scan.torn_tail);
  ASSERT_EQ(scan.payloads.size(), 2u);
  EXPECT_EQ(scan.payloads[1], "remove 7");
}

TEST_F(JournalTest, MismatchedBaseStartsOver) {
  {
    ASSERT_OK_AND_ASSIGN(
        std::unique_ptr<Journal> journal,
        Journal::Open(dir_.string(), "gen-0", real_, Journal::Options{}));
    ASSERT_OK(journal->Append("add 7 0.5"));
  }
  // Hand-rename the segment so its header names a different base than its
  // filename claims: not resumable, must start over empty.
  ASSERT_OK(real_.Rename(SegmentPath("gen-0"), SegmentPath("gen-1")));
  ASSERT_OK_AND_ASSIGN(
      std::unique_ptr<Journal> journal,
      Journal::Open(dir_.string(), "gen-1", real_, Journal::Options{}));
  EXPECT_EQ(journal->records_in_segment(), 0);
}

TEST_F(JournalTest, RotationStartsAFreshSegmentAndClearsTheWedge) {
  FaultInjectingFileSystem faulty(&real_, Rng(3));
  faulty.SetPlan({.fail_at_op = -1});
  ASSERT_OK_AND_ASSIGN(
      std::unique_ptr<Journal> journal,
      Journal::Open(dir_.string(), "gen-0", faulty, Journal::Options{}));
  ASSERT_OK(journal->Append("add 7 0.5"));

  // Fault the next append (op 0 after SetPlan): the journal wedges and
  // every later append fails fast with the original error.
  faulty.SetPlan({.fail_at_op = 0,
                  .kind = FaultKind::kTornWrite,
                  .path_filter = "journal-"});
  EXPECT_FALSE(journal->Append("add 8 0.5").ok());
  EXPECT_TRUE(journal->wedged());
  EXPECT_FALSE(journal->Append("add 9 0.5").ok());

  // The wedge repair truncated the torn bytes: the segment on disk ends at
  // the last durable record.
  ASSERT_OK_AND_ASSIGN(std::string contents,
                       real_.ReadFile(SegmentPath("gen-0")));
  ASSERT_OK_AND_ASSIGN(JournalScan scan, ScanJournalSegment(contents));
  EXPECT_FALSE(scan.torn_tail);
  ASSERT_EQ(scan.payloads.size(), 1u);

  // A checkpoint's successor segment (disk healed) re-arms the journal on
  // a fresh segment: the mark is the whole durable segment, so nothing is
  // carried.
  faulty.SetPlan({.fail_at_op = -1});
  ASSERT_OK_AND_ASSIGN(
      Journal::PreparedSegment next,
      journal->PrepareSuccessor("gen-1", journal->active_segment_bytes()));
  EXPECT_TRUE(journal->wedged());
  journal->Activate(std::move(next));
  EXPECT_FALSE(journal->wedged());
  EXPECT_EQ(journal->segment_name(), "journal-gen-1");
  EXPECT_EQ(journal->records_in_segment(), 0);
  ASSERT_OK(journal->Append("add 8 0.5"));
  ASSERT_OK_AND_ASSIGN(contents, real_.ReadFile(SegmentPath("gen-1")));
  ASSERT_OK_AND_ASSIGN(scan, ScanJournalSegment(contents));
  EXPECT_EQ(scan.base_generation, "gen-1");
  ASSERT_EQ(scan.payloads.size(), 1u);
  EXPECT_EQ(scan.payloads[0], "add 8 0.5");
}

// A checkpoint snapshots the config at a mark; the frames appended after
// it are carried into the successor segment, and appends after the switch
// land there.
TEST_F(JournalTest, SuccessorCarriesTheFramesPastTheMark) {
  ASSERT_OK_AND_ASSIGN(
      std::unique_ptr<Journal> journal,
      Journal::Open(dir_.string(), "gen-0", real_, Journal::Options{}));
  ASSERT_OK(journal->Append("add 7 0.5"));
  const uint64_t mark = journal->active_segment_bytes();
  ASSERT_OK(journal->Append("add 8 0.5"));
  ASSERT_OK(journal->Append("threshold 8 2"));

  ASSERT_OK_AND_ASSIGN(Journal::PreparedSegment next,
                       journal->PrepareSuccessor("gen-1", mark));
  // Prepared but not active: the old segment still takes the appends.
  EXPECT_EQ(journal->segment_name(), "journal-gen-0");
  EXPECT_EQ(next.records, 2);
  ASSERT_OK_AND_ASSIGN(std::string contents,
                       real_.ReadFile(SegmentPath("gen-1")));
  EXPECT_EQ(contents.size(), next.bytes);

  journal->Activate(std::move(next));
  EXPECT_EQ(journal->segment_name(), "journal-gen-1");
  EXPECT_EQ(journal->records_in_segment(), 2);
  ASSERT_OK(journal->Append("remove 7"));
  ASSERT_OK_AND_ASSIGN(contents, real_.ReadFile(SegmentPath("gen-1")));
  EXPECT_EQ(contents.size(), journal->active_segment_bytes());
  ASSERT_OK_AND_ASSIGN(JournalScan scan, ScanJournalSegment(contents));
  EXPECT_EQ(scan.base_generation, "gen-1");
  EXPECT_FALSE(scan.torn_tail);
  EXPECT_EQ(scan.payloads,
            (std::vector<std::string>{"add 8 0.5", "threshold 8 2",
                                      "remove 7"}));
  // The old segment is left for the checkpoint's prune, untouched.
  ASSERT_OK_AND_ASSIGN(contents, real_.ReadFile(SegmentPath("gen-0")));
  ASSERT_OK_AND_ASSIGN(scan, ScanJournalSegment(contents));
  EXPECT_EQ(scan.payloads.size(), 3u);

  EXPECT_TRUE(journal->PrepareSuccessor("gen-2", 1 << 20)
                  .status()
                  .IsFailedPrecondition());
}

// A commit that fails after the successor was prepared discards it; the
// journal keeps appending to the old segment, which stays whole.
TEST_F(JournalTest, DiscardedSuccessorLeavesTheActiveSegment) {
  FaultInjectingFileSystem faulty(&real_, Rng(5));
  ASSERT_OK_AND_ASSIGN(
      std::unique_ptr<Journal> journal,
      Journal::Open(dir_.string(), "gen-0", faulty, Journal::Options{}));
  ASSERT_OK(journal->Append("add 7 0.5"));
  const uint64_t mark = journal->active_segment_bytes();
  ASSERT_OK(journal->Append("add 8 0.5"));

  // The successor's fsync fails: nothing is left of it.
  faulty.SetPlan({.fail_at_op = 2,
                  .kind = FaultKind::kFailOp,
                  .path_filter = "journal-gen-1"});
  EXPECT_FALSE(journal->PrepareSuccessor("gen-1", mark).ok());
  EXPECT_FALSE(real_.Exists(SegmentPath("gen-1")));

  faulty.SetPlan({.fail_at_op = -1});
  ASSERT_OK_AND_ASSIGN(Journal::PreparedSegment next,
                       journal->PrepareSuccessor("gen-1", mark));
  journal->Discard(std::move(next));
  EXPECT_FALSE(real_.Exists(SegmentPath("gen-1")));
  EXPECT_FALSE(journal->wedged());
  ASSERT_OK(journal->Append("add 9 0.5"));
  EXPECT_EQ(journal->segment_name(), "journal-gen-0");
  ASSERT_OK_AND_ASSIGN(std::string contents,
                       real_.ReadFile(SegmentPath("gen-0")));
  ASSERT_OK_AND_ASSIGN(JournalScan scan, ScanJournalSegment(contents));
  EXPECT_EQ(scan.payloads.size(), 3u);
  EXPECT_FALSE(scan.torn_tail);
}

// A checkpoint's staging writes overlap journal appends on other threads,
// so the fault injector's counter, Rng, plan and crash latch are shared.
// Two threads issue mutating ops under a path_filter plan; the op count and
// the injected faults must come out exact.
TEST_F(JournalTest, FaultPlanIsExactUnderConcurrentOps) {
  deadlock::ScopedDetectionForTest detection(deadlock::Mode::kReport);
  const int64_t reports_before = deadlock::ViolationCount();
  FaultInjectingFileSystem faulty(&real_, Rng(9));
  constexpr int kOpsPerThread = 100;
  constexpr int kFaults = 20;
  faulty.SetPlan({.fail_at_op = 50,
                  .kind = FaultKind::kFailOp,
                  .transient_failures = kFaults,
                  .path_filter = "journal-"});
  std::atomic<int> failed{0};
  std::atomic<int> failed_outside_filter{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kOpsPerThread; ++i) {
        const std::string suffix =
            std::to_string(t) + "-" + std::to_string(i % 4);
        // Counted: inside the filter.
        if (!faulty.WriteFile((dir_ / ("journal-" + suffix)).string(), "x")
                 .ok()) {
          failed.fetch_add(1);
        }
        // Uncounted pass-through: outside the filter.
        if (!faulty.WriteFile((dir_ / ("other-" + suffix)).string(), "y")
                 .ok()) {
          failed_outside_filter.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(faulty.ops_seen(), 2 * kOpsPerThread);
  EXPECT_EQ(faulty.faults_injected(), kFaults);
  EXPECT_EQ(failed.load(), kFaults);
  EXPECT_EQ(failed_outside_filter.load(), 0);
  EXPECT_FALSE(faulty.crashed());
  EXPECT_EQ(deadlock::ViolationCount(), reports_before);
}

TEST_F(JournalTest, ConcurrentAppendersAllLandExactlyOnce) {
  Journal::Options options;
  options.batch_window = std::chrono::microseconds(200);
  ASSERT_OK_AND_ASSIGN(
      std::unique_ptr<Journal> journal,
      Journal::Open(dir_.string(), "gen-0", real_, options));

  constexpr int kThreads = 4;
  constexpr int kPerThread = 25;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&journal, t] {
      for (int i = 0; i < kPerThread; ++i) {
        Status appended = journal->Append(
            "add " + std::to_string(t * 1000 + i) + " 1");
        PPDB_CHECK_OK(appended);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(journal->records_in_segment(), kThreads * kPerThread);

  ASSERT_OK_AND_ASSIGN(std::string contents,
                       real_.ReadFile(SegmentPath("gen-0")));
  ASSERT_OK_AND_ASSIGN(JournalScan scan, ScanJournalSegment(contents));
  EXPECT_FALSE(scan.torn_tail);
  ASSERT_EQ(scan.payloads.size(),
            static_cast<size_t>(kThreads * kPerThread));
  // Every append appears exactly once, and each thread's records appear in
  // its own program order.
  std::vector<int> next(kThreads, 0);
  for (const std::string& payload : scan.payloads) {
    ASSERT_OK_AND_ASSIGN(JournalEvent event, JournalEvent::Decode(payload));
    const int thread = static_cast<int>(event.provider / 1000);
    const int index = static_cast<int>(event.provider % 1000);
    ASSERT_LT(thread, kThreads);
    EXPECT_EQ(index, next[thread]) << "thread " << thread;
    ++next[thread];
  }
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(next[t], kPerThread);
}

}  // namespace
}  // namespace ppdb::storage
