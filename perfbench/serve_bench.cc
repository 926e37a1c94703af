// serve_bench: the serve-path benchmark program. Builds a seeded
// 20,000-provider fixture, serves it through TcpServer -> RequestBroker ->
// DatabaseService over loopback sockets, drives one open-loop workload and
// prints one JSON result line (last line of stdout).
//
//   serve_bench --workload serve_reads --seed 1 --seconds 20 --trace 0
//               --work-dir .bench_work/serve_reads
//
// --trace 0 reports the end-to-end metrics; --trace 1 runs the workload
// twice (untraced, then traced) and reports the per-layer metrics, the
// per-kind client figures of the untraced run, and the tracing overhead.
// --stream-digest N prints the digest of the first N scheduled requests
// and exits (the seeded-traffic tests use it). See README.md.

#include <sys/statfs.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "privacy/ordered_scale.h"
#include "server/serve_core.h"
#include "session.h"
#include "sim/population.h"
#include "spans.h"
#include "stats.h"
#include "storage/database_io.h"
#include "traffic.h"

namespace perfbench {
namespace {

using ppdb::Result;
using ppdb::Status;

constexpr int64_t kProviders = 20000;
/// |HP| = attributes x purposes = 8 policy tuples; each scan evaluates
/// kProviders x kHousePolicyTuples cells.
constexpr int kHousePolicyTuples = 8;
/// Set-up is timed this many times per session; the median is kept.
constexpr int kSetupTrials = 7;
/// A run whose generator sent its p99 request later than this after it
/// was due did not offer the load it claims; it is reported invalid.
constexpr double kLatenessBoundUs = 50000.0;

const std::vector<ppdb::sim::AttributeSpec>& FixtureAttributes() {
  static const std::vector<ppdb::sim::AttributeSpec> attributes = {
      {"age", 2.0, 45.0, 15.0},
      {"income", 4.0, 50.0, 20.0},
      {"zip", 3.0, 50.0, 10.0},
      {"diagnosis", 5.0, 0.0, 1.0}};
  return attributes;
}

const std::vector<std::string>& FixturePurposes() {
  static const std::vector<std::string> purposes = {"service", "marketing"};
  return purposes;
}

Schema FixtureSchema() {
  Schema schema;
  schema.num_providers = kProviders;
  for (const auto& a : FixtureAttributes()) schema.attributes.push_back(a.name);
  schema.purposes = FixturePurposes();
  const ppdb::privacy::ScaleSet scales;
  schema.max_visibility = scales.visibility.max_level();
  schema.max_granularity = scales.granularity.max_level();
  schema.max_retention = scales.retention.max_level();
  return schema;
}

/// The population, drawn from the run's seed, saved as a database dir.
Status BuildFixture(uint64_t seed, const std::string& dir) {
  ppdb::sim::PopulationConfig config;
  config.num_providers = kProviders;
  config.attributes = FixtureAttributes();
  config.purposes = FixturePurposes();
  config.seed = seed;
  Result<ppdb::sim::Population> population =
      ppdb::sim::PopulationGenerator(config).Generate();
  if (!population.ok()) return population.status();
  ppdb::sim::Population& pop = population.value();
  Result<ppdb::privacy::HousePolicy> policy = ppdb::sim::MakeUniformPolicy(
      config.attributes, config.purposes, 0.5, 0.5, 0.5, &pop.config);
  if (!policy.ok()) return policy.status();
  pop.config.policy = std::move(policy).value();
  ppdb::storage::Database database;
  database.config = std::move(pop.config);
  if (Result<ppdb::rel::Table*> added =
          database.catalog.AddTable(std::move(pop.data));
      !added.ok()) {
    return added.status();
  }
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  return ppdb::storage::SaveDatabase(dir, database);
}

double Us(double seconds) { return seconds * 1e6; }

/// ns per call of `op` over `items`, median of 5 passes of >= 20 ms each.
template <typename Items, typename Op>
double NsPerCall(const Items& items, Op op) {
  if (items.empty()) return 0.0;
  std::vector<double> passes;
  for (int pass = 0; pass < 5; ++pass) {
    int64_t calls = 0;
    const int64_t start = NowNs();
    int64_t elapsed = 0;
    do {
      for (const auto& item : items) op(item);
      calls += static_cast<int64_t>(items.size());
      elapsed = NowNs() - start;
    } while (elapsed < 20'000'000);
    passes.push_back(static_cast<double>(elapsed) /
                     static_cast<double>(calls));
  }
  return Median(passes);
}

std::string ReadCpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      return line.substr(line.find(':') + 2);
    }
  }
  return "unknown";
}

std::string FilesystemType(const std::string& path) {
  struct statfs info {};
  if (::statfs(path.c_str(), &info) != 0) return "unknown";
  switch (static_cast<unsigned long>(info.f_type)) {
    case 0xEF53: return "ext4";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x01021994: return "tmpfs";
    case 0x794C7630: return "overlayfs";
    default: {
      char hex[32];
      std::snprintf(hex, sizeof(hex), "0x%lx",
                    static_cast<unsigned long>(info.f_type));
      return hex;
    }
  }
}

std::string KernelDispatch() {
  const RegistrySnapshot registry = RegistrySnapshot::Take();
  for (const char* target : {"scalar", "avx2", "neon"}) {
    if (registry.Get(std::string("ppdb_violation_kernel_dispatch{target=\"") +
                     target + "\"}") == 1.0) {
      return target;
    }
  }
  return "unknown";
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += (static_cast<unsigned char>(c) < 0x20) ? ' ' : c;
  }
  return out;
}

/// d(counter) over a session's window.
double D(const SessionResult& r, std::string_view series) {
  return Delta(r.registry_begin, r.registry_end, series);
}

double Mean(const SessionResult& r, std::string_view histogram) {
  return WindowMean(r.registry_begin, r.registry_end, histogram);
}

void AddEndToEnd(const SessionResult& r, MetricTable* m) {
  m->Add("setup_s", Median(r.setup_cpu_s), "s");
  m->Add("live_within_10ms",
         Ratio(static_cast<double>(r.live_within_limit),
               static_cast<double>(r.live_attempted)),
         "ratio");
  m->Add("heap_mb", r.heap_mb, "MB");
}

/// Bytes the session wrote to storage (journal appends + checkpoint
/// files) over its window.
double StorageBytes(const SessionResult& r) {
  return static_cast<double>(
      (r.fs_end.append_bytes - r.fs_begin.append_bytes) +
      (r.fs_end.write_file_bytes - r.fs_begin.write_file_bytes));
}

void AddPerLayer(const SessionResult& base, const SessionResult& t,
                 MetricTable* m) {
  const double requests = static_cast<double>(t.attempted);
  const TimingTransport::Counters& n0 = t.net_begin;
  const TimingTransport::Counters& n1 = t.net_end;
  m->Add("net.read_calls_per_req",
         Ratio(static_cast<double>(n1.read_calls - n0.read_calls), requests),
         "count");
  m->Add("net.write_calls_per_req",
         Ratio(static_cast<double>(n1.write_calls - n0.write_calls), requests),
         "count");
  m->Add("net.bytes_in_per_req",
         Ratio(static_cast<double>(n1.bytes_in - n0.bytes_in), requests),
         "B");
  m->Add("net.bytes_out_per_req",
         Ratio(static_cast<double>(n1.bytes_out - n0.bytes_out), requests),
         "B");
  m->Add("net.io_us_per_req",
         Ratio(static_cast<double>(n1.io_ns - n0.io_ns) / 1e3, requests), "us");

  m->Add("request.parse_ns",
         NsPerCall(t.sample_lines,
                   [](const std::string& line) {
                     Result<ppdb::server::Request> r =
                         ppdb::server::ParseRequest(line);
                     if (!r.ok()) std::abort();
                   }),
         "ns");
  m->Add("request.render_ns",
         NsPerCall(t.sample_responses,
                   [](const std::pair<int64_t, ppdb::server::Response>& r) {
                     std::string line =
                         ppdb::server::RenderResponse(r.first, r.second);
                     if (line.empty()) std::abort();
                   }),
         "ns");

  m->Add("broker.queue_wait_us", Us(Mean(t, "ppdb_broker_queue_wait_seconds")),
         "us");
  m->Add("broker.exec_us", Us(Mean(t, "ppdb_broker_service_seconds")), "us");
  m->Add("broker.shed_ratio",
         Ratio(D(t, "ppdb_broker_shed_total"),
               D(t, "ppdb_broker_submitted_total")),
         "ratio");

  const TimingFileSystem::Counters& f0 = t.fs_begin;
  const TimingFileSystem::Counters& f1 = t.fs_end;
  const double writes = D(t, "ppdb_service_write_seconds_count");
  const double journal_s =
      static_cast<double>((f1.append_ns - f0.append_ns) +
                          (f1.sync_ns - f0.sync_ns)) /
      1e9;
  m->Add("service.read_us", Us(Mean(t, "ppdb_service_read_seconds")), "us");
  m->Add("service.write_us", Us(Mean(t, "ppdb_service_write_seconds")), "us");
  m->Add("service.write_unattributed_us",
         Us(Ratio(D(t, "ppdb_service_write_seconds_sum") - journal_s -
                      D(t, "ppdb_view_delta_seconds_sum") -
                      D(t, "ppdb_storage_save_seconds_sum"),
                  writes)),
         "us");

  const double events = D(t, "ppdb_journal_appended_records_total");
  m->Add("journal.appends_per_fsync", Mean(t, "ppdb_journal_batch_records"),
         "count");
  m->Add("journal.fsync_us", Us(Mean(t, "ppdb_journal_fsync_seconds")), "us");
  m->Add("journal.bytes_per_event",
         Ratio(static_cast<double>(f1.append_bytes - f0.append_bytes), events),
         "B");

  const double checkpoints =
      t.registry_end.SumFamily("ppdb_storage_save_total", "result=\"ok\"") -
      t.registry_begin.SumFamily("ppdb_storage_save_total", "result=\"ok\"");
  m->Add("checkpoint.count", checkpoints, "count");
  m->Add("checkpoint.s", Mean(t, "ppdb_storage_save_seconds"), "s");
  m->Add("checkpoint.mb",
         Ratio(static_cast<double>(f1.write_file_bytes - f0.write_file_bytes) /
                   1e6,
               checkpoints),
         "MB");
  m->Add("checkpoint.stalled_requests",
         static_cast<double>(t.stalled_requests), "count");

  m->Add("storage.fsyncs_per_event",
         Ratio(static_cast<double>(f1.syncs - f0.syncs), events), "count");
  m->Add("storage.bytes_written_per_event", Ratio(StorageBytes(t), events),
         "B");

  const double delta_events =
      D(t, "ppdb_view_delta_events_total{path=\"delta\"}");
  const double rebuild_events =
      D(t, "ppdb_view_delta_events_total{path=\"rebuild\"}");
  m->Add("view.delta_us", Us(Mean(t, "ppdb_view_delta_seconds")), "us");
  m->Add("view.cells_per_event", Mean(t, "ppdb_view_delta_cells"), "count");
  m->Add("view.rebuild_ratio",
         Ratio(rebuild_events, delta_events + rebuild_events), "ratio");

  const double scans = D(t, "ppdb_violation_analyze_seconds_count");
  m->Add("detector.scan_ms", Mean(t, "ppdb_violation_analyze_seconds") * 1e3,
         "ms");
  m->Add("detector.scans_per_search", t.scans_per_search, "count");
  m->Add("detector.scans_per_whatif", t.scans_per_whatif, "count");
  m->Add("detector.mcells_per_s",
         Ratio(scans * kProviders * kHousePolicyTuples / 1e6,
               D(t, "ppdb_violation_analyze_seconds_sum")),
         "Mcells/s");

  // Per-kind client figures and durability, from the untraced run.
  auto p = [&base](Op op, double q) {
    std::vector<double> v = base.op_us[static_cast<int>(op)];
    return Quantile(v, q);
  };
  std::vector<double> read_us = base.read_us, live_us = base.live_us,
                      events_us = base.event_us, lateness = base.lateness_us;
  m->Add("read_p50_us", Quantile(read_us, 0.50), "us");
  m->Add("live_p50_us", Quantile(live_us, 0.50), "us");
  m->Add("read_p99_us", Quantile(read_us, 0.99), "us");
  m->Add("live_p99_us", Quantile(live_us, 0.99), "us");
  m->Add("event_p50_us", Quantile(events_us, 0.50), "us");
  m->Add("event_p99_us", Quantile(events_us, 0.99), "us");
  m->Add("analyze_p50_ms", p(Op::kAnalyze, 0.5) / 1e3, "ms");
  m->Add("certify_p50_ms", p(Op::kCertify, 0.5) / 1e3, "ms");
  m->Add("whatif_p50_ms", p(Op::kWhatIf, 0.5) / 1e3, "ms");
  m->Add("search_p50_ms", p(Op::kSearch, 0.5) / 1e3, "ms");
  m->Add("failed_ratio",
         Ratio(static_cast<double>(base.failed),
               static_cast<double>(base.attempted)),
         "ratio");
  m->Add("write_amp",
         Ratio(StorageBytes(base),
               static_cast<double>(base.fs_end.journal_payload_bytes -
                                   base.fs_begin.journal_payload_bytes)),
         "ratio");
  m->Add("durable_after_power_loss", base.durable_after_power_loss, "bool");
  m->Add("cpu_us_per_op", base.cpu_us_per_op, "us");
  m->Add("rss_mb", base.rss_mb, "MB");
  m->Add("setup_wall_s", Median(base.setup_wall_s), "s");
  m->Add("generator.lateness_p99_us", Quantile(lateness, 0.99), "us");

  // Tracing overhead: the traced run against the untraced one.
  std::vector<double> base_live = base.live_us, traced_live = t.live_us;
  const double base_p50 = Quantile(base_live, 0.5);
  m->Add("trace.overhead_live_p50_pct",
         Ratio(Quantile(traced_live, 0.5) - base_p50, base_p50) * 100.0, "%");
  m->Add("trace.overhead_cpu_pct",
         Ratio(t.cpu_us_per_op - base.cpu_us_per_op, base.cpu_us_per_op) *
             100.0,
         "%");
}

struct Flags {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::string work_dir = ".bench_work";
  int64_t stream_digest = 0;
};

bool ParseFlags(int argc, char** argv, Flags* flags) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      flags->workload = value;
    } else if (flag == "--seed") {
      flags->seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      flags->seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      flags->trace = std::atoi(value);
    } else if (flag == "--work-dir") {
      flags->work_dir = value;
    } else if (flag == "--stream-digest") {
      flags->stream_digest = std::strtoll(value, nullptr, 10);
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !flags->workload.empty() && flags->seconds > 0 &&
         (flags->trace == 0 || flags->trace == 1);
}

int Main(int argc, char** argv) {
  Flags flags;
  if (!ParseFlags(argc, argv, &flags)) {
    std::fprintf(stderr,
                 "usage: serve_bench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--work-dir <dir>] "
                 "[--stream-digest <count>]\n");
    return 2;
  }
  Result<Workload> workload = ParseWorkload(flags.workload);
  if (!workload.ok()) {
    std::fprintf(stderr, "%s\n", workload.status().ToString().c_str());
    return 2;
  }
  if (flags.stream_digest > 0) {
    std::printf("%016llx\n",
                static_cast<unsigned long long>(StreamDigest(
                    workload.value(), flags.seed, FixtureSchema(),
                    flags.stream_digest)));
    return 0;
  }
  const std::string build_type = PERFBENCH_BUILD_TYPE;
  if (build_type != "Release") {
    std::fprintf(stderr,
                 "refusing to record a %s build; configure with "
                 "-DCMAKE_BUILD_TYPE=Release\n",
                 build_type.c_str());
    return 3;
  }

  const std::string work =
      std::filesystem::absolute(flags.work_dir).lexically_normal().string();
  std::error_code ec;
  std::filesystem::create_directories(work, ec);
  const std::string fixture = work + "/fixture";
  if (Status built = BuildFixture(flags.seed, fixture); !built.ok()) {
    std::fprintf(stderr, "fixture: %s\n", built.ToString().c_str());
    return 1;
  }

  SessionOptions options;
  options.workload = workload.value();
  options.seed = flags.seed;
  options.seconds = flags.seconds;
  options.fixture_dir = fixture;
  options.work_dir = work + "/session";
  options.schema = FixtureSchema();
  options.setup_trials = kSetupTrials;

  MetricTable metrics;
  std::vector<SessionResult> sessions;
  if (flags.trace == 0) {
    sessions.push_back(RunSession(options));
    AddEndToEnd(sessions[0], &metrics);
  } else {
    options.power_loss = true;
    sessions.push_back(RunSession(options));
    options.power_loss = false;
    options.setup_trials = 1;
    options.traced = true;
    options.calibrate_scans = workload.value() == Workload::kCensusMix;
    options.spans_path = work + "/spans.tsv";
    sessions.push_back(RunSession(options));
    AddPerLayer(sessions[0], sessions[1], &metrics);
  }
  std::filesystem::remove_all(fixture, ec);

  bool correct = true;
  int64_t attempted = 0, failed = 0;
  for (const SessionResult& s : sessions) {
    correct = correct && s.correct;
    attempted += s.attempted;
    failed += s.failed;
    for (const std::string& error : s.errors) {
      std::fprintf(stderr, "correctness: %s\n", error.c_str());
    }
  }
  // The untraced run's generator lateness decides validity.
  std::vector<double> lateness = sessions[0].lateness_us;
  const double lateness_p99 = Quantile(lateness, 0.99);
  if (lateness_p99 > kLatenessBoundUs) {
    std::fprintf(stderr,
                 "invalid run: generator lateness p99 %.0f us exceeds the "
                 "%.0f us bound\n",
                 lateness_p99, kLatenessBoundUs);
    correct = false;
  }

  const std::string provenance =
      "{\"provenance\": {\"workload\": \"" + flags.workload +
      "\", \"seed\": " + std::to_string(flags.seed) +
      ", \"seconds\": " + std::to_string(flags.seconds) +
      ", \"trace\": " + std::to_string(flags.trace) +
      ", \"build_type\": \"" + build_type + "\", \"nproc\": " +
      std::to_string(::sysconf(_SC_NPROCESSORS_ONLN)) +
      ", \"cpu_model\": \"" + JsonEscape(ReadCpuModel()) +
      "\", \"data_dir_fs\": \"" + FilesystemType(work) +
      "\", \"kernel_dispatch\": \"" + KernelDispatch() +
      "\", \"server_config\": \"" + ServerConfigSummary() +
      "\", \"providers\": " + std::to_string(kProviders) +
      ", \"lateness_p99_us\": " + std::to_string(lateness_p99) +
      ", \"lateness_bound_us\": " + std::to_string(kLatenessBoundUs) + "}}";
  std::ofstream(work + "/provenance.json") << provenance << "\n";
  std::printf("%s\n", provenance.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false", static_cast<long long>(attempted),
              static_cast<long long>(failed), metrics.ToJson().c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
