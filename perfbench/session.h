#ifndef PERFBENCH_SESSION_H_
#define PERFBENCH_SESSION_H_

#include <array>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "server/request.h"
#include "stats.h"
#include "timing_fs.h"
#include "timing_transport.h"
#include "traffic.h"

namespace perfbench {

/// One served session: a fresh copy of the fixture directory, a server
/// wired like `ppdb_cli serve --listen`, one seeded open-loop traffic run,
/// and the correctness gate (driftcheck, graceful shutdown, restart).
struct SessionOptions {
  Workload workload = Workload::kServeReads;
  uint64_t seed = 1;
  double seconds = 10.0;
  /// Records spans and per-layer timings (transport decorator installed,
  /// filesystem decorator timed).
  bool traced = false;
  /// Rebuilds the data dir from durable bytes only and reloads it.
  bool power_loss = false;
  /// After the window, runs one `search 1` and one `whatif v 2` alone to
  /// count the scans each costs.
  bool calibrate_scans = false;
  /// Times `DatabaseService::Create` -> accepting this many times.
  int setup_trials = 1;
  std::string fixture_dir;
  std::string work_dir;
  /// Where the traced session writes its spans (empty: not written).
  std::string spans_path;
  Schema schema;
};

struct SessionResult {
  /// Correctness gate: false with `errors` filled when any response did
  /// not parse or did not match its request, driftcheck was not clean, or
  /// the restarted server disagreed with the final acknowledged state.
  bool correct = true;
  std::vector<std::string> errors;

  /// Requests due inside the measured window, and how many of them came
  /// back as errors (shed or failed) or never came back.
  int64_t attempted = 0;
  int64_t failed = 0;
  int64_t completed = 0;
  /// Live (non-analyst) requests due in the window, and how many of them
  /// were answered `ok` within 10 ms of being due.
  int64_t live_attempted = 0;
  int64_t live_within_limit = 0;

  /// Per set-up trial: process CPU seconds and wall seconds.
  std::vector<double> setup_cpu_s;
  std::vector<double> setup_wall_s;
  /// Latencies (µs, from when each request was due) of requests due in
  /// the window, by class and by kind.
  std::vector<double> read_us;
  std::vector<double> event_us;
  std::vector<double> live_us;
  std::array<std::vector<double>, kNumOps> op_us;
  /// How late the generator sent each window request (µs).
  std::vector<double> lateness_us;

  double cpu_us_per_op = 0.0;
  /// Once the window's requests have all been answered (nothing in
  /// flight): resident memory after `malloc_trim`, and heap in use minus
  /// the client's own bookkeeping.
  double rss_mb = 0.0;
  double heap_mb = 0.0;

  /// Layer counters at the window's start and end.
  RegistrySnapshot registry_begin;
  RegistrySnapshot registry_end;
  TimingFileSystem::Counters fs_begin;
  TimingFileSystem::Counters fs_end;
  TimingTransport::Counters net_begin;
  TimingTransport::Counters net_end;

  /// Window requests whose due -> done interval overlaps a checkpoint.
  int64_t stalled_requests = 0;
  double scans_per_search = 0.0;
  double scans_per_whatif = 0.0;
  /// 1 when the power-loss image reloads to the final acked state.
  double durable_after_power_loss = 0.0;

  /// The window's own request lines and responses, for timing the
  /// parser and renderer directly.
  std::vector<std::string> sample_lines;
  std::vector<std::pair<int64_t, ppdb::server::Response>> sample_responses;
};

SessionResult RunSession(const SessionOptions& options);

/// The server configuration every session uses, as `key=value` pairs for
/// the provenance record.
std::string ServerConfigSummary();

}  // namespace perfbench

#endif  // PERFBENCH_SESSION_H_
