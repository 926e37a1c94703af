#ifndef PERFBENCH_TRAFFIC_H_
#define PERFBENCH_TRAFFIC_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/rng.h"

namespace perfbench {

/// The three serve-path traffic mixes (see README.md for why each exists).
enum class Workload { kServeReads, kServeEvents, kCensusMix };

ppdb::Result<Workload> ParseWorkload(std::string_view name);
std::string_view WorkloadName(Workload workload);

/// One request kind the generator can send.
enum class Op : uint8_t {
  kQueryPw,
  kQueryPdefault,
  kQueryProvider,
  kExpansionCheck,
  kEventPref,
  kEventThreshold,
  kAnalyze,
  kCertify,
  kWhatIf,
  kSearch,
};
inline constexpr int kNumOps = 10;

std::string_view OpName(Op op);
/// O(1) reads answered from the view under the shared lock.
bool IsRead(Op op);
/// Journalled consent events (writer lock, append + fsync).
bool IsEvent(Op op);
/// The analyst's census requests (full scans, what-if, policy search).
bool IsHeavy(Op op);

/// What the generator must know about the served population to emit only
/// requests that succeed.
struct Schema {
  int64_t num_providers = 0;
  std::vector<std::string> attributes;
  std::vector<std::string> purposes;
  int max_visibility = 0;
  int max_granularity = 0;
  int max_retention = 0;
};

/// Traffic every workload sends before its measured window opens.
inline constexpr double kWarmupSeconds = 2.0;

/// Load shape of a workload: an open loop of live requests at a fixed
/// rate, spread round-robin over `live_connections`, plus (census_mix
/// only) one analyst connection sending one heavy request per second.
struct WorkloadShape {
  double live_rate = 0.0;  // requests per second
  int live_connections = 0;
  bool analyst = false;
};

WorkloadShape ShapeOf(Workload workload);

/// One scheduled request: when it is due (ns after traffic start), which
/// client connection carries it (the analyst, when present, is 0), and
/// the exact protocol line (without the trailing newline).
struct ScheduledRequest {
  int64_t due_ns = 0;
  int conn = 0;
  Op op = Op::kQueryPw;
  std::string line;
};

/// The seeded request stream of one workload. Every request — due time,
/// connection, kind and arguments — is a pure function of (workload,
/// seed, schema, position), so a seed replays byte-for-byte whatever the
/// server does.
class TrafficStream {
 public:
  TrafficStream(Workload workload, uint64_t seed, Schema schema);

  /// The next request in due order.
  ScheduledRequest Next();

  int num_connections() const;

 private:
  ScheduledRequest NextLive();
  ScheduledRequest NextHeavy();
  std::string ProviderArg();

  Workload workload_;
  WorkloadShape shape_;
  Schema schema_;
  ppdb::Rng rng_;
  int64_t live_index_ = 0;
  int64_t heavy_index_ = 0;
};

/// FNV-1a digest of the first `count` requests of a stream (due time,
/// connection and line), for pinning seeded determinism in tests.
uint64_t StreamDigest(Workload workload, uint64_t seed, const Schema& schema,
                      int64_t count);

}  // namespace perfbench

#endif  // PERFBENCH_TRAFFIC_H_
