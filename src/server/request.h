#ifndef PPDB_SERVER_REQUEST_H_
#define PPDB_SERVER_REQUEST_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>

#include "common/result.h"

namespace ppdb::server {

/// Hard cap on one request line. Longer lines are rejected before parsing
/// so a client (or fuzzer) streaming an unbounded line cannot balloon
/// memory or stall the parser.
inline constexpr size_t kMaxRequestLine = 64 * 1024;

/// What a request asks the engine to do. The split matters to the broker:
/// cheap O(|HP|)-or-less kinds ride the priority lane so a stream of
/// live-monitor events is never starved behind O(N·|HP|) census scans.
enum class RequestKind {
  kPing,
  kStats,
  kMetrics,
  kTrace,
  kAnalyze,
  kCertify,
  kEstimate,
  kWhatIf,
  kSearch,
  kEventAdd,
  kEventRemove,
  kEventSetPref,
  kEventRemovePref,
  kEventSetThreshold,
  kQuery,
  kExpansionCheck,
  kDriftCheck,
  kSave,
  kDrain,
};

/// Canonical lower-case name of `kind`, e.g. "event_add".
std::string_view RequestKindName(RequestKind kind);

/// One parsed request. Fields are sparse — each kind reads only its own.
///
/// Line grammar (whitespace-separated tokens, one request per line):
///
///   [@<deadline_ms>] <command> [args...]
///
///   ping
///   stats
///   stats prometheus      (alias: metrics)
///   trace
///   analyze
///   certify <alpha>
///   estimate pw|pdefault <trials> <seed>
///   whatif <dimension> <steps> [extra_utility_per_step]
///   search [max_steps] [value_scale]
///   event add <provider> <threshold>
///   event remove <provider>
///   event pref <provider> <attr> <purpose> <vis> <gran> <ret>
///   event unpref <provider> <attr> <purpose>
///   event threshold <provider> <value>
///   query pw|pdefault|monitor
///   query provider <id>
///   expansion-check <utility_per_provider> <extra_utility>
///   driftcheck
///   save
///   drain
///
/// `@<ms>` sets a per-request deadline budget measured from admission —
/// queueing time counts against it, which is what makes deadlines an
/// overload release valve rather than just a timer on the compute.
struct Request {
  RequestKind kind = RequestKind::kPing;
  /// Per-request deadline budget; zero means "broker default".
  std::chrono::milliseconds deadline{0};

  double alpha = 0.0;                   // certify
  std::string target;                   // estimate / query selector
  int64_t trials = 0;                   // estimate
  uint64_t seed = 0;                    // estimate
  std::string dimension;                // whatif
  int steps = 0;                        // whatif
  double extra_utility_per_step = 0.0;  // whatif
  int max_steps = 16;                   // search
  double value_scale = 1.0;             // search
  int64_t provider = 0;                 // event */ query provider
  double threshold = 0.0;               // event add / event threshold
  std::string attribute;                // event pref / unpref
  std::string purpose;                  // event pref / unpref
  int visibility = 0;                   // event pref
  int granularity = 0;                  // event pref
  int retention = 0;                    // event pref
  double utility_per_provider = 0.0;    // expansion-check (§9 U)
  double extra_utility = 0.0;           // expansion-check (§9 T)

  /// True for O(|HP|)-or-cheaper requests (events, queries, stats, ping,
  /// and the counter reads `expansion-check` and `certify`) that the
  /// broker serves from the priority lane.
  bool IsCheap() const;

  /// True for requests that mutate monitored state or touch storage —
  /// the ones a read-only (open-breaker) server must reject.
  bool IsWrite() const;
};

/// Parses one request line. Never throws and never crashes on arbitrary
/// bytes: oversized lines, embedded NULs, unknown commands, wrong arity
/// and malformed numbers all come back as clean `kInvalidArgument` /
/// `kParseError` statuses.
Result<Request> ParseRequest(std::string_view line);

/// The outcome of executing a request: a status plus a single-line
/// `key=value ...` payload (empty on error).
struct Response {
  Status status;
  std::string payload;
};

/// Renders one response line: `<id> ok <payload>` or
/// `<id> error <code> <message>`. Control bytes in the message are
/// replaced so the wire format stays strictly line-oriented.
std::string FormatResponse(int64_t id, const Response& response);

/// Renders a successful multi-line payload (Prometheus exposition, trace
/// dumps) without violating the line protocol:
///
///   <id> ok block lines=<n>
///   <payload line 1>
///   ...
///   <id> end
///
/// Clients read exactly `n` body lines plus the end marker; the serve loop
/// writes the whole block under the response-writer lock, so body lines
/// never interleave with other responses. `\r` and NUL inside body lines
/// are scrubbed to spaces; errors never use block framing.
std::string FormatBlockResponse(int64_t id, std::string_view payload);

}  // namespace ppdb::server

#endif  // PPDB_SERVER_REQUEST_H_
