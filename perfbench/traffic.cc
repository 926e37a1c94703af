#include "traffic.h"

#include <cmath>
#include <cstdio>
#include <utility>

namespace perfbench {

namespace {

constexpr int64_t kNsPerSecond = 1'000'000'000;

/// The analyst's cycle on census_mix, one request per second.
constexpr Op kHeavyCycle[] = {Op::kAnalyze, Op::kCertify, Op::kWhatIf,
                              Op::kSearch};

struct MixEntry {
  Op op;
  double weight;
};

/// Live request mix per workload; weights sum to 1.
const std::vector<MixEntry>& LiveMix(Workload workload) {
  static const std::vector<MixEntry> reads = {{Op::kQueryPw, 0.50},
                                              {Op::kQueryPdefault, 0.20},
                                              {Op::kQueryProvider, 0.25},
                                              {Op::kExpansionCheck, 0.05}};
  // 80% events, split 70/30 between preference and threshold.
  static const std::vector<MixEntry> events = {{Op::kEventPref, 0.56},
                                               {Op::kEventThreshold, 0.24},
                                               {Op::kQueryProvider, 0.20}};
  static const std::vector<MixEntry> census = {{Op::kQueryProvider, 0.50},
                                               {Op::kEventPref, 0.35},
                                               {Op::kEventThreshold, 0.15}};
  switch (workload) {
    case Workload::kServeReads: return reads;
    case Workload::kServeEvents: return events;
    case Workload::kCensusMix: return census;
  }
  return reads;
}

std::string Format(const char* fmt, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), fmt, value);
  return buf;
}

}  // namespace

ppdb::Result<Workload> ParseWorkload(std::string_view name) {
  if (name == "serve_reads") return Workload::kServeReads;
  if (name == "serve_events") return Workload::kServeEvents;
  if (name == "census_mix") return Workload::kCensusMix;
  return ppdb::Status::InvalidArgument("unknown workload '" +
                                       std::string(name) + "'");
}

std::string_view WorkloadName(Workload workload) {
  switch (workload) {
    case Workload::kServeReads: return "serve_reads";
    case Workload::kServeEvents: return "serve_events";
    case Workload::kCensusMix: return "census_mix";
  }
  return "unknown";
}

std::string_view OpName(Op op) {
  switch (op) {
    case Op::kQueryPw: return "query_pw";
    case Op::kQueryPdefault: return "query_pdefault";
    case Op::kQueryProvider: return "query_provider";
    case Op::kExpansionCheck: return "expansion_check";
    case Op::kEventPref: return "event_pref";
    case Op::kEventThreshold: return "event_threshold";
    case Op::kAnalyze: return "analyze";
    case Op::kCertify: return "certify";
    case Op::kWhatIf: return "whatif";
    case Op::kSearch: return "search";
  }
  return "unknown";
}

bool IsRead(Op op) {
  return op == Op::kQueryPw || op == Op::kQueryPdefault ||
         op == Op::kQueryProvider || op == Op::kExpansionCheck;
}

bool IsEvent(Op op) {
  return op == Op::kEventPref || op == Op::kEventThreshold;
}

bool IsHeavy(Op op) { return !IsRead(op) && !IsEvent(op); }

WorkloadShape ShapeOf(Workload workload) {
  switch (workload) {
    case Workload::kServeReads:
      return {.live_rate = 20000.0, .live_connections = 4, .analyst = false};
    case Workload::kServeEvents:
      return {.live_rate = 1000.0, .live_connections = 4, .analyst = false};
    case Workload::kCensusMix:
      return {.live_rate = 200.0, .live_connections = 2, .analyst = true};
  }
  return {};
}

TrafficStream::TrafficStream(Workload workload, uint64_t seed, Schema schema)
    : workload_(workload),
      shape_(ShapeOf(workload)),
      schema_(std::move(schema)),
      // Mix the workload into the seed so two workloads on one seed do not
      // share a request sequence.
      rng_(seed * 0x9e3779b97f4a7c15ULL + static_cast<uint64_t>(workload) + 1) {
}

int TrafficStream::num_connections() const {
  return shape_.live_connections + (shape_.analyst ? 1 : 0);
}

ScheduledRequest TrafficStream::Next() {
  const int64_t live_due = static_cast<int64_t>(std::llround(
      static_cast<double>(live_index_) * kNsPerSecond / shape_.live_rate));
  const int64_t heavy_due = heavy_index_ * kNsPerSecond;
  if (shape_.analyst && heavy_due <= live_due) return NextHeavy();
  ScheduledRequest request = NextLive();
  request.due_ns = live_due;
  return request;
}

std::string TrafficStream::ProviderArg() {
  return std::to_string(rng_.NextInt(1, schema_.num_providers));
}

ScheduledRequest TrafficStream::NextLive() {
  ScheduledRequest request;
  request.conn = static_cast<int>(live_index_ % shape_.live_connections) +
                 (shape_.analyst ? 1 : 0);
  ++live_index_;
  double draw = rng_.NextDouble();
  const std::vector<MixEntry>& mix = LiveMix(workload_);
  request.op = mix.back().op;
  for (const MixEntry& entry : mix) {
    if (draw < entry.weight) {
      request.op = entry.op;
      break;
    }
    draw -= entry.weight;
  }
  switch (request.op) {
    case Op::kQueryPw:
      request.line = "query pw";
      break;
    case Op::kQueryPdefault:
      request.line = "query pdefault";
      break;
    case Op::kQueryProvider:
      request.line = "query provider " + ProviderArg();
      break;
    case Op::kExpansionCheck:
      // §9: U per provider in [1, 2), extra utility T in [0, 1).
      request.line = "expansion-check " +
                     Format("%.3f", 1.0 + rng_.NextDouble()) + " " +
                     Format("%.3f", rng_.NextDouble());
      break;
    case Op::kEventPref: {
      std::string provider = ProviderArg();
      const std::string& attribute = schema_.attributes[rng_.NextBounded(
          schema_.attributes.size())];
      const std::string& purpose =
          schema_.purposes[rng_.NextBounded(schema_.purposes.size())];
      request.line = "event pref " + provider + " " + attribute + " " +
                     purpose + " " +
                     std::to_string(rng_.NextInt(0, schema_.max_visibility)) +
                     " " +
                     std::to_string(rng_.NextInt(0, schema_.max_granularity)) +
                     " " +
                     std::to_string(rng_.NextInt(0, schema_.max_retention));
      break;
    }
    case Op::kEventThreshold: {
      std::string provider = ProviderArg();
      // The pragmatist segment's threshold law (median ~30).
      request.line = "event threshold " + provider + " " +
                     Format("%.4g", rng_.NextLogNormal(3.4, 0.8));
      break;
    }
    default:
      break;
  }
  return request;
}

ScheduledRequest TrafficStream::NextHeavy() {
  ScheduledRequest request;
  request.due_ns = heavy_index_ * kNsPerSecond;
  request.conn = 0;
  request.op = kHeavyCycle[heavy_index_ % 4];
  ++heavy_index_;
  switch (request.op) {
    case Op::kAnalyze:
      request.line = "analyze";
      break;
    case Op::kCertify:
      request.line = "certify 0.2";
      break;
    case Op::kWhatIf:
      request.line = "whatif v 2";
      break;
    case Op::kSearch:
      request.line = "search 1";
      break;
    default:
      break;
  }
  return request;
}

uint64_t StreamDigest(Workload workload, uint64_t seed, const Schema& schema,
                      int64_t count) {
  uint64_t hash = 1469598103934665603ULL;
  auto mix = [&hash](std::string_view bytes) {
    for (unsigned char c : bytes) {
      hash ^= c;
      hash *= 1099511628211ULL;
    }
  };
  TrafficStream stream(workload, seed, schema);
  for (int64_t i = 0; i < count; ++i) {
    ScheduledRequest request = stream.Next();
    mix(std::to_string(request.due_ns) + " " + std::to_string(request.conn) +
        " " + request.line + "\n");
  }
  return hash;
}

}  // namespace perfbench
