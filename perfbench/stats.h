#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// Nearest-rank quantile (q in [0, 1]) of `values`; 0 when empty. Sorts
/// its argument in place.
double Quantile(std::vector<double>& values, double q);

/// Median, as `Quantile(values, 0.5)`.
double Median(std::vector<double> values);

/// Point-in-time copy of the process registry's Prometheus exposition:
/// every sample line keyed by its full series name (labels included),
/// e.g. `ppdb_broker_shed_total` or
/// `ppdb_view_delta_events_total{path="delta"}`. Read-only: the
/// benchmark never registers instruments of its own, so it cannot change
/// a family's buckets or help text.
class RegistrySnapshot {
 public:
  static RegistrySnapshot Take();

  /// The series value, 0 when absent (family not registered yet).
  double Get(std::string_view series) const;

  /// Sum of every series of `family` whose labels contain `label_match`
  /// (empty matches all), e.g. ("ppdb_storage_save_total", "result=\"ok\"").
  double SumFamily(std::string_view family,
                   std::string_view label_match = {}) const;

 private:
  std::map<std::string, double, std::less<>> series_;
};

/// `after - before` for one series.
double Delta(const RegistrySnapshot& before, const RegistrySnapshot& after,
             std::string_view series);

/// Mean of a histogram family over a window: d(_sum) / d(_count), 0 when
/// the window observed nothing.
double WindowMean(const RegistrySnapshot& before,
                  const RegistrySnapshot& after, std::string_view histogram);

/// `num / den`, or 0 when `den` is 0 (the ratio's base was absent).
double Ratio(double num, double den);

/// Ordered metric table rendered as the result line's `metrics` object.
class MetricTable {
 public:
  void Add(std::string name, double value, std::string unit);
  std::string ToJson() const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
