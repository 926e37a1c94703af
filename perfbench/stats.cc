#include "stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "obs/metrics.h"

namespace perfbench {

double Quantile(std::vector<double>& values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t index =
      static_cast<size_t>(std::clamp(rank, 1.0, double(values.size()))) - 1;
  return values[index];
}

double Median(std::vector<double> values) { return Quantile(values, 0.5); }

RegistrySnapshot RegistrySnapshot::Take() {
  RegistrySnapshot snapshot;
  std::istringstream in(
      ppdb::obs::MetricsRegistry::Default().RenderPrometheus());
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const size_t space = line.rfind(' ');
    if (space == std::string::npos) continue;
    snapshot.series_[line.substr(0, space)] =
        std::strtod(line.c_str() + space + 1, nullptr);
  }
  return snapshot;
}

double RegistrySnapshot::Get(std::string_view series) const {
  auto it = series_.find(series);
  return it == series_.end() ? 0.0 : it->second;
}

double RegistrySnapshot::SumFamily(std::string_view family,
                                   std::string_view label_match) const {
  double sum = 0.0;
  for (auto it = series_.lower_bound(family); it != series_.end(); ++it) {
    std::string_view name = it->first;
    if (name.substr(0, family.size()) != family) break;
    std::string_view rest = name.substr(family.size());
    if (!rest.empty() && rest[0] != '{') continue;  // a longer family name
    if (rest.find(label_match) == std::string_view::npos) continue;
    sum += it->second;
  }
  return sum;
}

double Delta(const RegistrySnapshot& before, const RegistrySnapshot& after,
             std::string_view series) {
  return after.Get(series) - before.Get(series);
}

double WindowMean(const RegistrySnapshot& before,
                  const RegistrySnapshot& after, std::string_view histogram) {
  const std::string name(histogram);
  return Ratio(Delta(before, after, name + "_sum"),
               Delta(before, after, name + "_count"));
}

double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

void MetricTable::Add(std::string name, double value, std::string unit) {
  entries_.push_back({std::move(name), value, std::move(unit)});
}

std::string MetricTable::ToJson() const {
  std::string out = "{";
  for (size_t i = 0; i < entries_.size(); ++i) {
    const Entry& e = entries_[i];
    char value[64];
    // %.17g keeps every digit of the measured double; non-finite values
    // (never expected) are rendered 0 so the line stays valid JSON.
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(e.value) ? e.value : 0.0);
    out += (i == 0 ? "\"" : ", \"") + e.name + "\": {\"value\": " + value +
           ", \"unit\": \"" + e.unit + "\"}";
  }
  return out + "}";
}

}  // namespace perfbench
