#include "bench_util.h"

#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <thread>

namespace gdp::e2ebench {

uint32_t MultiThreads() {
  const uint32_t hw = std::thread::hardware_concurrency();
  return hw == 0 ? 2 : std::min<uint32_t>(2, hw);
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  const size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + mid, values.end());
  const double upper = values[mid];
  if (values.size() % 2 == 1) return upper;
  const double lower = *std::max_element(values.begin(), values.begin() + mid);
  return (lower + upper) / 2;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

void Report::Check(bool ok, std::string_view what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    std::fprintf(stderr, "CHECK FAILED: %.*s\n", static_cast<int>(what.size()),
                 what.data());
  }
}

void Report::Print(
    const std::vector<std::pair<std::string, std::string>>& names) const {
  for (const auto& metric : metrics_) {
    if (std::none_of(names.begin(), names.end(),
                     [&](const auto& n) { return n.first == metric.first; })) {
      std::fprintf(stderr, "metric %s is not in this mode's metric list\n",
                   metric.first.c_str());
      std::abort();
    }
  }
  std::string out = "{\"correct\": ";
  out += failed_ == 0 ? "true" : "false";
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                ", \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
                ", \"metrics\": {",
                attempted_, failed_);
  out += buf;
  bool first = true;
  for (const auto& [name, unit] : names) {
    const auto it = metrics_.find(name);
    const double value = it == metrics_.end() ? 0.0 : it->second;
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  first ? "" : ", ", name.c_str(), value, unit.c_str());
    out += buf;
    first = false;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

}  // namespace gdp::e2ebench
