#ifndef GDP_E2EBENCH_BENCH_UTIL_H_
#define GDP_E2EBENCH_BENCH_UTIL_H_

// Shared plumbing of the end-to-end benchmark: run arguments, the wall
// clock, medians, the alternating N-thread / 1-thread repetition loop, and
// the result record printed as the run's last stdout line.

#include <chrono>
#include <cstdio>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace gdp::e2ebench {

/// Settings of one benchmark run (see main.cc for the command line).
struct RunArgs {
  std::string workload;
  uint64_t seed = 1;
  /// Length of the measurement window, in seconds.
  double seconds = 10;
  /// Per-layer (traced) run instead of the end-to-end run.
  bool trace = false;
  /// Tiny inputs, same checks: the benchmark's own smoke test.
  bool smoke = false;
};

/// Host threads of the multi-thread operation behind `op_s`: 2, or 1 on a
/// single-thread host. Never 0 ("hardware default"): the count is stated.
/// Two, not four: on a shared 4-vCPU virtual machine a 4-thread operation
/// stalls at every barrier on whichever vCPU the hypervisor has taken away,
/// and its run-to-run spread was about twice the 2-thread one.
uint32_t MultiThreads();

/// Set-up repetitions whose median is `setup_s`.
inline constexpr int kSetupReps = 11;

/// Monotonic wall clock.
class Stopwatch {
 public:
  Stopwatch() : start_(std::chrono::steady_clock::now()) {}
  double Seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// Median of `values` (mean of the middle two for even sizes); 0 if empty.
double Median(std::vector<double> values);

/// Peak resident set size of this process, in MiB.
double PeakRssMb();

/// Operation/check accounting plus the metrics of one run. Print() emits
/// them as one JSON object, the run's last stdout line.
class Report {
 public:
  /// Counts one correctness check; a false `ok` counts as failed and is
  /// explained on stderr.
  void Check(bool ok, std::string_view what);
  /// Counts one timed operation that ran to completion.
  void CountOperation() { ++attempted_; }
  /// Records a metric; a name set twice keeps the last value. Units live
  /// in the metric lists of main.cc.
  void Metric(const std::string& name, double value) {
    metrics_[name] = value;
  }
  /// Prints the result object: `names` (in order) with their recorded
  /// values, where a name the workload never set reads 0 (a layer the
  /// workload does not exercise). Dies if the workload recorded a metric
  /// outside `names`.
  void Print(const std::vector<std::pair<std::string, std::string>>& names)
      const;

 private:
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::map<std::string, double> metrics_;
};

/// Medians of one operation timed at `threads` host threads and at 1.
struct OpTimes {
  std::vector<double> multi;
  std::vector<double> single;
  double MultiMedian() const { return Median(multi); }
  double SingleMedian() const { return Median(single); }
};

/// The measurement window: alternates one timed `op(threads)` and one timed
/// `op(1)` per round until `seconds` have passed, and at least 3 rounds.
/// Only the op call is timed; each result is then handed to `verify` (which
/// records its checks) and destroyed outside the timed interval. Callers
/// run their discarded warm-ups before calling this.
template <typename Op, typename Verify>
OpTimes TimeRounds(double seconds, uint32_t threads, Report& report, Op op,
                   Verify verify) {
  constexpr int kMinRounds = 3;
  OpTimes times;
  const Stopwatch window;
  for (int round = 0; round < kMinRounds || window.Seconds() < seconds;
       ++round) {
    for (const uint32_t t : {threads, 1u}) {
      const Stopwatch clock;
      auto result = op(t);
      (t == 1 ? times.single : times.multi).push_back(clock.Seconds());
      report.CountOperation();
      verify(result);
    }
  }
  for (const auto* series : {&times.multi, &times.single}) {
    std::fprintf(stderr, "%s-thread op times:", series == &times.multi
                                                    ? "multi"
                                                    : "single");
    for (const double t : *series) std::fprintf(stderr, " %.4f", t);
    std::fprintf(stderr, "\n");
  }
  return times;
}

}  // namespace gdp::e2ebench

#endif  // GDP_E2EBENCH_BENCH_UTIL_H_
