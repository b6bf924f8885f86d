// gdp_e2ebench: one run of one end-to-end benchmark workload.
//
//   gdp_e2ebench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//                [--smoke]
//
// Progress goes to stderr; the last stdout line is the result object
// {"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
// end-to-end metrics, --trace 1 the per-layer metrics of a separate traced
// run. The exit code is 0 whenever the run completed, correct or not.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "workloads.h"

namespace gdp::e2ebench {
namespace {

using MetricList = std::vector<std::pair<std::string, std::string>>;

/// End-to-end metrics (name, unit), reported by every workload.
const MetricList& EndToEndMetrics() {
  static const MetricList list = {
      {"setup_s", "s"},
      {"op_s", "s"},
      {"op_1t_s", "s"},
      {"peak_rss_mb", "MB"},
  };
  return list;
}

/// Per-layer metrics (name, unit). A workload that does not exercise a
/// layer reports 0 for its metrics.
const MetricList& PerLayerMetrics() {
  static const MetricList list = [] {
    MetricList l = {
        {"graph.generate_s", "s"},
        {"graph.edges", "count"},
        {"graph.store_build_s", "s"},
        {"graph.store_bytes", "bytes"},
        {"partition.ingest_s", "s"},
        {"partition.ingest_1t_s", "s"},
        {"partition.ingest_medges_per_s", "Medges/s"},
        {"partition.peak_state_bytes", "bytes"},
        {"partition.ring_peak_bytes", "bytes"},
        {"partition.replication_factor", "replicas/vertex"},
        {"partition.sim_ingress_s", "sim_s"},
    };
    for (const char* name :
         {"Random", "Assym-Rand", "Grid", "PDS", "Oblivious", "HDRF",
          "Hybrid", "H-Ginger", "1D", "1D-Target", "2D", "Chunked", "DBH",
          "NE", "SNE", "2PS", "HEP"}) {
      l.emplace_back(std::string("partition.ingest_s.") + name, "s");
    }
    const MetricList rest = {
        {"engine.plan_build_s", "s"},
        {"engine.plan_bytes", "bytes"},
        {"engine.run_s", "s"},
        {"engine.run_1t_s", "s"},
        {"engine.supersteps", "count"},
        {"engine.superstep_ms", "ms"},
        {"engine.active_vertex_steps", "count"},
        {"engine.active_mvps", "Mvertex/s"},
        {"engine.sim_compute_s", "sim_s"},
        {"engine.network_bytes", "bytes"},
        {"harness.cells", "count"},
        {"harness.cache_hits", "count"},
        {"harness.cache_misses", "count"},
        {"harness.ingress_cells_s", "s"},
        {"harness.compute_cells_s", "s"},
        {"harness.slowest_cell_s", "s"},
        {"sim.restore_us", "us"},
        {"sim.snapshot_bytes", "bytes"},
        {"serving.warmup_s", "s"},
        {"serving.requests", "count"},
        {"serving.batches", "count"},
        {"serving.batch_ms", "ms"},
        {"serving.rps", "1/s"},
        {"serving.kind_s.sssp", "s"},
        {"serving.kind_s.bfs", "s"},
        {"serving.kind_s.pagerank", "s"},
        {"serving.kind_s.kcore", "s"},
        {"serving.sim_makespan_s", "sim_s"},
        {"serving.sim_p99_us", "sim_us"},
        {"obs.unspanned_frac", "fraction"},
        {"obs.trace_overhead_frac", "fraction"},
    };
    l.insert(l.end(), rest.begin(), rest.end());
    return l;
  }();
  return list;
}

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "%s\nusage: gdp_e2ebench --workload <cell-heavy-hdrf|"
               "cell-road-stream|grid-roster|serve-mixed> [--seed N] "
               "[--seconds S] [--trace 0|1] [--smoke]\n",
               why);
  std::exit(2);
}

RunArgs Parse(int argc, char** argv) {
  RunArgs args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      args.smoke = true;
      continue;
    }
    if (i + 1 >= argc) Usage("missing flag value");
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, &end, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, &end);
      if (!(args.seconds >= 0)) Usage("--seconds must be >= 0");
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        Usage("--trace takes 0 or 1");
      }
      args.trace = value[0] == '1';
    } else {
      Usage("unknown flag");
    }
    if (end != nullptr && (end == value || *end != '\0')) {
      Usage("malformed number");
    }
  }
  if (args.workload.empty()) Usage("--workload is required");
  return args;
}

}  // namespace
}  // namespace gdp::e2ebench

int main(int argc, char** argv) {
  using namespace gdp::e2ebench;
  const RunArgs args = Parse(argc, argv);
  Report report;
  if (args.workload == "cell-heavy-hdrf") {
    RunCellHeavyHdrf(args, report);
  } else if (args.workload == "cell-road-stream") {
    RunCellRoadStream(args, report);
  } else if (args.workload == "grid-roster") {
    RunGridRoster(args, report);
  } else if (args.workload == "serve-mixed") {
    RunServeMixed(args, report);
  } else {
    Usage("unknown workload");
  }
  if (!args.trace) report.Metric("peak_rss_mb", PeakRssMb());
  report.Print(args.trace ? PerLayerMetrics() : EndToEndMetrics());
  return 0;
}
