// Execution-core benchmark (no paper figure): the parallel, frontier-aware
// engine against the preserved serial reference (reference_engine.h).
//
// Three claims gate this bench:
//  1. Simulated RunStats are bit-identical to the serial reference engine
//     at every thread count — the determinism contract (always checked).
//  2. Frontier awareness: on sparse-frontier SSSP (road network) the plan
//     engine at ONE thread beats the reference's full-edge-scan supersteps
//     by >= 5x wall clock, both sides timed best of 3 (always checked;
//     algorithmic, needs no cores).
//  3. Parallel scaling: >= 3x superstep throughput at 8 threads on
//     power-law PageRank (checked only when the host has >= 8 hardware
//     threads; printed as an explicit skip otherwise).

#include <chrono>
#include <cstdint>
#include <thread>

#include "apps/pagerank.h"
#include "apps/sssp.h"
#include "bench_common.h"
#include "engine/gas_engine.h"
#include "engine/plan.h"
#include "engine/reference_engine.h"
#include "partition/ingest.h"
#include "sim/cluster.h"

namespace {

using namespace gdp;

constexpr uint32_t kMachines = 9;

partition::IngestResult Partition(const graph::EdgeList& edges,
                                  sim::Cluster& cluster) {
  partition::PartitionContext context;
  context.num_partitions = kMachines;
  context.num_vertices = edges.num_vertices();
  context.num_loaders = kMachines;
  context.seed = 3;
  return partition::IngestWithStrategy(edges, partition::StrategyKind::kHdrf,
                                       context, cluster,
                                       partition::IngestOptions{});
}

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Best-of-3 wall seconds of `run`, restoring `cluster` to `start` before
/// each repetition so every repetition charges the same simulated costs.
template <typename Run>
double BestOf3Seconds(sim::Cluster& cluster, const sim::ClusterSnapshot& start,
                      Run&& run) {
  double best = 1e100;
  for (int rep = 0; rep < 3; ++rep) {
    cluster.Restore(start);
    const auto begin = std::chrono::steady_clock::now();
    run();
    const double seconds = SecondsSince(begin);
    best = seconds < best ? seconds : best;
  }
  return best;
}

bool StatsIdentical(const engine::RunStats& a, const engine::RunStats& b) {
  return a.iterations == b.iterations && a.converged == b.converged &&
         a.compute_seconds == b.compute_seconds &&
         a.network_bytes == b.network_bytes &&
         a.mean_inbound_bytes_per_machine ==
             b.mean_inbound_bytes_per_machine &&
         a.cumulative_seconds == b.cumulative_seconds &&
         a.active_counts == b.active_counts;
}

}  // namespace

int main() {
  bench::PrintHeader(
      "Engine scaling — parallel frontier-aware core vs serial reference",
      "HDRF, 9 machines; PageRank on power-law web, SSSP on road grid");

  const uint32_t hw_threads = std::thread::hardware_concurrency();
  std::printf("host hardware threads: %u\n", hw_threads);

  // ---- PageRank on a power-law web: dense frontier, parallel scaling ----
  graph::EdgeList web = graph::GeneratePowerLawWeb(
      {.num_vertices = 40000, .out_alpha = 1.3, .seed = 0x0B});
  web.set_name("power-law web");

  engine::RunOptions pr_options;
  pr_options.max_iterations = 10;
  apps::PageRankApp pr_app = apps::PageRankFixed();

  sim::Cluster ref_cluster(kMachines, sim::CostModel{});
  partition::IngestResult ref_ingest = Partition(web, ref_cluster);
  auto ref_start = std::chrono::steady_clock::now();
  auto pr_ref = engine::RunGasEngineReference(
      engine::EngineKind::kPowerGraphSync, ref_ingest.graph, ref_cluster,
      pr_app, pr_options);
  const double pr_ref_seconds = SecondsSince(ref_start);
  const double ref_throughput = pr_ref.stats.iterations / pr_ref_seconds;

  util::Table pr_table({"engine", "threads", "wall(ms)", "supersteps/s",
                        "speedup", "stats==ref"});
  pr_table.AddRow({"reference", "1", util::Table::Num(pr_ref_seconds * 1e3),
                   util::Table::Num(ref_throughput), "1.00", "—"});

  bool pr_stats_identical = true;
  double throughput_at_8 = 0;
  for (uint32_t threads : {1u, 2u, 4u, 8u}) {
    sim::Cluster cluster(kMachines, sim::CostModel{});
    partition::IngestResult ingest = Partition(web, cluster);
    const engine::ExecutionPlan plan = engine::ExecutionPlan::Build(
        ingest.graph, apps::PageRankApp::kGatherDir,
        apps::PageRankApp::kScatterDir, /*graphx_counts=*/false);
    engine::RunOptions options = pr_options;
    options.exec.num_threads = threads;
    auto start = std::chrono::steady_clock::now();
    auto got = engine::RunGasEngine(engine::EngineKind::kPowerGraphSync,
                                    plan, cluster, pr_app, options);
    const double seconds = SecondsSince(start);
    const double throughput = got.stats.iterations / seconds;
    if (threads == 8) throughput_at_8 = throughput;
    const bool identical = StatsIdentical(got.stats, pr_ref.stats) &&
                           got.states == pr_ref.states;
    pr_stats_identical = pr_stats_identical && identical;
    pr_table.AddRow({"plan", std::to_string(threads),
                     util::Table::Num(seconds * 1e3),
                     util::Table::Num(throughput),
                     util::Table::Num(pr_ref_seconds / seconds),
                     identical ? "yes" : "NO"});
  }
  bench::PrintTable(pr_table);

  // ---- SSSP on a road grid: sparse frontier, serial algorithmic win ----
  graph::EdgeList road = graph::GenerateRoadNetwork(
      {.width = 190, .height = 190, .seed = 0xCA});
  road.set_name("road grid");

  engine::RunOptions sssp_options;
  sssp_options.max_iterations = 5000;
  apps::SsspApp sssp_app;
  sssp_app.source = 0;

  // Both sides are timed best of 3 from the same ingested cluster state: a
  // single timed run of either side lets one scheduler hiccup swing the
  // ratio across the 5x bound.
  sim::Cluster sssp_cluster(kMachines, sim::CostModel{});
  partition::IngestResult sssp_ingest = Partition(road, sssp_cluster);
  const sim::ClusterSnapshot sssp_ingested = sssp_cluster.Snapshot();
  engine::GasRunResult<apps::SsspApp> sssp_ref;
  const double sssp_ref_seconds =
      BestOf3Seconds(sssp_cluster, sssp_ingested, [&] {
        sssp_ref = engine::RunGasEngineReference(
            engine::EngineKind::kPowerGraphSync, sssp_ingest.graph,
            sssp_cluster, sssp_app, sssp_options);
      });

  engine::RunOptions sssp_serial = sssp_options;
  sssp_serial.exec.num_threads = 1;
  engine::GasRunResult<apps::SsspApp> sssp_got;
  const double sssp_plan_seconds =
      BestOf3Seconds(sssp_cluster, sssp_ingested, [&] {
        sssp_got = engine::RunGasEngine(engine::EngineKind::kPowerGraphSync,
                                        sssp_ingest.graph, sssp_cluster,
                                        sssp_app, sssp_serial);
      });
  const double sssp_speedup = sssp_ref_seconds / sssp_plan_seconds;

  // Frontier sparsity: the mean active fraction across supersteps is what
  // the frontier switch exploits (the reference pays O(|E|) regardless).
  uint64_t active_sum = 0;
  uint64_t peak_active = 0;
  for (uint64_t c : sssp_got.stats.active_counts) {
    active_sum += c;
    peak_active = peak_active > c ? peak_active : c;
  }
  const double mean_active_fraction =
      sssp_got.stats.active_counts.empty()
          ? 0.0
          : static_cast<double>(active_sum) /
                (static_cast<double>(sssp_got.stats.active_counts.size()) *
                 road.num_vertices());

  util::Table sssp_table({"engine", "wall(ms)", "supersteps",
                          "mean active frac", "peak active", "speedup"});
  sssp_table.AddRow({"reference", util::Table::Num(sssp_ref_seconds * 1e3),
                     std::to_string(sssp_ref.stats.iterations),
                     util::Table::Num(mean_active_fraction, 4),
                     std::to_string(peak_active), "1.00"});
  sssp_table.AddRow({"plan (1 thread)",
                     util::Table::Num(sssp_plan_seconds * 1e3),
                     std::to_string(sssp_got.stats.iterations),
                     util::Table::Num(mean_active_fraction, 4),
                     std::to_string(peak_active),
                     util::Table::Num(sssp_speedup)});
  bench::PrintTable(sssp_table);

  const bool sssp_identical =
      StatsIdentical(sssp_got.stats, sssp_ref.stats) &&
      sssp_got.states == sssp_ref.states;

  // ---- Claims ----
  bool ok = true;
  ok &= bench::Claim(
      "simulated costs bit-identical to the serial engine at every thread "
      "count (PageRank 1/2/4/8 threads, SSSP)",
      pr_stats_identical && sssp_identical);
  ok &= bench::Claim(
      "frontier-aware engine >= 5x serial speedup on sparse-frontier SSSP "
      "(measured " + util::Table::Num(sssp_speedup, 1) + "x, mean active "
      "fraction " + util::Table::Num(mean_active_fraction * 100, 2) + "%)",
      sssp_speedup >= 5.0 && mean_active_fraction < 0.05);
  if (hw_threads >= 8) {
    ok &= bench::Claim(
        ">= 3x superstep throughput at 8 threads on power-law PageRank "
        "(measured " +
            util::Table::Num(throughput_at_8 / ref_throughput, 1) + "x)",
        throughput_at_8 >= 3.0 * ref_throughput);
  } else {
    // Not enough cores to demonstrate scaling here; determinism claims
    // above still bind. Counts as reproduced-by-skip, explicitly labeled.
    ok &= bench::Claim(
        "8-thread throughput claim skipped: host has only " +
            std::to_string(hw_threads) +
            " hardware thread(s); rerun on >= 8 cores to evaluate",
        true);
  }
  return ok ? 0 : 1;
}
