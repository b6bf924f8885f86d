// Kernel-level pass (no paper figure): the run-table accounting kernels on
// both plan layouts against the serial reference oracle.
//
// Two claims gate this bench:
//  1. Identity matrix: heavy-tailed PageRank(10) under every engine in
//     {PowerGraph, PowerLyra, GraphX} x layout {uncompressed, compressed}
//     x threads {1,2,8} — final states, RunStats, per-machine cluster
//     accounting, AND engine span args all bit-identical to the serial
//     reference (always checked).
//  2. Sparse-frontier SSSP identity in both layouts — the compressed
//     decode path must agree with the oracle when frontiers are lists,
//     not bitsets (always checked).
//
// It also reports, ungated, the single-thread superstep-loop wall time and
// adjacency bytes of both layouts on a larger heavy-tailed graph, and
// emits the byte ratio as the compressed_plan_shrink_x metric.

#include <chrono>
#include <cstdint>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "apps/pagerank.h"
#include "apps/sssp.h"
#include "bench_common.h"
#include "engine/gas_engine.h"
#include "engine/plan.h"
#include "engine/reference_engine.h"
#include "obs/trace.h"
#include "partition/ingest.h"
#include "sim/cluster.h"

namespace {

using namespace gdp;

constexpr uint32_t kMachines = 9;
constexpr uint32_t kThreadCounts[] = {1, 2, 8};

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

bool StatsIdentical(const engine::RunStats& a, const engine::RunStats& b) {
  return a.iterations == b.iterations && a.converged == b.converged &&
         a.compute_seconds == b.compute_seconds &&
         a.network_bytes == b.network_bytes &&
         a.mean_inbound_bytes_per_machine ==
             b.mean_inbound_bytes_per_machine &&
         a.cumulative_seconds == b.cumulative_seconds &&
         a.active_counts == b.active_counts;
}

/// Per-machine accounting that the kernel rewrite must not perturb: busy
/// time, bytes out, bytes in — plus the cluster clock.
using MachineState = std::tuple<double, uint64_t, uint64_t>;
std::vector<MachineState> ClusterState(const sim::Cluster& cluster) {
  std::vector<MachineState> out;
  out.reserve(cluster.num_machines() + 1);
  for (uint32_t m = 0; m < cluster.num_machines(); ++m) {
    out.emplace_back(cluster.machine(m).busy_seconds(),
                     cluster.machine(m).bytes_sent(),
                     cluster.machine(m).bytes_received());
  }
  out.emplace_back(cluster.now_seconds(), 0, 0);
  return out;
}

/// A span with wall-clock fields stripped: everything the engines must
/// emit bit-identically regardless of layout or lane count.
using SimSpan = std::tuple<std::string, std::string, uint64_t, uint32_t,
                           double, double,
                           std::vector<std::pair<std::string, int64_t>>>;
std::vector<SimSpan> SimSpans(const obs::TraceRecorder& recorder) {
  std::vector<SimSpan> out;
  for (const obs::TraceSpan& s : recorder.SpansByTrack()) {
    out.emplace_back(s.name, s.category, s.track, s.depth,
                     s.sim_begin_seconds, s.sim_end_seconds, s.args);
  }
  return out;
}

constexpr engine::PlanLayout kLayouts[] = {engine::PlanLayout::kUncompressed,
                                           engine::PlanLayout::kCompressed};

}  // namespace

int main() {
  bench::PrintHeader(
      "Kernel scaling — run-table GAS kernels on both plan layouts",
      "HDRF, 9 machines; PageRank on heavy-tailed social, SSSP on road "
      "grid");

  // ---- Claim 1: the identity matrix -------------------------------------
  graph::EdgeList matrix_graph = graph::GenerateHeavyTailed(
      {.num_vertices = 12000, .edges_per_vertex = 16, .seed = 0x5C});
  matrix_graph.set_name("heavy-tailed social (identity)");

  engine::RunOptions pr_options;
  pr_options.max_iterations = 10;
  const apps::PageRankApp pr_app = apps::PageRankFixed();

  bool identity_ok = true;
  util::Table id_table(
      {"engine", "layout", "threads", "wall(ms)", "identical"});
  for (engine::EngineKind kind : {engine::EngineKind::kPowerGraphSync,
                                  engine::EngineKind::kPowerLyraHybrid,
                                  engine::EngineKind::kGraphXPregel}) {
    const bool graphx = kind == engine::EngineKind::kGraphXPregel;
    sim::Cluster cluster(kMachines, sim::CostModel{});
    partition::IngestResult ingest = Partition(matrix_graph, cluster);
    const sim::ClusterSnapshot ingested = cluster.Snapshot();

    obs::TraceRecorder ref_trace;
    engine::RunOptions ref_options = pr_options;
    ref_options.exec.trace = &ref_trace;
    const auto ref = engine::RunGasEngineReference(kind, ingest.graph,
                                                   cluster, pr_app,
                                                   ref_options);
    const std::vector<MachineState> ref_cluster_state =
        ClusterState(cluster);
    const std::vector<SimSpan> ref_spans = SimSpans(ref_trace);

    for (engine::PlanLayout layout : kLayouts) {
      const engine::ExecutionPlan plan = engine::ExecutionPlan::Build(
          ingest.graph, apps::PageRankApp::kGatherDir,
          apps::PageRankApp::kScatterDir, graphx, layout);
      for (uint32_t threads : kThreadCounts) {
        cluster.Restore(ingested);
        obs::TraceRecorder trace;
        engine::RunOptions options = pr_options;
        options.exec.num_threads = threads;
        options.exec.trace = &trace;
        const auto start = std::chrono::steady_clock::now();
        const auto got =
            engine::RunGasEngine(kind, plan, cluster, pr_app, options);
        const double seconds = SecondsSince(start);
        const bool identical = got.states == ref.states &&
                               StatsIdentical(got.stats, ref.stats) &&
                               ClusterState(cluster) == ref_cluster_state &&
                               SimSpans(trace) == ref_spans;
        identity_ok = identity_ok && identical;
        id_table.AddRow({engine::EngineKindName(kind),
                         engine::PlanLayoutName(layout),
                         std::to_string(threads),
                         util::Table::Num(seconds * 1e3),
                         identical ? "yes" : "NO"});
      }
    }
  }
  bench::PrintTable(id_table);

  // ---- Claim 2: sparse-frontier SSSP in both layouts --------------------
  graph::EdgeList road = graph::GenerateRoadNetwork(
      {.width = 120, .height = 120, .seed = 0xCA});
  road.set_name("road grid");
  engine::RunOptions sssp_options;
  sssp_options.max_iterations = 3000;
  apps::SsspApp sssp_app;
  sssp_app.source = 0;

  bool sssp_ok = true;
  {
    sim::Cluster cluster(kMachines, sim::CostModel{});
    partition::IngestResult ingest = Partition(road, cluster);
    const sim::ClusterSnapshot ingested = cluster.Snapshot();
    const auto ref = engine::RunGasEngineReference(
        engine::EngineKind::kPowerGraphSync, ingest.graph, cluster,
        sssp_app, sssp_options);
    const std::vector<MachineState> ref_cluster_state =
        ClusterState(cluster);
    for (engine::PlanLayout layout : kLayouts) {
      const engine::ExecutionPlan plan = engine::ExecutionPlan::Build(
          ingest.graph, apps::SsspApp::kGatherDir,
          apps::SsspApp::kScatterDir, /*graphx_counts=*/false, layout);
      for (uint32_t threads : kThreadCounts) {
        cluster.Restore(ingested);
        engine::RunOptions options = sssp_options;
        options.exec.num_threads = threads;
        const auto got =
            engine::RunGasEngine(engine::EngineKind::kPowerGraphSync, plan,
                                 cluster, sssp_app, options);
        sssp_ok = sssp_ok && got.states == ref.states &&
                  StatsIdentical(got.stats, ref.stats) &&
                  ClusterState(cluster) == ref_cluster_state;
      }
    }
  }

  // ---- Report: layout wall time and memory on the big graph ------------
  graph::EdgeList social = graph::GenerateHeavyTailed(
      {.num_vertices = 30000, .edges_per_vertex = 24, .seed = 0x0D});
  social.set_name("heavy-tailed social (speed/memory)");

  sim::Cluster speed_cluster(kMachines, sim::CostModel{});
  partition::IngestResult speed_ingest = Partition(social, speed_cluster);
  const sim::ClusterSnapshot speed_ingested = speed_cluster.Snapshot();

  // Superstep-loop wall time only: prebuilt plans, one lane, best of 3
  // (plan build and ingress are amortized in real grids — PlanCache).
  util::Table speed_table(
      {"layout", "wall(ms)", "adjacency bytes", "bytes/entry"});
  uint64_t layout_bytes[2] = {0, 0};
  for (int i = 0; i < 2; ++i) {
    const engine::ExecutionPlan plan = engine::ExecutionPlan::Build(
        speed_ingest.graph, apps::PageRankApp::kGatherDir,
        apps::PageRankApp::kScatterDir, /*graphx_counts=*/false,
        kLayouts[i]);
    double best = 1e100;
    for (int rep = 0; rep < 3; ++rep) {
      speed_cluster.Restore(speed_ingested);
      engine::RunOptions options = pr_options;
      options.exec.num_threads = 1;
      const auto start = std::chrono::steady_clock::now();
      const auto got = engine::RunGasEngine(
          engine::EngineKind::kPowerGraphSync, plan, speed_cluster, pr_app,
          options);
      const double seconds = SecondsSince(start);
      best = seconds < best ? seconds : best;
      (void)got;
    }
    layout_bytes[i] = plan.AdjacencyBytes();
    const uint64_t entries =
        plan.gather_offsets.back() + plan.scatter_offsets.back();
    speed_table.AddRow(
        {engine::PlanLayoutName(kLayouts[i]), util::Table::Num(best * 1e3),
         std::to_string(layout_bytes[i]),
         util::Table::Num(static_cast<double>(layout_bytes[i]) /
                          static_cast<double>(entries))});
  }
  bench::PrintTable(speed_table);
  bench::Metric("compressed_plan_shrink_x",
                static_cast<double>(layout_bytes[0]) /
                    static_cast<double>(layout_bytes[1]));

  // ---- Claims ----
  bool ok = true;
  ok &= bench::Claim(
      "states, RunStats, per-machine accounting, and span args "
      "bit-identical to the serial reference across 3 engines x layouts x "
      "threads {1,2,8} (heavy-tailed PageRank)",
      identity_ok);
  ok &= bench::Claim(
      "sparse-frontier SSSP bit-identical in both layouts at every thread "
      "count",
      sssp_ok);
  return ok ? 0 : 1;
}
