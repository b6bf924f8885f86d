// The two single-cell workloads: `cell-heavy-hdrf` (HDRF ingress and dense
// PageRank supersteps on the heavy-tailed analog) and `cell-road-stream`
// (Oblivious streaming ingress and sparse SSSP supersteps on the road
// analog). The timed operation is one harness::RunExperiment call. The
// traced run replays the same cell as its layer calls — ingest, plan build,
// engine run — timed from here, and checks that the replay's simulated
// stats equal RunExperiment's.

#include <cmath>
#include <cstdio>
#include <memory>
#include <utility>
#include <vector>

#include "apps/pagerank.h"
#include "apps/reference.h"
#include "apps/sssp.h"
#include "engine/gas_engine.h"
#include "engine/plan.h"
#include "graph/edge_block_store.h"
#include "graph/generators.h"
#include "harness/experiment_internal.h"
#include "obs/trace.h"
#include "partition/ingest.h"
#include "workloads.h"

namespace gdp::e2ebench {

bool SameSimulatedResult(const harness::ExperimentResult& a,
                         const harness::ExperimentResult& b) {
  const partition::IngressReport& ia = a.ingress;
  const partition::IngressReport& ib = b.ingress;
  const engine::RunStats& ca = a.compute;
  const engine::RunStats& cb = b.compute;
  return ia.ingress_seconds == ib.ingress_seconds &&
         ia.pass_seconds == ib.pass_seconds &&
         ia.edges_moved == ib.edges_moved &&
         ia.replication_factor == ib.replication_factor &&
         ia.edge_balance_ratio == ib.edge_balance_ratio &&
         ia.peak_state_bytes == ib.peak_state_bytes &&
         ca.iterations == cb.iterations && ca.converged == cb.converged &&
         ca.compute_seconds == cb.compute_seconds &&
         ca.network_bytes == cb.network_bytes &&
         ca.mean_inbound_bytes_per_machine ==
             cb.mean_inbound_bytes_per_machine &&
         ca.cumulative_seconds == cb.cumulative_seconds &&
         ca.active_counts == cb.active_counts &&
         a.total_seconds == b.total_seconds &&
         a.replication_factor == b.replication_factor &&
         a.mean_peak_memory_bytes == b.mean_peak_memory_bytes &&
         a.max_peak_memory_bytes == b.max_peak_memory_bytes &&
         a.cpu_utilizations == b.cpu_utilizations &&
         a.edge_balance_ratio == b.edge_balance_ratio;
}

namespace {

/// One cell replayed as its layer calls, with each call's wall time.
template <typename App>
struct SplitRun {
  partition::IngestResult ingest;
  partition::IngestMemoryStats memory;
  engine::GasRunResult<App> run;
  /// The simulated outputs as RunExperiment would report them.
  harness::ExperimentResult result;
  uint64_t store_bytes = 0;
  uint64_t plan_bytes = 0;
  double store_build_s = 0;
  double ingest_s = 0;
  double plan_build_s = 0;
  double run_s = 0;
  double wall_s = 0;  ///< the whole replay, layers plus glue

  /// Share of the replay's wall time inside the timed layer calls.
  double LayerCoverage() const {
    return (store_build_s + ingest_s + plan_build_s + run_s) / wall_s;
  }
};

/// Replays RunExperiment(edges, spec) at `threads` host threads through the
/// public layer calls, with the spec-to-options mapping the harness itself
/// uses (harness/experiment_internal.h).
template <typename App>
SplitRun<App> RunSplit(const graph::EdgeList& edges,
                       harness::ExperimentSpec spec, uint32_t threads,
                       App app, uint32_t max_iterations) {
  spec.exec.num_threads = threads;
  SplitRun<App> out;
  const Stopwatch wall;
  sim::Cluster cluster(spec.num_machines, sim::CostModel{});
  const obs::ExecContext exec = harness::internal::ExecFor(spec, nullptr);
  const partition::PartitionContext context =
      harness::internal::PartitionContextFor(edges, spec);
  partition::IngestOptions ingest_options =
      harness::internal::IngestOptionsFor(spec, exec);
  ingest_options.memory_stats = &out.memory;
  if (spec.use_block_ingress) {
    const Stopwatch build;
    graph::EdgeBlockStore::Options store_options;
    if (spec.ingress_block_size_edges != 0) {
      store_options.block_size_edges = spec.ingress_block_size_edges;
    }
    const graph::EdgeBlockStore store =
        graph::EdgeBlockStore::FromEdges(edges, store_options);
    out.store_build_s = build.Seconds();
    out.store_bytes = store.ResidentBytes();
    const Stopwatch ingest;
    std::unique_ptr<partition::Partitioner> partitioner =
        partition::MakePartitioner(spec.strategy, context);
    out.ingest =
        partition::Ingest(store, *partitioner, cluster, ingest_options);
    out.ingest_s = ingest.Seconds();
  } else {
    const Stopwatch ingest;
    out.ingest = partition::IngestWithStrategy(edges, spec.strategy, context,
                                               cluster, ingest_options);
    out.ingest_s = ingest.Seconds();
  }
  {
    const Stopwatch build;
    const engine::ExecutionPlan plan = engine::ExecutionPlan::Build(
        out.ingest.graph, App::kGatherDir, App::kScatterDir,
        /*graphx_counts=*/false, spec.plan_layout);
    out.plan_build_s = build.Seconds();
    out.plan_bytes = plan.AdjacencyBytes();
    engine::RunOptions run_options =
        harness::internal::RunOptionsFor(spec, exec);
    run_options.max_iterations = max_iterations;
    const Stopwatch run;
    out.run = engine::RunGasEngine(spec.engine, plan, cluster, std::move(app),
                                   run_options);
    out.run_s = run.Seconds();
  }
  out.wall_s = wall.Seconds();
  harness::internal::PopulateIngressMetrics(out.ingest.report, &out.result);
  out.result.compute = out.run.stats;
  harness::internal::FinalizeClusterMetrics(cluster, &out.result);
  return out;
}

/// A cell workload: the spec, its input generator, the GAS app the spec's
/// AppKind runs (with the iteration cap harness::internal::RunApp gives
/// it), and the reference check of the app's final states.
template <typename App>
struct CellWorkload {
  harness::ExperimentSpec spec;
  graph::EdgeList (*generate)(uint64_t seed, bool smoke);
  App app;
  uint32_t max_iterations;
  /// Compares the replay's final states with a serial reference oracle.
  bool (*states_match)(const graph::EdgeList& edges,
                       const SplitRun<App>& split, const App& app);
};

template <typename App>
void RunCell(const CellWorkload<App>& w, const RunArgs& args,
             Report& report) {
  const uint32_t threads = MultiThreads();

  // Set-up: input generation, repeated; the last copy is kept.
  std::vector<double> setup;
  graph::EdgeList edges;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    edges = graph::EdgeList();
    const Stopwatch clock;
    edges = w.generate(args.seed, args.smoke);
    setup.push_back(clock.Seconds());
  }
  std::fprintf(stderr, "cell: %u vertices, %llu edges, %u threads\n",
               edges.num_vertices(),
               static_cast<unsigned long long>(edges.num_edges()), threads);

  harness::ExperimentSpec spec = w.spec;
  auto run_cell = [&](uint32_t t) {
    spec.exec.num_threads = t;
    return harness::RunExperiment(edges, spec);
  };

  // Discarded warm-ups at both thread counts; the N-thread result is the
  // baseline every later repetition must reproduce exactly.
  const harness::ExperimentResult baseline = run_cell(threads);
  report.CountOperation();
  report.Check(SameSimulatedResult(run_cell(1), baseline),
               "cell: 1-thread result equals the N-thread result");
  report.CountOperation();

  // The layer replay: same simulated stats as RunExperiment, and final
  // states equal to the serial oracle's.
  const SplitRun<App> split =
      RunSplit(edges, w.spec, threads, w.app, w.max_iterations);
  report.Check(SameSimulatedResult(split.result, baseline),
               "cell: layer replay's simulated stats equal RunExperiment's");
  report.Check(w.states_match(edges, split, w.app),
               "cell: final states equal the serial reference");

  auto verify = [&](const harness::ExperimentResult& result) {
    report.Check(SameSimulatedResult(result, baseline),
                 "cell: repetition equals the baseline result");
  };

  if (!args.trace) {
    const OpTimes times =
        TimeRounds(args.seconds, threads, report, run_cell, verify);
    std::fprintf(stderr, "cell: %zu rounds\n", times.multi.size());
    report.Metric("setup_s", Median(setup));
    report.Metric("op_s", times.MultiMedian());
    report.Metric("op_1t_s", times.SingleMedian());
    return;
  }

  // Traced run. Each round: the layer replay at N threads and at 1, then
  // RunExperiment with the program's TraceRecorder attached and without.
  std::vector<double> store_build, ingest_n, ingest_1, plan_build, run_n,
      run_1, unspanned, traced, untraced;
  const Stopwatch window;
  for (int round = 0; round < 3 || window.Seconds() < args.seconds;
       ++round) {
    for (const uint32_t t : {threads, 1u}) {
      const SplitRun<App> s =
          RunSplit(edges, w.spec, t, w.app, w.max_iterations);
      report.CountOperation();
      report.Check(SameSimulatedResult(s.result, baseline),
                   "cell: layer replay equals the baseline result");
      report.Check(s.LayerCoverage() >= 0.95,
                   "cell: ingest + plan build + engine run cover >= 95% of "
                   "the replay's wall time");
      (t == 1 ? ingest_1 : ingest_n).push_back(s.ingest_s);
      (t == 1 ? run_1 : run_n).push_back(s.run_s);
      if (t != 1) {
        store_build.push_back(s.store_build_s);
        plan_build.push_back(s.plan_build_s);
      }
    }
    {
      obs::TraceRecorder recorder;
      spec.exec.trace = &recorder;
      const Stopwatch clock;
      const harness::ExperimentResult result = run_cell(threads);
      const double wall = clock.Seconds();
      spec.exec.trace = nullptr;
      report.CountOperation();
      verify(result);
      double spanned_us = 0;
      for (const obs::TraceSpan& span : recorder.Snapshot()) {
        if (span.depth == 0) spanned_us += span.wall_dur_us;
      }
      traced.push_back(wall);
      unspanned.push_back(1.0 - spanned_us * 1e-6 / wall);
    }
    const Stopwatch clock;
    const harness::ExperimentResult result = run_cell(threads);
    untraced.push_back(clock.Seconds());
    report.CountOperation();
    verify(result);
  }

  const double num_edges = static_cast<double>(edges.num_edges());
  const engine::RunStats& stats = split.run.stats;
  double active_steps = 0;
  for (const uint64_t active : stats.active_counts) active_steps += active;
  const double run_s = Median(run_n);
  std::fprintf(stderr,
               "cell: layer medians sum to %.4f s; RunExperiment median "
               "%.4f s\n",
               Median(store_build) + Median(ingest_n) + Median(plan_build) +
                   run_s,
               Median(untraced));

  report.Metric("graph.generate_s", Median(setup));
  report.Metric("graph.edges", num_edges);
  if (w.spec.use_block_ingress) {
    report.Metric("graph.store_build_s", Median(store_build));
    report.Metric("graph.store_bytes", static_cast<double>(split.store_bytes));
    report.Metric("partition.ring_peak_bytes",
                  static_cast<double>(split.memory.ring_bytes));
  }
  report.Metric("partition.ingest_s", Median(ingest_n));
  report.Metric("partition.ingest_1t_s", Median(ingest_1));
  report.Metric("partition.ingest_medges_per_s",
                num_edges / Median(ingest_n) / 1e6);
  report.Metric("partition.peak_state_bytes",
                static_cast<double>(split.ingest.report.peak_state_bytes));
  report.Metric("partition.replication_factor",
                split.ingest.report.replication_factor);
  report.Metric("partition.sim_ingress_s",
                split.ingest.report.ingress_seconds);
  report.Metric("engine.plan_build_s", Median(plan_build));
  report.Metric("engine.plan_bytes", static_cast<double>(split.plan_bytes));
  report.Metric("engine.run_s", run_s);
  report.Metric("engine.run_1t_s", Median(run_1));
  report.Metric("engine.supersteps", stats.iterations);
  report.Metric("engine.superstep_ms", run_s * 1e3 / stats.iterations);
  report.Metric("engine.active_vertex_steps", active_steps);
  report.Metric("engine.active_mvps", active_steps / run_s / 1e6);
  report.Metric("engine.sim_compute_s", stats.compute_seconds);
  report.Metric("engine.network_bytes",
                static_cast<double>(stats.network_bytes));
  report.Metric("obs.unspanned_frac", Median(unspanned));
  report.Metric("obs.trace_overhead_frac",
                Median(traced) / Median(untraced) - 1.0);
}

/// PageRank(10), the paper's fixed-iteration configuration.
constexpr uint32_t kPageRankIterations = 10;

/// Side of the square road grid.
constexpr uint32_t kRoadSide = 300;

graph::EdgeList GenerateHeavy(uint64_t seed, bool smoke) {
  return graph::GenerateHeavyTailed(
      {.num_vertices = smoke ? 3000u : 25000u, .seed = seed});
}

/// No random shortcuts: a few hundred of them make the diameter, and with it
/// the SSSP superstep count, swing with the seed; without them SSSP from the
/// centre takes about kRoadSide sparse supersteps on every seed.
graph::EdgeList GenerateRoad(uint64_t seed, bool smoke) {
  const uint32_t side = smoke ? 60 : kRoadSide;
  return graph::GenerateRoadNetwork(
      {.width = side, .height = side, .shortcut_fraction = 0, .seed = seed});
}

bool PageRankMatches(const graph::EdgeList& edges,
                     const SplitRun<apps::PageRankApp>& split,
                     const apps::PageRankApp& app) {
  const std::vector<double> expected =
      apps::ReferencePageRank(edges, app.damping, kPageRankIterations);
  const std::vector<double>& states = split.run.states;
  if (states.size() != expected.size()) return false;
  for (size_t v = 0; v < states.size(); ++v) {
    if (!split.ingest.graph.present[v]) continue;
    if (!(std::abs(states[v] - expected[v]) <= 1e-9)) return false;
  }
  return true;
}

bool SsspMatches(const graph::EdgeList& edges,
                 const SplitRun<apps::SsspApp>& split,
                 const apps::SsspApp& app) {
  return split.run.states ==
         apps::ReferenceSssp(edges, app.source, /*directed=*/false);
}

}  // namespace

void RunCellHeavyHdrf(const RunArgs& args, Report& report) {
  CellWorkload<apps::PageRankApp> w{
      .spec = {.engine = engine::EngineKind::kPowerGraphSync,
               .strategy = partition::StrategyKind::kHdrf,
               .num_machines = 9,
               .app = harness::AppKind::kPageRankFixed,
               .max_iterations = kPageRankIterations,
               .num_loaders = 16,
               .exec = {}},
      .generate = GenerateHeavy,
      .app = apps::PageRankFixed(),
      .max_iterations = kPageRankIterations,
      .states_match = PageRankMatches};
  RunCell(w, args, report);
}

void RunCellRoadStream(const RunArgs& args, Report& report) {
  const uint32_t side = args.smoke ? 60 : kRoadSide;
  apps::SsspApp sssp;
  sssp.source = (side / 2) * side + side / 2;  // the grid's centre
  CellWorkload<apps::SsspApp> w{
      .spec = {.engine = engine::EngineKind::kPowerGraphSync,
               .strategy = partition::StrategyKind::kOblivious,
               .num_machines = 9,
               .app = harness::AppKind::kSssp,
               .sssp_source = sssp.source,
               .use_block_ingress = true,
               .ingress_memory_budget_bytes = 1u << 20,
               .exec = {}},
      .generate = GenerateRoad,
      .app = sssp,
      .max_iterations = 2000,  // harness::internal::RunApp's SSSP cap
      .states_match = SsspMatches};
  RunCell(w, args, report);
}

}  // namespace gdp::e2ebench
