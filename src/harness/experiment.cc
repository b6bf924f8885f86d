#include "harness/experiment.h"

#include "apps/coloring.h"
#include "apps/kcore.h"
#include "apps/label_propagation.h"
#include "apps/msbfs.h"
#include "apps/pagerank.h"
#include "apps/sssp.h"
#include "apps/triangle_count.h"
#include "apps/wcc.h"
#include "engine/async_coloring.h"
#include "harness/experiment_internal.h"
#include "obs/trace.h"
#include "partition/constrained.h"
#include "partition/validate.h"
#include "util/check.h"

namespace gdp::harness {

const char* AppKindName(AppKind app) {
  switch (app) {
    case AppKind::kPageRankFixed:
      return "PageRank(10)";
    case AppKind::kPageRankConvergent:
      return "PageRank(C)";
    case AppKind::kWcc:
      return "WCC";
    case AppKind::kSssp:
      return "SSSP";
    case AppKind::kSsspDirected:
      return "SSSP(dir)";
    case AppKind::kKCore:
      return "K-Core";
    case AppKind::kColoring:
      return "Coloring";
    case AppKind::kTriangles:
      return "Triangles";
    case AppKind::kLabelPropagation:
      return "LabelProp";
    case AppKind::kMsBfs:
      return "MS-BFS";
  }
  return "?";
}

bool IsNaturalApp(AppKind app) {
  switch (app) {
    case AppKind::kPageRankFixed:
    case AppKind::kPageRankConvergent:
    case AppKind::kSsspDirected:
      return true;
    default:
      return false;
  }
}

namespace internal {

partition::PartitionContext PartitionContextFor(const graph::EdgeList& edges,
                                                const ExperimentSpec& spec) {
  partition::PartitionContext context;
  context.num_partitions = spec.num_machines * spec.partitions_per_machine;
  context.num_vertices = edges.num_vertices();
  context.num_loaders =
      spec.num_loaders == 0 ? spec.num_machines : spec.num_loaders;
  context.seed = spec.seed;
  // Budget-aware strategies (SNE, HEP) size their resident state from the
  // same knob that bounds the streaming-ingress working set.
  context.memory_budget_bytes = spec.ingress_memory_budget_bytes;
  return context;
}

obs::ExecContext ExecFor(const ExperimentSpec& spec, sim::Timeline* timeline) {
  obs::ExecContext exec = spec.exec;
  // The cell's timeline is result-owned and selected via record_timeline;
  // it always wins over whatever exec.timeline held.
  exec.timeline = timeline;
  return exec;
}

partition::IngestOptions IngestOptionsFor(const ExperimentSpec& spec,
                                          const obs::ExecContext& exec) {
  partition::IngestOptions options;
  options.num_loaders = spec.num_loaders;
  options.exec = exec;
  options.seed = spec.seed ^ 0x51ed2701;
  options.use_block_store = spec.use_block_ingress;
  options.block_size_edges = spec.ingress_block_size_edges;
  options.memory_budget_bytes = spec.ingress_memory_budget_bytes;
  switch (spec.engine) {
    case engine::EngineKind::kPowerGraphSync:
      options.master_policy = partition::MasterPolicy::kRandomReplica;
      options.use_partitioner_master_preference = false;
      break;
    case engine::EngineKind::kPowerLyraHybrid:
      // PowerLyra homes every vertex at its hash location; hybrid-aware
      // strategies refine that via their master preference.
      options.master_policy = partition::MasterPolicy::kVertexHash;
      options.use_partitioner_master_preference = true;
      break;
    case engine::EngineKind::kGraphXPregel:
      // GraphX hash-partitions the vertex RDD.
      options.master_policy = partition::MasterPolicy::kVertexHash;
      options.use_partitioner_master_preference = false;
      break;
  }
  return options;
}

engine::RunOptions RunOptionsFor(const ExperimentSpec& spec,
                                 const obs::ExecContext& exec) {
  engine::RunOptions options;
  options.max_iterations = spec.max_iterations;
  options.exec = exec;
  if (spec.engine == engine::EngineKind::kGraphXPregel) {
    // Dataflow/JVM overhead: GraphX computation is markedly slower per
    // edge-op than the C++ systems (§7.4 observes compute >> partitioning).
    options.work_multiplier = 4.0;
  }
  return options;
}

void PopulateIngressMetrics(const partition::IngressReport& report,
                            ExperimentResult* out) {
  out->ingress = report;
  out->replication_factor = report.replication_factor;
  out->edge_balance_ratio = report.edge_balance_ratio;
}

void FinalizeClusterMetrics(const sim::Cluster& cluster,
                            ExperimentResult* out) {
  out->total_seconds = cluster.now_seconds();
  out->mean_peak_memory_bytes = cluster.MeanPeakMemoryBytes();
  out->max_peak_memory_bytes = cluster.MaxPeakMemoryBytes();
  out->cpu_utilizations = cluster.CpuUtilizations();
}

namespace {

/// Builds a fresh execution plan inside a "plan build" span on the cell's
/// trace. The build costs host time only — no simulated time passes — so
/// the span opens and closes at the cluster's current simulated clock. Its
/// category is "plan", not "engine": a cached plan has no build, and the
/// engine-category spans of cached and fresh cells stay identical.
engine::ExecutionPlan BuildPlan(const ExperimentSpec& spec,
                                const partition::DistributedGraph& dg,
                                engine::EdgeDirection gather_dir,
                                engine::EdgeDirection scatter_dir,
                                const sim::Cluster& cluster,
                                const obs::ExecContext& exec) {
  obs::ScopedSpan span(exec.trace, exec.trace_track, "plan build", "plan",
                       cluster.now_seconds());
  return engine::ExecutionPlan::Build(
      dg, gather_dir, scatter_dir,
      spec.engine == engine::EngineKind::kGraphXPregel, spec.plan_layout);
}

/// Runs one GAS application, on a cached plan when `plans` is provided and
/// on a freshly built one otherwise. The two paths are bit-identical: a
/// plan is a pure function of (dg, directions, graphx flag, layout), and
/// the direction pair is pinned by the App type.
template <typename App>
engine::GasRunResult<App> RunGas(const ExperimentSpec& spec,
                                 const partition::DistributedGraph& dg,
                                 engine::PlanCache* plans,
                                 sim::Cluster& cluster, App app,
                                 const engine::RunOptions& options) {
  const bool graphx = spec.engine == engine::EngineKind::kGraphXPregel;
  if (plans != nullptr) {
    const std::shared_ptr<const engine::ExecutionPlan> plan = plans->Get(
        App::kGatherDir, App::kScatterDir, graphx, spec.plan_layout);
    return engine::RunGasEngine(spec.engine, *plan, cluster, std::move(app),
                                options);
  }
  const engine::ExecutionPlan plan = BuildPlan(
      spec, dg, App::kGatherDir, App::kScatterDir, cluster, options.exec);
  return engine::RunGasEngine(spec.engine, plan, cluster, std::move(app),
                              options);
}

}  // namespace

void RunApp(const ExperimentSpec& spec,
            const partition::DistributedGraph& dg, engine::PlanCache* plans,
            sim::Cluster& cluster, const engine::RunOptions& run_options,
            ExperimentResult* out) {
  const bool graphx = spec.engine == engine::EngineKind::kGraphXPregel;
  switch (spec.app) {
    case AppKind::kPageRankFixed: {
      auto r = RunGas(spec, dg, plans, cluster, apps::PageRankFixed(),
                      run_options);
      out->compute = r.stats;
      break;
    }
    case AppKind::kPageRankConvergent: {
      engine::RunOptions opts = run_options;
      opts.max_iterations = std::max(opts.max_iterations, 500u);
      auto r = RunGas(spec, dg, plans, cluster,
                      apps::PageRankConvergent(spec.pagerank_tolerance), opts);
      out->compute = r.stats;
      break;
    }
    case AppKind::kWcc: {
      engine::RunOptions opts = run_options;
      opts.max_iterations = std::max(opts.max_iterations, 1000u);
      auto r = RunGas(spec, dg, plans, cluster, apps::WccApp{}, opts);
      out->compute = r.stats;
      break;
    }
    case AppKind::kSssp: {
      engine::RunOptions opts = run_options;
      opts.max_iterations = std::max(opts.max_iterations, 2000u);
      apps::SsspApp app;
      app.source = spec.sssp_source;
      auto r = RunGas(spec, dg, plans, cluster, app, opts);
      out->compute = r.stats;
      break;
    }
    case AppKind::kSsspDirected: {
      engine::RunOptions opts = run_options;
      opts.max_iterations = std::max(opts.max_iterations, 2000u);
      apps::DirectedSsspApp app;
      app.source = spec.sssp_source;
      auto r = RunGas(spec, dg, plans, cluster, app, opts);
      out->compute = r.stats;
      break;
    }
    case AppKind::kKCore: {
      engine::RunOptions opts = run_options;
      opts.max_iterations = std::max(opts.max_iterations, 1000u);
      apps::KCoreResult r = [&] {
        if (plans != nullptr) {
          const std::shared_ptr<const engine::ExecutionPlan> plan =
              plans->Get(apps::KCoreApp::kGatherDir,
                         apps::KCoreApp::kScatterDir, graphx,
                         spec.plan_layout);
          return apps::KCoreDecompose(spec.engine, *plan, cluster,
                                      spec.kcore_kmin, spec.kcore_kmax, opts);
        }
        const engine::ExecutionPlan plan =
            BuildPlan(spec, dg, apps::KCoreApp::kGatherDir,
                      apps::KCoreApp::kScatterDir, cluster, opts.exec);
        return apps::KCoreDecompose(spec.engine, plan, cluster,
                                    spec.kcore_kmin, spec.kcore_kmax, opts);
      }();
      out->compute = r.stats;
      break;
    }
    case AppKind::kColoring: {
      engine::RunOptions opts = run_options;
      opts.max_iterations = std::max(opts.max_iterations, 1000u);
      if (graphx) {
        auto r = RunGas(spec, dg, plans, cluster, apps::ColoringApp{}, opts);
        out->compute = r.stats;
      } else {
        // PowerGraph/PowerLyra run Simple Coloring on the async engine
        // (§5.3).
        engine::AsyncColoringResult r =
            engine::RunAsyncColoring(dg, cluster, opts);
        out->compute = r.stats;
      }
      break;
    }
    case AppKind::kTriangles: {
      apps::TriangleCountResult r = [&] {
        if (plans != nullptr) {
          const std::shared_ptr<const engine::ExecutionPlan> plan =
              plans->Get(apps::NeighborListApp::kGatherDir,
                         apps::NeighborListApp::kScatterDir, graphx,
                         spec.plan_layout);
          return apps::CountTriangles(spec.engine, *plan, cluster,
                                      run_options);
        }
        const engine::ExecutionPlan plan = BuildPlan(
            spec, dg, apps::NeighborListApp::kGatherDir,
            apps::NeighborListApp::kScatterDir, cluster, run_options.exec);
        return apps::CountTriangles(spec.engine, plan, cluster, run_options);
      }();
      out->compute = r.stats;
      break;
    }
    case AppKind::kLabelPropagation: {
      engine::RunOptions opts = run_options;
      opts.max_iterations = std::min(opts.max_iterations, 50u);  // may cycle
      auto r = RunGas(spec, dg, plans, cluster, apps::LabelPropagationApp{},
                      opts);
      out->compute = r.stats;
      break;
    }
    case AppKind::kMsBfs: {
      engine::RunOptions opts = run_options;
      opts.max_iterations = std::max(opts.max_iterations, 2000u);
      apps::MsBfsApp app;
      for (graph::VertexId i = 0; i < 64 && i < dg.num_vertices; ++i) {
        app.sources.push_back(
            (spec.sssp_source + i * 97) % dg.num_vertices);
      }
      auto r = RunGas(spec, dg, plans, cluster, app, opts);
      out->compute = r.stats;
      break;
    }
  }
}

}  // namespace internal

namespace {

/// The shared end-to-end cell runner: ingress always, compute unless
/// `ingress_only`. RunExperiment and RunIngressOnly are thin wrappers.
ExperimentResult RunCell(const graph::EdgeList& edges,
                         const ExperimentSpec& spec, bool ingress_only) {
  GDP_CHECK_GT(spec.num_machines, 0u);
  sim::Cluster cluster(spec.num_machines, sim::CostModel{});
  ExperimentResult result;
  sim::Timeline* timeline = spec.record_timeline ? &result.timeline : nullptr;
  const obs::ExecContext exec = internal::ExecFor(spec, timeline);

  partition::IngestResult ingest = partition::IngestWithStrategy(
      edges, spec.strategy, internal::PartitionContextFor(edges, spec),
      cluster, internal::IngestOptionsFor(spec, exec));
  GDP_DCHECK_OK(partition::ValidateDistributedGraph(ingest.graph));
  internal::PopulateIngressMetrics(ingest.report, &result);

  if (!ingress_only) {
    internal::RunApp(spec, ingest.graph, /*plans=*/nullptr, cluster,
                     internal::RunOptionsFor(spec, exec), &result);
    if (timeline != nullptr) timeline->Mark(cluster, "compute-end");
  }

  internal::FinalizeClusterMetrics(cluster, &result);
  return result;
}

}  // namespace

util::Status ValidateExperimentSpec(const ExperimentSpec& spec) {
  if (spec.num_machines == 0 || spec.partitions_per_machine == 0) {
    return util::Status::InvalidArgument(
        "machines and partitions per machine must be > 0");
  }
  if (spec.num_machines > engine::kMaxMachines) {
    return util::Status::InvalidArgument(
        "at most " + std::to_string(engine::kMaxMachines) +
        " machines are supported; got " + std::to_string(spec.num_machines));
  }
  const uint32_t partitions = spec.num_machines * spec.partitions_per_machine;
  if (spec.strategy == partition::StrategyKind::kPds &&
      !partition::PdsPartitioner::IsPdsMachineCount(partitions, nullptr)) {
    return util::Status::InvalidArgument(
        "PDS requires p^2 + p + 1 partitions for a prime p; got " +
        std::to_string(partitions));
  }
  return util::Status::Ok();
}

ExperimentResult RunExperiment(const graph::EdgeList& edges,
                               const ExperimentSpec& spec) {
  return RunCell(edges, spec, /*ingress_only=*/false);
}

ExperimentResult RunIngressOnly(const graph::EdgeList& edges,
                                const ExperimentSpec& spec) {
  return RunCell(edges, spec, /*ingress_only=*/true);
}

}  // namespace gdp::harness
