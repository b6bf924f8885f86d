// The parallel engine's core contract: final states AND every simulated
// cost (RunStats, per-machine byte/time accounting) are bit-identical to
// the preserved serial engine (reference_engine.h) at every thread count.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "apps/kcore.h"
#include "apps/pagerank.h"
#include "apps/sssp.h"
#include "apps/wcc.h"
#include "engine/gas_engine.h"
#include "engine/plan.h"
#include "engine/reference_engine.h"
#include "graph/generators.h"
#include "partition/ingest.h"
#include "sim/cluster.h"

namespace gdp::engine {
namespace {

using partition::IngestOptions;
using partition::IngestResult;
using partition::IngestWithStrategy;
using partition::PartitionContext;
using partition::StrategyKind;

constexpr uint32_t kMachines = 9;
constexpr uint32_t kThreadCounts[] = {1, 2, 8};

IngestResult Partition(const graph::EdgeList& edges, sim::Cluster& cluster) {
  PartitionContext context;
  context.num_partitions = kMachines;
  context.num_vertices = edges.num_vertices();
  context.num_loaders = kMachines;
  context.seed = 3;
  return IngestWithStrategy(edges, StrategyKind::kHdrf, context, cluster,
                            IngestOptions{});
}

graph::EdgeList PowerLawGraph() {
  return graph::GeneratePowerLawWeb({.num_vertices = 700, .seed = 11});
}

graph::EdgeList GridGraph() {
  return graph::GenerateRoadNetwork(
      {.width = 24, .height = 24, .drop_fraction = 0.2, .seed = 12});
}

void ExpectStatsIdentical(const RunStats& got, const RunStats& want) {
  EXPECT_EQ(got.iterations, want.iterations);
  EXPECT_EQ(got.converged, want.converged);
  // Doubles compared with == on purpose: the contract is bit-identity, not
  // tolerance.
  EXPECT_EQ(got.compute_seconds, want.compute_seconds);
  EXPECT_EQ(got.network_bytes, want.network_bytes);
  EXPECT_EQ(got.mean_inbound_bytes_per_machine,
            want.mean_inbound_bytes_per_machine);
  ASSERT_EQ(got.cumulative_seconds.size(), want.cumulative_seconds.size());
  for (size_t i = 0; i < want.cumulative_seconds.size(); ++i) {
    EXPECT_EQ(got.cumulative_seconds[i], want.cumulative_seconds[i])
        << "superstep " << i;
  }
  ASSERT_EQ(got.active_counts.size(), want.active_counts.size());
  for (size_t i = 0; i < want.active_counts.size(); ++i) {
    EXPECT_EQ(got.active_counts[i], want.active_counts[i])
        << "superstep " << i;
  }
}

void ExpectClustersIdentical(const sim::Cluster& got,
                             const sim::Cluster& want) {
  ASSERT_EQ(got.num_machines(), want.num_machines());
  for (uint32_t m = 0; m < want.num_machines(); ++m) {
    EXPECT_EQ(got.machine(m).busy_seconds(), want.machine(m).busy_seconds())
        << "machine " << m;
    EXPECT_EQ(got.machine(m).bytes_sent(), want.machine(m).bytes_sent())
        << "machine " << m;
    EXPECT_EQ(got.machine(m).bytes_received(),
              want.machine(m).bytes_received())
        << "machine " << m;
  }
  EXPECT_EQ(got.now_seconds(), want.now_seconds());
}

/// Runs `app` through the serial reference engine once, then through the
/// parallel engine at 1/2/8 threads, demanding bit-identical states, stats,
/// and per-machine cluster accounting each time.
template <typename App>
void ExpectBitIdenticalAcrossThreads(EngineKind kind,
                                     const graph::EdgeList& edges, App app,
                                     RunOptions options) {
  sim::Cluster ref_cluster(kMachines, sim::CostModel{});
  IngestResult ref_ingest = Partition(edges, ref_cluster);
  auto ref = RunGasEngineReference(kind, ref_ingest.graph, ref_cluster, app,
                                   options);

  for (uint32_t threads : kThreadCounts) {
    SCOPED_TRACE(std::string(EngineKindName(kind)) + " threads=" +
                 std::to_string(threads));
    sim::Cluster cluster(kMachines, sim::CostModel{});
    IngestResult ingest = Partition(edges, cluster);
    RunOptions run_options = options;
    run_options.exec.num_threads = threads;
    auto got = RunGasEngine(kind, ingest.graph, cluster, app, run_options);

    ASSERT_EQ(got.states.size(), ref.states.size());
    for (graph::VertexId v = 0; v < edges.num_vertices(); ++v) {
      ASSERT_EQ(got.states[v], ref.states[v]) << "vertex " << v;
    }
    ExpectStatsIdentical(got.stats, ref.stats);
    ExpectClustersIdentical(cluster, ref_cluster);
  }
}

class EngineDeterminismTest : public ::testing::TestWithParam<EngineKind> {};

TEST_P(EngineDeterminismTest, PageRankPowerLaw) {
  RunOptions options;
  options.max_iterations = 12;
  ExpectBitIdenticalAcrossThreads(GetParam(), PowerLawGraph(),
                                  apps::PageRankFixed(), options);
}

TEST_P(EngineDeterminismTest, PageRankGrid) {
  RunOptions options;
  options.max_iterations = 8;
  ExpectBitIdenticalAcrossThreads(GetParam(), GridGraph(),
                                  apps::PageRankFixed(), options);
}

TEST_P(EngineDeterminismTest, PageRankConvergentPowerLaw) {
  RunOptions options;
  options.max_iterations = 200;
  ExpectBitIdenticalAcrossThreads(GetParam(), PowerLawGraph(),
                                  apps::PageRankConvergent(1e-3), options);
}

TEST_P(EngineDeterminismTest, SsspPowerLaw) {
  apps::SsspApp app;
  app.source = 5;
  RunOptions options;
  options.max_iterations = 5000;
  ExpectBitIdenticalAcrossThreads(GetParam(), PowerLawGraph(), app, options);
}

TEST_P(EngineDeterminismTest, SsspGrid) {
  // Grid SSSP has a long sparse-frontier phase — the case the frontier
  // switch accelerates, and the easiest one to get subtly wrong.
  apps::SsspApp app;
  app.source = 1;
  RunOptions options;
  options.max_iterations = 5000;
  ExpectBitIdenticalAcrossThreads(GetParam(), GridGraph(), app, options);
}

TEST_P(EngineDeterminismTest, WccPowerLaw) {
  RunOptions options;
  options.max_iterations = 5000;
  ExpectBitIdenticalAcrossThreads(GetParam(), PowerLawGraph(),
                                  apps::WccApp{}, options);
}

TEST_P(EngineDeterminismTest, WccGrid) {
  RunOptions options;
  options.max_iterations = 5000;
  ExpectBitIdenticalAcrossThreads(GetParam(), GridGraph(), apps::WccApp{},
                                  options);
}

TEST_P(EngineDeterminismTest, PageRankDyadicWorkMultiplier) {
  // work_multiplier 4.0 keeps the closed-form fast accounting path exact.
  RunOptions options;
  options.max_iterations = 10;
  options.work_multiplier = 4.0;
  ExpectBitIdenticalAcrossThreads(GetParam(), PowerLawGraph(),
                                  apps::PageRankFixed(), options);
}

TEST_P(EngineDeterminismTest, PageRankNonDyadicWorkMultiplier) {
  // 0.3 has a wide mantissa, forcing the serial-replay accounting mode —
  // results must STILL be bit-identical to the reference.
  RunOptions options;
  options.max_iterations = 10;
  options.work_multiplier = 0.3;
  ExpectBitIdenticalAcrossThreads(GetParam(), PowerLawGraph(),
                                  apps::PageRankFixed(), options);
}

TEST_P(EngineDeterminismTest, LayoutMatrix) {
  // Both plan layouts against one serial-reference run at every thread
  // count. Everything must agree bit-for-bit — states, RunStats, and
  // per-machine cluster accounting.
  const EngineKind kind = GetParam();
  const bool graphx = kind == EngineKind::kGraphXPregel;
  graph::EdgeList edges = PowerLawGraph();
  RunOptions options;
  options.max_iterations = 8;
  apps::PageRankApp app = apps::PageRankFixed();

  sim::Cluster ref_cluster(kMachines, sim::CostModel{});
  IngestResult ref_ingest = Partition(edges, ref_cluster);
  auto ref =
      RunGasEngineReference(kind, ref_ingest.graph, ref_cluster, app, options);

  for (PlanLayout layout :
       {PlanLayout::kUncompressed, PlanLayout::kCompressed}) {
    sim::Cluster cluster(kMachines, sim::CostModel{});
    IngestResult ingest = Partition(edges, cluster);
    const sim::ClusterSnapshot ingested = cluster.Snapshot();
    const ExecutionPlan plan = ExecutionPlan::Build(
        ingest.graph, apps::PageRankApp::kGatherDir,
        apps::PageRankApp::kScatterDir, graphx, layout);
    for (uint32_t threads : kThreadCounts) {
      SCOPED_TRACE(std::string(PlanLayoutName(layout)) +
                   " threads=" + std::to_string(threads));
      cluster.Restore(ingested);
      RunOptions run_options = options;
      run_options.exec.num_threads = threads;
      auto got = RunGasEngine(kind, plan, cluster, app, run_options);
      ASSERT_EQ(got.states, ref.states);
      ExpectStatsIdentical(got.stats, ref.stats);
      ExpectClustersIdentical(cluster, ref_cluster);
    }
  }
}

TEST_P(EngineDeterminismTest, SsspGridCompressedLayout) {
  // Sparse-frontier coverage for the compressed decode path: grid SSSP
  // spends most supersteps on list frontiers, where gather/scatter walk
  // individual vertices' blocks rather than dense sweeps.
  const EngineKind kind = GetParam();
  const bool graphx = kind == EngineKind::kGraphXPregel;
  graph::EdgeList edges = GridGraph();
  apps::SsspApp app;
  app.source = 1;
  RunOptions options;
  options.max_iterations = 5000;

  sim::Cluster ref_cluster(kMachines, sim::CostModel{});
  IngestResult ref_ingest = Partition(edges, ref_cluster);
  auto ref =
      RunGasEngineReference(kind, ref_ingest.graph, ref_cluster, app, options);

  sim::Cluster cluster(kMachines, sim::CostModel{});
  IngestResult ingest = Partition(edges, cluster);
  const sim::ClusterSnapshot ingested = cluster.Snapshot();
  const ExecutionPlan plan = ExecutionPlan::Build(
      ingest.graph, apps::SsspApp::kGatherDir, apps::SsspApp::kScatterDir,
      graphx, PlanLayout::kCompressed);
  for (uint32_t threads : kThreadCounts) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    cluster.Restore(ingested);
    RunOptions run_options = options;
    run_options.exec.num_threads = threads;
    auto got = RunGasEngine(kind, plan, cluster, app, run_options);
    ASSERT_EQ(got.states, ref.states);
    ExpectStatsIdentical(got.stats, ref.stats);
    ExpectClustersIdentical(cluster, ref_cluster);
  }
}

INSTANTIATE_TEST_SUITE_P(AllEngines, EngineDeterminismTest,
                         ::testing::Values(EngineKind::kPowerGraphSync,
                                           EngineKind::kPowerLyraHybrid,
                                           EngineKind::kGraphXPregel),
                         [](const ::testing::TestParamInfo<EngineKind>& i) {
                           return EngineKindName(i.param);
                         });

// ---------------------------------------------------------------------------
// K-Core decomposition (a multi-run driver that threads RunOptions through
// every stage) is thread-count invariant end to end.
// ---------------------------------------------------------------------------

TEST(KCoreDeterminismTest, DecomposeIdenticalAcrossThreadCounts) {
  for (bool power_law : {true, false}) {
    SCOPED_TRACE(power_law ? "power-law" : "grid");
    graph::EdgeList edges = power_law ? PowerLawGraph() : GridGraph();

    apps::KCoreResult baseline;
    sim::Cluster baseline_cluster(kMachines, sim::CostModel{});
    {
      IngestResult ingest = Partition(edges, baseline_cluster);
      RunOptions options;
      options.exec.num_threads = 1;
      baseline = apps::KCoreDecompose(EngineKind::kPowerGraphSync,
                                      ingest.graph, baseline_cluster, 2, 6,
                                      options);
    }

    for (uint32_t threads : {2u, 8u}) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      sim::Cluster cluster(kMachines, sim::CostModel{});
      IngestResult ingest = Partition(edges, cluster);
      RunOptions options;
      options.exec.num_threads = threads;
      apps::KCoreResult got = apps::KCoreDecompose(
          EngineKind::kPowerGraphSync, ingest.graph, cluster, 2, 6, options);

      ASSERT_EQ(got.core_number, baseline.core_number);
      ASSERT_EQ(got.core_sizes, baseline.core_sizes);
      ExpectStatsIdentical(got.stats, baseline.stats);
      ExpectClustersIdentical(cluster, baseline_cluster);
    }
  }
}

// ---------------------------------------------------------------------------
// The prebuilt-plan overload is equivalent to the build-internally one, and
// one plan can back many runs.
// ---------------------------------------------------------------------------

TEST(ExecutionPlanTest, PrebuiltPlanMatchesInternalBuild) {
  graph::EdgeList edges = PowerLawGraph();
  sim::Cluster cluster_a(kMachines, sim::CostModel{});
  IngestResult ingest_a = Partition(edges, cluster_a);
  sim::Cluster cluster_b(kMachines, sim::CostModel{});
  IngestResult ingest_b = Partition(edges, cluster_b);

  RunOptions options;
  options.max_iterations = 8;
  options.exec.num_threads = 2;
  apps::PageRankApp app = apps::PageRankFixed();

  auto internal_build = RunGasEngine(EngineKind::kPowerGraphSync,
                                     ingest_a.graph, cluster_a, app, options);

  const ExecutionPlan plan = ExecutionPlan::Build(
      ingest_b.graph, apps::PageRankApp::kGatherDir,
      apps::PageRankApp::kScatterDir, /*graphx_counts=*/false);
  auto prebuilt = RunGasEngine(EngineKind::kPowerGraphSync, plan, cluster_b,
                               app, options);
  auto prebuilt_again = RunGasEngine(EngineKind::kPowerGraphSync, plan,
                                     cluster_b, app, options);

  ASSERT_EQ(prebuilt.states, internal_build.states);
  ExpectStatsIdentical(prebuilt.stats, internal_build.stats);
  // Same plan, second run: same answer again (plans are immutable).
  ASSERT_EQ(prebuilt_again.states, internal_build.states);
}

TEST(ExecutionPlanTest, DegreeAccessorsMatchEdgeList) {
  graph::EdgeList edges = GridGraph();
  sim::Cluster cluster(kMachines, sim::CostModel{});
  IngestResult ingest = Partition(edges, cluster);
  ASSERT_TRUE(ingest.graph.HasDegreeCache());

  const ExecutionPlan plan =
      ExecutionPlan::Build(ingest.graph, EdgeDirection::kIn,
                           EdgeDirection::kOut, /*graphx_counts=*/false);
  // With a cache present the plan must borrow it, not copy.
  EXPECT_EQ(plan.out_degrees().data(), ingest.graph.out_degree.data());
  EXPECT_EQ(plan.in_degrees().data(), ingest.graph.in_degree.data());

  // Without a cache the plan computes its own, with identical contents.
  partition::DistributedGraph stripped = ingest.graph;
  stripped.out_degree.clear();
  stripped.in_degree.clear();
  const ExecutionPlan fallback =
      ExecutionPlan::Build(stripped, EdgeDirection::kIn, EdgeDirection::kOut,
                           /*graphx_counts=*/false);
  EXPECT_EQ(fallback.out_degrees(), ingest.graph.out_degree);
  EXPECT_EQ(fallback.in_degrees(), ingest.graph.in_degree);
}

TEST(ExecutionPlanTest, CompressedLayoutDecodesIdenticalAdjacency) {
  graph::EdgeList edges = PowerLawGraph();
  sim::Cluster cluster(kMachines, sim::CostModel{});
  IngestResult ingest = Partition(edges, cluster);

  const ExecutionPlan plain =
      ExecutionPlan::Build(ingest.graph, EdgeDirection::kIn,
                           EdgeDirection::kOut, /*graphx_counts=*/false);
  const ExecutionPlan packed = ExecutionPlan::Build(
      ingest.graph, EdgeDirection::kIn, EdgeDirection::kOut,
      /*graphx_counts=*/false, PlanLayout::kCompressed);

  // Same offsets, and the blocks decode to the exact entry sequence the
  // uncompressed CSR stores (original edge order — the gather determinism
  // contract), for every vertex on both sides.
  ASSERT_EQ(packed.gather_offsets, plain.gather_offsets);
  ASSERT_EQ(packed.scatter_offsets, plain.scatter_offsets);
  for (graph::VertexId v = 0; v < edges.num_vertices(); ++v) {
    internal::CompressedBlockCursor gather_cur(
        packed.gather_blob, packed.gather_block_bits[v],
        packed.gather_block_width[v], v);
    for (uint64_t s = plain.gather_offsets[v]; s < plain.gather_offsets[v + 1];
         ++s) {
      ASSERT_EQ(gather_cur.Next(), plain.gather_nbr[s]) << "gather v=" << v;
    }
    internal::CompressedBlockCursor scatter_cur(
        packed.scatter_blob, packed.scatter_block_bits[v],
        packed.scatter_block_width[v], v);
    for (uint64_t s = plain.scatter_offsets[v];
         s < plain.scatter_offsets[v + 1]; ++s) {
      ASSERT_EQ(scatter_cur.Next(), plain.scatter_target[s])
          << "scatter v=" << v;
    }
  }

  // Run tables are layout-independent; the CSR arrays are dropped and the
  // block representation is strictly smaller.
  EXPECT_EQ(packed.gather_run_offsets, plain.gather_run_offsets);
  EXPECT_EQ(packed.gather_runs, plain.gather_runs);
  EXPECT_EQ(packed.scatter_run_offsets, plain.scatter_run_offsets);
  EXPECT_EQ(packed.scatter_runs, plain.scatter_runs);
  EXPECT_TRUE(packed.gather_nbr.empty());
  EXPECT_TRUE(packed.scatter_target.empty());
  EXPECT_LT(packed.AdjacencyBytes(), plain.AdjacencyBytes());
}

/// Checks one side's (machine, count) run tables against a recount made
/// straight from the partitioned edges: center v is charged once on
/// edge_partition[i] % num_machines for each in-direction entry (v is the
/// edge's dst) and each out-direction entry (v is its src), so a self-loop
/// counts twice under kBoth.
void ExpectRunsMatchEdgeRecount(const partition::DistributedGraph& dg,
                                EdgeDirection dir,
                                const std::vector<uint64_t>& offsets,
                                const std::vector<uint64_t>& run_offsets,
                                const std::vector<uint32_t>& runs) {
  const graph::VertexId n = dg.num_vertices;
  std::vector<std::vector<uint64_t>> counts(
      n, std::vector<uint64_t>(dg.num_machines, 0));
  for (uint64_t i = 0; i < dg.edges.size(); ++i) {
    const uint32_t m = dg.edge_partition[i] % dg.num_machines;
    if (IncludesIn(dir)) ++counts[dg.edges[i].dst][m];
    if (IncludesOut(dir)) ++counts[dg.edges[i].src][m];
  }
  for (graph::VertexId v = 0; v < n; ++v) {
    uint64_t total = 0;
    uint32_t prev_machine = 0;
    bool first = true;
    for (uint64_t r = run_offsets[v]; r < run_offsets[v + 1]; ++r) {
      const uint8_t m = ExecutionPlan::RunMachine(runs[r]);
      const uint32_t c = ExecutionPlan::RunCount(runs[r]);
      // Runs are distinct machines in ascending order, never empty.
      ASSERT_TRUE(first || m > prev_machine) << "v=" << v;
      first = false;
      prev_machine = m;
      ASSERT_GT(c, 0u) << "v=" << v;
      ASSERT_LT(m, dg.num_machines) << "v=" << v;
      ASSERT_EQ(c, counts[v][m]) << "v=" << v << " machine=" << int{m};
      total += c;
    }
    uint64_t want = 0;
    for (uint64_t c : counts[v]) want += c;
    ASSERT_EQ(total, want) << "v=" << v;
    ASSERT_EQ(offsets[v + 1] - offsets[v], want) << "v=" << v;
  }
}

TEST(ExecutionPlanTest, AccountingRunsMatchPerEntryMachineCounts) {
  graph::EdgeList edges = PowerLawGraph();
  sim::Cluster cluster(kMachines, sim::CostModel{});
  IngestResult ingest = Partition(edges, cluster);
  const ExecutionPlan plan =
      ExecutionPlan::Build(ingest.graph, EdgeDirection::kIn,
                           EdgeDirection::kOut, /*graphx_counts=*/false);
  ExpectRunsMatchEdgeRecount(ingest.graph, EdgeDirection::kIn,
                             plan.gather_offsets, plan.gather_run_offsets,
                             plan.gather_runs);
  ExpectRunsMatchEdgeRecount(ingest.graph, EdgeDirection::kOut,
                             plan.scatter_offsets, plan.scatter_run_offsets,
                             plan.scatter_runs);
}

TEST(ExecutionPlanTest, RunTablesAndBytesForEveryDirectionPair) {
  // A hand-placed graph with a self-loop (3 -> 3), a repeated edge, and an
  // isolated vertex (5). Four partitions fold onto three machines, so
  // partition 3 shares machine 0 with partition 0.
  partition::DistributedGraph dg;
  dg.num_partitions = 4;
  dg.num_machines = 3;
  dg.num_vertices = 6;
  dg.edges = {{0, 1}, {1, 2}, {2, 0}, {3, 3}, {0, 3}, {4, 0}, {0, 1}, {2, 4}};
  dg.edge_partition = {0, 1, 2, 3, 0, 2, 3, 1};
  dg.replicas = partition::ReplicaTable(6, 4);
  dg.in_edge_partitions = partition::ReplicaTable(6, 4);
  dg.out_edge_partitions = partition::ReplicaTable(6, 4);
  for (size_t i = 0; i < dg.edges.size(); ++i) {
    const graph::Edge& e = dg.edges[i];
    dg.replicas.Add(e.src, dg.edge_partition[i]);
    dg.replicas.Add(e.dst, dg.edge_partition[i]);
    dg.out_edge_partitions.Add(e.src, dg.edge_partition[i]);
    dg.in_edge_partitions.Add(e.dst, dg.edge_partition[i]);
  }
  dg.master = {0, 1, 2, 3, 2, partition::ReplicaTable::kInvalid};
  dg.present = {true, true, true, true, true, false};
  dg.num_present_vertices = 5;
  dg.partition_edge_count = {2, 2, 2, 2};

  constexpr EdgeDirection kDirs[] = {EdgeDirection::kIn, EdgeDirection::kOut,
                                     EdgeDirection::kBoth};
  for (EdgeDirection gather : kDirs) {
    for (EdgeDirection scatter : kDirs) {
      SCOPED_TRACE("gather=" + std::to_string(static_cast<int>(gather)) +
                   " scatter=" + std::to_string(static_cast<int>(scatter)));
      const ExecutionPlan plan =
          ExecutionPlan::Build(dg, gather, scatter, /*graphx_counts=*/false);
      ExpectRunsMatchEdgeRecount(dg, gather, plan.gather_offsets,
                                 plan.gather_run_offsets, plan.gather_runs);
      ExpectRunsMatchEdgeRecount(dg, scatter, plan.scatter_offsets,
                                 plan.scatter_run_offsets,
                                 plan.scatter_runs);
      // The uncompressed layout holds one 4-byte neighbor id per entry and
      // nothing else.
      EXPECT_EQ(plan.AdjacencyBytes(),
                4 * (plan.gather_offsets.back() +
                     plan.scatter_offsets.back()));
    }
  }
}

}  // namespace
}  // namespace gdp::engine
