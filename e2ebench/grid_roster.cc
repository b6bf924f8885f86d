// The `grid-roster` workload: harness::RunGrid with one shared
// PartitionCache over every registered strategy x three graph classes
// (road, heavy-tailed, power-law web). Each (strategy, graph) pair gets an
// ingress-only cell plus PageRank(10), WCC and SSSP cells, so the grid
// scheduler, both caches' hit paths and every strategy's ingress kernel
// run. The traced run replays the grid one cell at a time to split it into
// ingress cells (the cache misses) and compute cells (the hits).

#include <algorithm>
#include <bit>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "graph/generators.h"
#include "harness/grid.h"
#include "harness/partition_cache.h"
#include "partition/partitioner.h"
#include "partition/strategy_registry.h"
#include "workloads.h"

namespace gdp::e2ebench {
namespace {

/// The roster: the paper's strategies, the neighbourhood-expansion family,
/// then every other registered strategy. AllStrategies() goes first because
/// it is a query that registers the built-ins; StrategyRegistry::All()
/// alone comes back empty before that.
std::vector<partition::StrategyKind> Roster() {
  std::vector<partition::StrategyKind> roster = partition::AllStrategies();
  auto add = [&roster](partition::StrategyKind kind) {
    if (std::find(roster.begin(), roster.end(), kind) == roster.end()) {
      roster.push_back(kind);
    }
  };
  for (const partition::StrategyKind kind :
       partition::ExpansionFamilyStrategies()) {
    add(kind);
  }
  for (const partition::StrategyInfo* info :
       partition::StrategyRegistry::Instance().All()) {
    add(info->kind);
  }
  return roster;
}

struct Graphs {
  graph::EdgeList road;
  graph::EdgeList heavy;
  graph::EdgeList web;
  std::vector<const graph::EdgeList*> All() const {
    return {&road, &heavy, &web};
  }
};

/// The road graph has no random shortcuts: with only a handful of them its
/// diameter, and with it the SSSP and WCC superstep counts, would swing
/// with the seed.
Graphs Generate(uint64_t seed, bool smoke) {
  Graphs g;
  const uint32_t side = smoke ? 24 : 70;
  g.road = graph::GenerateRoadNetwork(
      {.width = side, .height = side, .shortcut_fraction = 0, .seed = seed});
  g.heavy = graph::GenerateHeavyTailed(
      {.num_vertices = smoke ? 400u : 2500u, .seed = seed + 1});
  g.web = graph::GeneratePowerLawWeb(
      {.num_vertices = smoke ? 1500u : 8000u, .seed = seed + 2});
  return g;
}

/// One ingress-only cell and three compute cells per (graph, strategy), in
/// that order. PDS needs p^2+p+1 machines, so it runs on 13; the rest on 9.
/// Every cell pins its own engine/ingest lanes to 1: the grid runs cells
/// concurrently.
std::vector<harness::GridCell> MakeCells(
    const Graphs& graphs, const std::vector<partition::StrategyKind>& roster) {
  std::vector<harness::GridCell> cells;
  for (const graph::EdgeList* edges : graphs.All()) {
    for (const partition::StrategyKind kind : roster) {
      harness::ExperimentSpec spec;
      spec.engine = engine::EngineKind::kPowerGraphSync;
      spec.strategy = kind;
      spec.num_machines = kind == partition::StrategyKind::kPds ? 13 : 9;
      spec.max_iterations = 10;
      spec.exec.num_threads = 1;
      cells.push_back({edges, spec, /*ingress_only=*/true});
      for (const harness::AppKind app :
           {harness::AppKind::kPageRankFixed, harness::AppKind::kWcc,
            harness::AppKind::kSssp}) {
        spec.app = app;
        cells.push_back({edges, spec, /*ingress_only=*/false});
      }
    }
  }
  return cells;
}

struct GridRun {
  std::unique_ptr<harness::PartitionCache> cache;
  std::vector<harness::ExperimentResult> results;
};

GridRun RunWithFreshCache(const std::vector<harness::GridCell>& cells,
                          uint32_t threads) {
  GridRun run{std::make_unique<harness::PartitionCache>(), {}};
  harness::GridOptions options;
  options.exec.num_threads = threads;
  options.cache = run.cache.get();
  run.results = harness::RunGrid(cells, options);
  return run;
}

/// Recomputes the replication factor of a cached partitioning from its
/// per-edge partitions and masters, after checking that the partitioned
/// edges are the input edges, each placed exactly once. Returns -1 when
/// the placement is malformed.
double RecomputedReplicationFactor(const graph::EdgeList& input,
                                   const partition::DistributedGraph& dg) {
  if (dg.edges.size() != input.num_edges() ||
      dg.edge_partition.size() != dg.edges.size() ||
      dg.master.size() != input.num_vertices() || dg.num_partitions > 64) {
    return -1;
  }
  auto less = [](const graph::Edge& a, const graph::Edge& b) {
    return a.src != b.src ? a.src < b.src : a.dst < b.dst;
  };
  std::vector<graph::Edge> placed = dg.edges;
  std::vector<graph::Edge> expected = input.edges();
  std::sort(placed.begin(), placed.end(), less);
  std::sort(expected.begin(), expected.end(), less);
  if (placed != expected) return -1;

  std::vector<uint64_t> mask(input.num_vertices(), 0);
  for (size_t i = 0; i < dg.edges.size(); ++i) {
    const uint32_t p = dg.edge_partition[i];
    if (p >= dg.num_partitions) return -1;
    mask[dg.edges[i].src] |= uint64_t{1} << p;
    mask[dg.edges[i].dst] |= uint64_t{1} << p;
  }
  uint64_t replicas = 0;
  uint64_t present = 0;
  for (graph::VertexId v = 0; v < input.num_vertices(); ++v) {
    if (mask[v] == 0) continue;
    if (dg.master[v] >= dg.num_partitions) return -1;
    replicas += std::popcount(mask[v] | uint64_t{1} << dg.master[v]);
    ++present;
  }
  return present == 0 ? 0.0 : static_cast<double>(replicas) / present;
}

bool SameResults(const std::vector<harness::ExperimentResult>& a,
                 const std::vector<harness::ExperimentResult>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!SameSimulatedResult(a[i], b[i])) return false;
  }
  return true;
}

}  // namespace

void RunGridRoster(const RunArgs& args, Report& report) {
  const uint32_t threads = MultiThreads();
  const std::vector<partition::StrategyKind> roster = Roster();
  report.Check(roster.size() == 17,
               "grid: the roster holds all 17 registered strategies");

  std::vector<double> setup;
  Graphs graphs;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    graphs = Graphs();
    const Stopwatch clock;
    graphs = Generate(args.seed, args.smoke);
    setup.push_back(clock.Seconds());
  }
  double num_edges = 0;
  for (const graph::EdgeList* edges : graphs.All()) {
    num_edges += static_cast<double>(edges->num_edges());
  }
  const std::vector<harness::GridCell> cells = MakeCells(graphs, roster);
  const uint64_t pairs = roster.size() * graphs.All().size();
  std::fprintf(stderr, "grid: %zu cells, %.0f edges, %u threads\n",
               cells.size(), num_edges, threads);

  auto expect_accounting = [&](const harness::PartitionCache& cache) {
    const obs::CacheStats stats = cache.stats();
    report.Check(stats.misses == pairs && stats.hits == 3 * pairs &&
                     stats.bypasses == 0,
                 "grid: one cache miss per (graph, strategy), hits for the "
                 "three compute cells");
  };

  // Warm-ups; the N-thread results are the baseline. The placements are
  // checked before the 1-thread warm-up, so that only one cache is ever
  // resident and peak_rss_mb measures one grid.
  std::vector<harness::ExperimentResult> baseline;
  {
    const GridRun warm = RunWithFreshCache(cells, threads);
    report.CountOperation();
    expect_accounting(*warm.cache);
    // Replication factors recomputed from the cached placements.
    for (size_t i = 0; i < cells.size(); ++i) {
      if (!cells[i].ingress_only) continue;
      const std::shared_ptr<const harness::PartitionCache::Entry> entry =
          warm.cache->Get(*cells[i].edges, cells[i].spec);
      const double rf =
          RecomputedReplicationFactor(*cells[i].edges, entry->ingest.graph);
      report.Check(rf == warm.results[i].replication_factor,
                   std::string("grid: recomputed replication factor of ") +
                       partition::StrategyName(cells[i].spec.strategy));
    }
    baseline = warm.results;
  }
  report.Check(SameResults(RunWithFreshCache(cells, 1).results, baseline),
               "grid: 1-thread results equal the N-thread results");
  report.CountOperation();

  auto verify = [&](const GridRun& run) {
    expect_accounting(*run.cache);
    report.Check(SameResults(run.results, baseline),
                 "grid: repetition equals the baseline results");
  };

  if (!args.trace) {
    const OpTimes times = TimeRounds(
        args.seconds, threads, report,
        [&](uint32_t t) { return RunWithFreshCache(cells, t); }, verify);
    std::fprintf(stderr, "grid: %zu rounds\n", times.multi.size());
    report.Metric("setup_s", Median(setup));
    report.Metric("op_s", times.MultiMedian());
    report.Metric("op_1t_s", times.SingleMedian());
    return;
  }

  // Traced run: the grid one cell at a time on one thread, ingress-only
  // cells first (each a cache miss), then the compute cells (each a hit).
  std::map<std::string, std::vector<double>> ingest_by_strategy;
  std::vector<double> ingress_cells, compute_cells, slowest;
  obs::CacheStats stats;
  const Stopwatch window;
  for (int round = 0; round < 3 || window.Seconds() < args.seconds;
       ++round) {
    harness::PartitionCache cache;
    harness::GridOptions options;
    options.exec.num_threads = 1;
    options.cache = &cache;
    std::map<std::string, double> ingest_s;
    double ingress_total = 0;
    double compute_total = 0;
    double slowest_cell = 0;
    for (const bool ingress_pass : {true, false}) {
      for (size_t i = 0; i < cells.size(); ++i) {
        if (cells[i].ingress_only != ingress_pass) continue;
        const Stopwatch clock;
        const std::vector<harness::ExperimentResult> result =
            harness::RunGrid({cells[i]}, options);
        const double seconds = clock.Seconds();
        report.CountOperation();
        report.Check(SameSimulatedResult(result.at(0), baseline[i]),
                     "grid: single-cell replay equals the baseline cell");
        slowest_cell = std::max(slowest_cell, seconds);
        if (ingress_pass) {
          ingress_total += seconds;
          ingest_s[partition::StrategyName(cells[i].spec.strategy)] +=
              seconds;
        } else {
          compute_total += seconds;
        }
      }
    }
    expect_accounting(cache);
    stats = cache.stats();
    for (const auto& [name, seconds] : ingest_s) {
      ingest_by_strategy[name].push_back(seconds);
    }
    ingress_cells.push_back(ingress_total);
    compute_cells.push_back(compute_total);
    slowest.push_back(slowest_cell);
  }

  report.Metric("graph.generate_s", Median(setup));
  report.Metric("graph.edges", num_edges);
  for (const auto& [name, seconds] : ingest_by_strategy) {
    report.Metric("partition.ingest_s." + name, Median(seconds));
  }
  report.Metric("harness.cells", static_cast<double>(cells.size()));
  report.Metric("harness.cache_hits", static_cast<double>(stats.hits));
  report.Metric("harness.cache_misses", static_cast<double>(stats.misses));
  report.Metric("harness.ingress_cells_s", Median(ingress_cells));
  report.Metric("harness.compute_cells_s", Median(compute_cells));
  report.Metric("harness.slowest_cell_s", Median(slowest));
}

}  // namespace gdp::e2ebench
