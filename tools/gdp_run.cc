// gdp-run: run a graph application over an edge list on the simulated
// cluster, either partitioning on the fly or reusing a saved placement
// from gdp-partition (the paper's §5.4.3 reuse workflow — note how the
// ingress line vanishes when a placement is supplied).
//
//   gdp-run <edge-list> <app> <engine> <strategy|@placement> <machines>
//
// Apps: pagerank, pagerank-conv, wcc, sssp, kcore, coloring, triangles.
// Engines: powergraph, powerlyra, graphx.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "apps/triangle_count.h"
#include "graph/io.h"
#include "harness/experiment.h"
#include "partition/placement_io.h"

namespace {

using namespace gdp;

bool ParseApp(const std::string& name, harness::AppKind* app) {
  if (name == "pagerank") *app = harness::AppKind::kPageRankFixed;
  else if (name == "pagerank-conv") *app = harness::AppKind::kPageRankConvergent;
  else if (name == "wcc") *app = harness::AppKind::kWcc;
  else if (name == "sssp") *app = harness::AppKind::kSssp;
  else if (name == "kcore") *app = harness::AppKind::kKCore;
  else if (name == "coloring") *app = harness::AppKind::kColoring;
  else return false;
  return true;
}

bool ParseEngine(const std::string& name, engine::EngineKind* kind) {
  if (name == "powergraph") *kind = engine::EngineKind::kPowerGraphSync;
  else if (name == "powerlyra") *kind = engine::EngineKind::kPowerLyraHybrid;
  else if (name == "graphx") *kind = engine::EngineKind::kGraphXPregel;
  else return false;
  return true;
}

int RunFromPlacement(const graph::EdgeList& edges, const std::string& app,
                     engine::EngineKind kind, const std::string& path,
                     uint32_t machines) {
  auto placement = partition::LoadPlacement(path);
  if (!placement.ok()) {
    std::fprintf(stderr, "error: %s\n",
                 placement.status().ToString().c_str());
    return 1;
  }
  auto dg = partition::ApplyPlacement(edges, placement.value());
  if (!dg.ok()) {
    std::fprintf(stderr, "error: %s\n", dg.status().ToString().c_str());
    return 1;
  }
  if (machines > engine::kMaxMachines) {
    std::fprintf(stderr, "error: at most %u machines are supported; got %u\n",
                 engine::kMaxMachines, machines);
    return 1;
  }
  dg.value().num_machines = machines;
  sim::Cluster cluster(machines, sim::CostModel{});
  engine::RunOptions options;
  options.max_iterations = 1000;

  std::printf("placement reused from %s (no ingress phase)\n",
              path.c_str());
  if (app == "triangles") {
    apps::TriangleCountResult r =
        apps::CountTriangles(kind, dg.value(), cluster, options);
    std::printf("triangles: %llu\ncompute: %.4fs, network %.2f MB\n",
                static_cast<unsigned long long>(r.total_triangles),
                r.stats.compute_seconds, r.stats.network_bytes / 1e6);
    return 0;
  }
  std::fprintf(stderr,
               "error: placement mode supports app 'triangles' here; use "
               "strategy mode for the thesis apps\n");
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 6) {
    std::fprintf(stderr,
                 "usage: %s <edge-list> <app> <engine> "
                 "<strategy|@placement-file> <machines>\n",
                 argv[0]);
    return 2;
  }
  auto loaded = graph::LoadEdgeList(argv[1]);
  if (!loaded.ok()) {
    std::fprintf(stderr, "error: %s\n", loaded.status().ToString().c_str());
    return 1;
  }
  graph::EdgeList edges = std::move(loaded).value();

  engine::EngineKind kind;
  if (!ParseEngine(argv[3], &kind)) {
    std::fprintf(stderr, "error: unknown engine %s\n", argv[3]);
    return 1;
  }
  uint32_t machines = static_cast<uint32_t>(std::atoi(argv[5]));
  if (machines == 0) {
    std::fprintf(stderr, "error: machines must be > 0\n");
    return 1;
  }

  std::string target = argv[4];
  if (!target.empty() && target[0] == '@') {
    return RunFromPlacement(edges, argv[2], kind, target.substr(1),
                            machines);
  }

  auto strategy = partition::StrategyFromName(target);
  if (!strategy.ok()) {
    std::fprintf(stderr, "error: %s\n",
                 strategy.status().ToString().c_str());
    return 1;
  }
  harness::AppKind app;
  if (!ParseApp(argv[2], &app)) {
    std::fprintf(stderr, "error: unknown app %s\n", argv[2]);
    return 1;
  }

  harness::ExperimentSpec spec;
  spec.engine = kind;
  spec.strategy = strategy.value();
  spec.num_machines = machines;
  spec.app = app;
  spec.max_iterations = 10;
  const util::Status valid = harness::ValidateExperimentSpec(spec);
  if (!valid.ok()) {
    std::fprintf(stderr, "error: %s\n", valid.ToString().c_str());
    return 1;
  }
  harness::ExperimentResult r = harness::RunExperiment(edges, spec);

  std::printf("%s / %s / %s on %u machines\n", argv[2], argv[3],
              partition::StrategyName(strategy.value()), machines);
  std::printf("replication factor: %.3f\n", r.replication_factor);
  std::printf("ingress:  %.4fs\n", r.ingress.ingress_seconds);
  std::printf("compute:  %.4fs (%u iterations%s)\n",
              r.compute.compute_seconds, r.compute.iterations,
              r.compute.converged ? ", converged" : "");
  std::printf("total:    %.4fs\n", r.total_seconds);
  std::printf("network:  %.2f MB\n", r.compute.network_bytes / 1e6);
  std::printf("peak mem: %.2f MB/machine (mean)\n",
              r.mean_peak_memory_bytes / 1e6);
  return 0;
}
