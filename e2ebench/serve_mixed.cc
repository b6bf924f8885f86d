// The `serve-mixed` workload: serving::QueryServer::Serve on a fixed
// arrival trace mixing SSSP distance, BFS reachability, PageRank top-N and
// k-core membership queries from 8 tenants over a 3-graph fleet
// (heavy-tailed, road, web; HDRF on 9 machines). A warm-up Serve during
// set-up builds every ingress and plan, so the timed Serve does no ingress
// and no plan build: its work is the multi-source lane kernels, the
// per-batch Cluster::Restore and the per-Serve thread pool.

#include <algorithm>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "apps/reference.h"
#include "graph/generators.h"
#include "serving/query_server.h"
#include "serving/request.h"
#include "sim/cluster.h"
#include "workloads.h"

namespace gdp::e2ebench {
namespace {

constexpr uint32_t kRequests = 1024;
constexpr uint32_t kTenants = 8;
/// ~50 arrivals per 100 ms dispatch window, so same-(graph, kind) requests
/// share batches; the queue holds any window's arrivals, so none is refused.
constexpr uint64_t kMeanInterarrivalUs = 2000;
constexpr uint32_t kQueueCapacity = 256;

/// The fleet, the trace, and one warmed server per thread count.
struct Serving {
  std::vector<graph::EdgeList> graphs;
  std::vector<serving::Request> trace;
  std::unique_ptr<serving::QueryServer> multi;   ///< MultiThreads() threads
  std::unique_ptr<serving::QueryServer> single;  ///< 1 thread
  double generate_s = 0;
  double warmup_s = 0;  ///< the multi-thread server's cache warm-up Serve
};

harness::ExperimentSpec FleetSpec() {
  harness::ExperimentSpec spec;
  spec.engine = engine::EngineKind::kPowerGraphSync;
  spec.strategy = partition::StrategyKind::kHdrf;
  spec.num_machines = 9;
  spec.max_iterations = 10;
  return spec;
}

/// A server whose batches run on `threads` host threads and whose cache
/// builds each ingress at the same count (left at 0, the spec would ingest
/// at the hardware default).
std::unique_ptr<serving::QueryServer> MakeServer(
    const std::vector<graph::EdgeList>& graphs, uint32_t threads) {
  std::vector<serving::GraphConfig> fleet;
  for (const graph::EdgeList& edges : graphs) {
    fleet.push_back({&edges, FleetSpec()});
    fleet.back().spec.exec.num_threads = threads;
  }
  serving::ServerOptions options;
  options.batching = true;
  options.queue_capacity = kQueueCapacity;
  options.num_threads = threads;
  options.partition_cache_budget_bytes = 0;  // unbounded
  options.plan_cache_budget_bytes = 0;
  return std::make_unique<serving::QueryServer>(std::move(fleet), options);
}

/// One request of each kind per fleet graph: serving it builds every
/// ingress and every plan shape the full trace needs.
std::vector<serving::Request> CacheWarmupTrace(size_t num_graphs) {
  std::vector<serving::Request> trace;
  for (uint32_t g = 0; g < num_graphs; ++g) {
    for (const serving::QueryKind kind :
         {serving::QueryKind::kSsspDistance, serving::QueryKind::kBfsReachable,
          serving::QueryKind::kPageRankTopN,
          serving::QueryKind::kKCoreMember}) {
      serving::Request q;
      q.id = static_cast<uint32_t>(trace.size());
      q.graph = g;
      q.kind = kind;
      q.k = 2;
      q.top_n = 1;
      trace.push_back(q);
    }
  }
  return trace;
}

/// Set-up: generate the fleet and the trace, build both servers and warm
/// each one's caches with CacheWarmupTrace.
Serving SetUp(uint64_t seed, bool smoke, uint32_t threads) {
  Serving s;
  const Stopwatch generate;
  s.graphs.push_back(graph::GenerateHeavyTailed(
      {.num_vertices = smoke ? 600u : 4000u, .seed = seed}));
  // No random shortcuts, as in grid-roster: a handful of them would make
  // the road graph's diameter, and the SSSP/BFS batch cost, seed-dependent.
  const uint32_t side = smoke ? 30 : 100;
  s.graphs.push_back(graph::GenerateRoadNetwork({.width = side,
                                                 .height = side,
                                                 .shortcut_fraction = 0,
                                                 .seed = seed + 1}));
  s.graphs.push_back(graph::GeneratePowerLawWeb(
      {.num_vertices = smoke ? 2000u : 10000u, .seed = seed + 2}));
  std::vector<uint32_t> sizes;
  for (const graph::EdgeList& edges : s.graphs) {
    sizes.push_back(edges.num_vertices());
  }
  s.trace = serving::GenerateArrivalTrace(
      {.num_requests = smoke ? 128u : kRequests,
       .num_tenants = kTenants,
       .seed = seed + 3,
       .mean_interarrival_us = kMeanInterarrivalUs},
      sizes);
  s.generate_s = generate.Seconds();
  const std::vector<serving::Request> warmup = CacheWarmupTrace(sizes.size());
  s.multi = MakeServer(s.graphs, threads);
  const Stopwatch warm;
  (void)s.multi->Serve(warmup);
  s.warmup_s = warm.Seconds();
  s.single = MakeServer(s.graphs, 1);
  (void)s.single->Serve(warmup);
  return s;
}

bool SameServe(const serving::ServeResult& a, const serving::ServeResult& b) {
  if (a.responses.size() != b.responses.size() || a.admitted != b.admitted ||
      a.rejected != b.rejected || a.batches != b.batches ||
      a.makespan_us != b.makespan_us) {
    return false;
  }
  for (size_t i = 0; i < a.responses.size(); ++i) {
    if (a.responses[i] != b.responses[i]) return false;
  }
  return true;
}

/// Checks every answer of `result` against the serial reference oracles.
void CheckAnswers(const Serving& s, const serving::ServeResult& result,
                  Report& report) {
  report.Check(result.admitted == s.trace.size() && result.rejected == 0,
               "serve: every request admitted");
  std::map<std::pair<uint32_t, graph::VertexId>, std::vector<uint32_t>> sssp;
  std::map<std::pair<uint32_t, uint32_t>, std::vector<bool>> kcore;
  std::map<uint32_t, std::vector<double>> pagerank;
  for (const serving::Request& q : s.trace) {
    const graph::EdgeList& edges = s.graphs[q.graph];
    const serving::Response& r = result.responses[q.id];
    bool ok = !r.rejected;
    switch (q.kind) {
      case serving::QueryKind::kSsspDistance:
      case serving::QueryKind::kBfsReachable: {
        auto [it, fresh] = sssp.try_emplace({q.graph, q.source});
        if (fresh) {
          it->second =
              apps::ReferenceSssp(edges, q.source, /*directed=*/false);
        }
        const uint32_t distance = it->second[q.target];
        ok = ok && (q.kind == serving::QueryKind::kSsspDistance
                        ? r.distance == distance
                        : r.reachable == (distance != apps::kInfiniteDistance));
        break;
      }
      case serving::QueryKind::kKCoreMember: {
        auto [it, fresh] = kcore.try_emplace({q.graph, q.k});
        if (fresh) it->second = apps::ReferenceKCore(edges, q.k);
        ok = ok && r.in_core == it->second[q.source];
        break;
      }
      case serving::QueryKind::kPageRankTopN: {
        auto [it, fresh] = pagerank.try_emplace(q.graph);
        if (fresh) {
          it->second = apps::ReferencePageRank(edges, 0.85,
                                               FleetSpec().max_iterations);
        }
        const std::vector<double>& rank = it->second;
        const size_t n = std::min<size_t>(q.top_n, rank.size());
        std::vector<double> sorted = rank;
        std::nth_element(sorted.begin(), sorted.begin() + (n - 1),
                         sorted.end(), std::greater<>());
        const double nth = sorted[n - 1];
        std::vector<graph::VertexId> top = r.top_vertices;
        std::sort(top.begin(), top.end());
        ok = ok && r.top_vertices.size() == n &&
             std::adjacent_find(top.begin(), top.end()) == top.end();
        for (const graph::VertexId v : top) {
          ok = ok && v < rank.size() && rank[v] >= nth - 1e-9;
        }
        break;
      }
    }
    report.Check(ok, std::string("serve: answer of request ") +
                         std::to_string(q.id) + " (" +
                         serving::QueryKindName(q.kind) +
                         ") equals the reference");
  }
}

/// The requests of one kind, renumbered so ids equal positions.
std::vector<serving::Request> SubTrace(
    const std::vector<serving::Request>& trace, serving::QueryKind kind) {
  std::vector<serving::Request> sub;
  for (const serving::Request& q : trace) {
    if (q.kind != kind) continue;
    sub.push_back(q);
    sub.back().id = static_cast<uint32_t>(sub.size() - 1);
  }
  return sub;
}

}  // namespace

void RunServeMixed(const RunArgs& args, Report& report) {
  const uint32_t threads = MultiThreads();
  std::vector<double> setup, generate, warmup;
  Serving s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    s = Serving();
    const Stopwatch clock;
    s = SetUp(args.seed, args.smoke, threads);
    setup.push_back(clock.Seconds());
    generate.push_back(s.generate_s);
    warmup.push_back(s.warmup_s);
  }
  // Discarded warm-up Serves of the full trace; the N-thread one is the
  // baseline every later repetition must reproduce.
  const serving::ServeResult baseline = s.multi->Serve(s.trace);
  report.CountOperation();
  const serving::ServeResult baseline_1t = s.single->Serve(s.trace);
  report.CountOperation();
  double num_edges = 0;
  for (const graph::EdgeList& edges : s.graphs) {
    num_edges += static_cast<double>(edges.num_edges());
  }
  std::fprintf(stderr, "serve: %zu requests, %zu batches, %.0f edges, %u "
               "threads\n", s.trace.size(),
               static_cast<size_t>(baseline.batches), num_edges, threads);

  CheckAnswers(s, baseline, report);
  report.Check(SameServe(baseline_1t, baseline),
               "serve: 1-thread Serve equals the N-thread Serve");

  auto serve = [&](uint32_t t) {
    return (t == 1 ? s.single : s.multi)->Serve(s.trace);
  };
  auto verify = [&](const serving::ServeResult& result) {
    report.Check(SameServe(result, baseline),
                 "serve: repetition equals the warm-up Serve");
  };

  if (!args.trace) {
    const OpTimes times =
        TimeRounds(args.seconds, threads, report, serve, verify);
    std::fprintf(stderr, "serve: %zu rounds\n", times.multi.size());
    report.Metric("setup_s", Median(setup));
    report.Metric("op_s", times.MultiMedian());
    report.Metric("op_1t_s", times.SingleMedian());
    return;
  }

  // Traced run: Cluster construction + Restore per fleet graph, the full
  // trace, and each kind's sub-trace, all on the warmed N-thread server.
  const serving::QueryKind kinds[] = {
      serving::QueryKind::kSsspDistance, serving::QueryKind::kBfsReachable,
      serving::QueryKind::kPageRankTopN, serving::QueryKind::kKCoreMember};
  const char* kind_names[] = {"sssp", "bfs", "pagerank", "kcore"};
  std::vector<std::vector<serving::Request>> sub_traces;
  std::vector<serving::ServeResult> sub_warm;
  for (const serving::QueryKind kind : kinds) {
    sub_traces.push_back(SubTrace(s.trace, kind));
    sub_warm.push_back(s.multi->Serve(sub_traces.back()));
    report.CountOperation();
    size_t j = 0;
    bool same = true;
    for (const serving::Request& q : s.trace) {
      if (q.kind != kind) continue;
      same = same && serving::SameAnswer(sub_warm.back().responses[j++],
                                         baseline.responses[q.id]);
    }
    report.Check(same, std::string("serve: ") + serving::QueryKindName(kind) +
                           " sub-trace answers equal the full trace's");
  }

  std::vector<std::shared_ptr<const harness::PartitionCache::Entry>> entries;
  double snapshot_bytes = 0;
  for (const graph::EdgeList& edges : s.graphs) {
    entries.push_back(s.multi->partition_cache().Get(edges, FleetSpec()));
    snapshot_bytes += static_cast<double>(
        sizeof(sim::ClusterSnapshot) +
        entries.back()->post_ingress.machines.size() * sizeof(sim::Machine));
  }

  std::vector<double> full, restore_us;
  std::vector<std::vector<double>> by_kind(4);
  const Stopwatch window;
  for (int round = 0; round < 3 || window.Seconds() < args.seconds;
       ++round) {
    constexpr int kRestores = 200;
    const Stopwatch restore;
    for (int i = 0; i < kRestores; ++i) {
      for (const auto& entry : entries) {
        sim::Cluster cluster(FleetSpec().num_machines, sim::CostModel{});
        cluster.Restore(entry->post_ingress);
        // Keeps the compiler from eliding the unused cluster.
        asm volatile("" : : "g"(&cluster) : "memory");
      }
    }
    restore_us.push_back(restore.Seconds() * 1e6 /
                         (kRestores * static_cast<double>(entries.size())));
    {
      const Stopwatch clock;
      const serving::ServeResult result = s.multi->Serve(s.trace);
      full.push_back(clock.Seconds());
      report.CountOperation();
      verify(result);
    }
    for (size_t k = 0; k < sub_traces.size(); ++k) {
      const Stopwatch clock;
      const serving::ServeResult result = s.multi->Serve(sub_traces[k]);
      by_kind[k].push_back(clock.Seconds());
      report.CountOperation();
      report.Check(SameServe(result, sub_warm[k]),
                   "serve: sub-trace repetition equals its warm-up");
    }
  }

  std::vector<uint64_t> latencies;
  for (const serving::Response& r : baseline.responses) {
    latencies.push_back(r.latency_us);
  }
  std::sort(latencies.begin(), latencies.end());
  const size_t p99 = (latencies.size() * 99 + 99) / 100 - 1;  // ceil - 1
  const double serve_s = Median(full);
  const double batches = static_cast<double>(baseline.batches);

  report.Metric("graph.generate_s", Median(generate));
  report.Metric("graph.edges", num_edges);
  report.Metric("sim.restore_us", Median(restore_us));
  report.Metric("sim.snapshot_bytes", snapshot_bytes);
  report.Metric("serving.warmup_s", Median(warmup));
  report.Metric("serving.requests", static_cast<double>(s.trace.size()));
  report.Metric("serving.batches", batches);
  report.Metric("serving.batch_ms", serve_s * 1e3 / batches);
  report.Metric("serving.rps", static_cast<double>(s.trace.size()) / serve_s);
  for (size_t k = 0; k < by_kind.size(); ++k) {
    report.Metric(std::string("serving.kind_s.") + kind_names[k],
                  Median(by_kind[k]));
  }
  report.Metric("serving.sim_makespan_s",
                static_cast<double>(baseline.makespan_us) * 1e-6);
  report.Metric("serving.sim_p99_us", static_cast<double>(latencies[p99]));
}

}  // namespace gdp::e2ebench
