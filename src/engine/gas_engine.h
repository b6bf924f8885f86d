#ifndef GDP_ENGINE_GAS_ENGINE_H_
#define GDP_ENGINE_GAS_ENGINE_H_

#include <algorithm>
#include <bit>
#include <cstdint>
#include <tuple>
#include <utility>
#include <vector>

#include "engine/engine_obs.h"
#include "engine/gas_app.h"
#include "engine/plan.h"
#include "engine/run_stats.h"
#include "partition/distributed_graph.h"
#include "partition/validate.h"
#include "sim/cluster.h"
#include "sim/phase_accumulator.h"
#include "util/check.h"
#include "util/dense_bitset.h"
#include "util/thread_pool.h"

namespace gdp::engine {

/// Which system's communication discipline to simulate. The engines run the
/// same bulk-synchronous loop and compute identical application results;
/// they differ in *who sends what to whom*, which is exactly the difference
/// the paper measures:
///
/// - kPowerGraphSync (§5.1.2): every mirror sends a partial aggregate to
///   the master each gather step, and the master pushes its updated state
///   to every mirror after apply — 2*(replicas-1) messages per vertex per
///   superstep, the source of the linear RF/IO relation in Fig 5.3.
/// - kPowerLyraHybrid (§6.1): gather messages only from machines actually
///   holding gather-direction edges; state sync to all mirrors for
///   high-degree vertices but only to scatter-direction machines for
///   low-degree ones. With a natural application and a partitioner that
///   colocates gather-edges with the master (Hybrid, 1D-Target), the
///   low-degree traffic vanishes — the below-trend points of Figs 6.1/8.3.
/// - kGraphXPregel (§7.1): vertices live in a hash-partitioned vertex RDD
///   ("home" = master here); homes ship attributes to edge partitions in
///   the scatter direction and edge partitions return partial aggregates
///   from the gather direction. Partitions outnumber machines; traffic
///   between partitions colocated on a machine is free.
enum class EngineKind { kPowerGraphSync, kPowerLyraHybrid, kGraphXPregel };

/// Display name of an engine kind.
inline const char* EngineKindName(EngineKind kind) {
  switch (kind) {
    case EngineKind::kPowerGraphSync:
      return "PowerGraph";
    case EngineKind::kPowerLyraHybrid:
      return "PowerLyra";
    case EngineKind::kGraphXPregel:
      return "GraphX";
  }
  return "?";
}

template <GasApplication App>
struct GasRunResult {
  std::vector<typename App::State> states;
  RunStats stats;
};

/// Runs `app` over the partitioned graph on the simulated cluster and
/// returns final vertex states plus cost statistics.
///
/// This is the parallel, frontier-aware engine. Real computation runs on
/// `options.exec.num_threads` lanes (0 = hardware default) and gather/scatter
/// traverse precomputed adjacency restricted to the active frontier, so a
/// sparse superstep costs O(frontier edges) instead of O(|E|). Simulated
/// distribution costs charged to `cluster` are *bit-identical* to the
/// original serial engine (reference_engine.h) at every thread count — see
/// sim::PhaseAccumulator for the mechanism. Requires
/// cluster.num_machines() == dg.num_machines and at most 64 machines
/// (partitions may exceed 64).
template <GasApplication App>
GasRunResult<App> RunGasEngine(EngineKind kind,
                               const partition::DistributedGraph& dg,
                               sim::Cluster& cluster, App app,
                               const RunOptions& options = {});

/// Same, over a prebuilt ExecutionPlan (amortizes plan construction across
/// runs — e.g. k-core's per-k sweeps). The plan must have been built from
/// `dg` with this App's gather/scatter directions, and with GraphX fan-out
/// counts when `kind` is kGraphXPregel.
template <GasApplication App>
GasRunResult<App> RunGasEngine(EngineKind kind, const ExecutionPlan& plan,
                               sim::Cluster& cluster, App app,
                               const RunOptions& options = {});

// ---------------------------------------------------------------------------
// Implementation details only below here.
// ---------------------------------------------------------------------------

template <GasApplication App>
GasRunResult<App> RunGasEngine(EngineKind kind, const ExecutionPlan& plan,
                               sim::Cluster& cluster, App app,
                               const RunOptions& options) {
  using State = typename App::State;
  using Gather = typename App::Gather;

  const partition::DistributedGraph& dg = *plan.dg;
  GDP_CHECK_EQ(cluster.num_machines(), dg.num_machines);
  GDP_CHECK_LE(dg.num_machines, 64u);
  GDP_CHECK(plan.gather_dir == App::kGatherDir &&
            plan.scatter_dir == App::kScatterDir);
  // Debug builds re-verify the placement/replica invariants every run; the
  // engines' message accounting silently miscounts on a corrupt structure.
  GDP_DCHECK_OK(partition::ValidateDistributedGraph(dg));
  const graph::VertexId n = dg.num_vertices;
  const uint64_t num_edges = dg.edges.size();
  const sim::ObjectSizes sizes;
  const double work_mul = options.work_multiplier;

  const std::vector<uint64_t>& out_degree = plan.out_degrees();
  const std::vector<uint64_t>& in_degree = plan.in_degrees();
  AppContext ctx{&out_degree, &in_degree};

  const internal::MachineMasks& masks = plan.masks;
  if (kind == EngineKind::kGraphXPregel) {
    GDP_CHECK_EQ(plan.gather_partition_count.size(), n);
  }

  // --- Accounting kernels --------------------------------------------------
  // Each center's adjacency is charged through the plan's (machine, count)
  // run tables — one multiply per distinct machine — and dense-scatter
  // wakeups are collected in lane-local bitsets merged word-parallel. The
  // integer quarter-unit count per machine equals the serial engine's
  // per-edge sum (integer sums are order-free), so every flushed cost is
  // bit-identical across layouts and thread counts.
  const bool compressed = plan.layout == PlanLayout::kCompressed;

  // --- Accounting mode -----------------------------------------------------
  // Every work charge in the serial engine is an integer multiple of one
  // quarter of the work multiplier, so lanes count integer quarter-units
  // (sim::PhaseAccumulator) instead of summing doubles. When the unit is
  // dyadic enough that sums up to max_units are exact in any order (the
  // default multiplier 1.0, any power of two), a closed-form flush is
  // bit-identical to the serial engine. Otherwise — exotic multipliers, or
  // GraphX whose apply charges 0.8 * blocks (not a quarter-unit multiple) —
  // computation still runs parallel but cost accounting is replayed
  // serially in the serial engine's exact order.
  const double unit_value = 0.25 * work_mul;
  const uint64_t max_units = 8 * (2 * num_edges + 130ULL * n + 64);
  const bool fast_accounting =
      kind != EngineKind::kGraphXPregel &&
      sim::PhaseAccumulator::ClosedFormExact(unit_value, max_units);

  // Resolved execution context: thread count + observability sinks. The
  // observer owns the per-superstep timeline sample and span; when no sink
  // is attached (`!observed`) every instrumentation site below is skipped.
  const obs::ExecContext& exec = options.exec;
  SuperstepObserver observer(exec, cluster, EngineKindName(kind));
  const bool observed = observer.enabled();

  const uint32_t num_threads = exec.num_threads != 0
                                   ? exec.num_threads
                                   : util::ThreadPool::DefaultThreadCount();
  util::ThreadPool pool(num_threads);
  std::vector<sim::PhaseAccumulator> accs(pool.num_threads());
  for (sim::PhaseAccumulator& acc : accs) acc.Reset(dg.num_machines);
  // Flushes the lanes' counts to the cluster; returns this minor-step's
  // {quarter-units, sent bytes} totals when observed (integer sums over
  // machines — identical at every lane count).
  auto flush_accs = [&]() -> std::pair<uint64_t, uint64_t> {
    for (size_t i = 1; i < accs.size(); ++i) accs[0].Merge(accs[i]);
    std::pair<uint64_t, uint64_t> totals{0, 0};
    if (observed) {
      totals = {accs[0].TotalWorkUnits(), accs[0].TotalSentBytes()};
    }
    if (fast_accounting) {
      accs[0].FlushTo(cluster, unit_value);
    } else {
      accs[0].FlushToReplay(cluster, unit_value);
    }
    for (sim::PhaseAccumulator& acc : accs) acc.Reset(dg.num_machines);
    return totals;
  };

  // --- Frontier iteration --------------------------------------------------
  // Sparse frontiers (fewer than 1/32 of the vertices) are materialized as a
  // sorted index list and sharded in 1024-entry chunks; dense frontiers are
  // scanned in place in word-aligned 4096-vertex blocks (so block-local
  // non-atomic writes never share a word across lanes). Chunk decomposition
  // depends only on sizes, never on the lane count.
  std::vector<graph::VertexId> frontier_list;
  auto for_each_frontier = [&](const util::DenseBitset& bits, uint64_t count,
                               auto&& per_vertex) {
    if (count == 0) return;
    if (count * 32 < static_cast<uint64_t>(n)) {
      frontier_list.clear();
      bits.AppendSetBits(&frontier_list);
      constexpr uint64_t kChunk = 1024;
      const uint64_t total = frontier_list.size();
      pool.ParallelFor((total + kChunk - 1) / kChunk,
                       [&](uint64_t chunk, uint32_t lane) {
                         const uint64_t begin = chunk * kChunk;
                         const uint64_t end =
                             std::min(begin + kChunk, total);
                         for (uint64_t i = begin; i < end; ++i) {
                           per_vertex(frontier_list[i], lane);
                         }
                       });
    } else {
      constexpr uint64_t kWords = 64;  // 4096 vertices per chunk
      const uint64_t num_words = bits.num_words();
      pool.ParallelFor(
          (num_words + kWords - 1) / kWords,
          [&](uint64_t chunk, uint32_t lane) {
            bits.ForEachSetInWordRange(
                chunk * kWords, std::min(num_words, (chunk + 1) * kWords),
                [&](uint64_t v) {
                  per_vertex(static_cast<graph::VertexId>(v), lane);
                });
          });
    }
  };

  GasRunResult<App> result;
  RunStats& stats = result.stats;
  std::vector<State>& state = result.states;
  state.reserve(n);
  for (graph::VertexId v = 0; v < n; ++v) {
    state.push_back(app.InitState(v, ctx));
  }

  util::DenseBitset active(n);
  for (graph::VertexId v = 0; v < n; ++v) {
    if (dg.present[v] && app.InitiallyActive(v)) active.Set(v);
  }

  const double compute_start = cluster.now_seconds();
  uint64_t bytes_sent_start = cluster.TotalBytesSent();
  std::vector<uint64_t> inbound_start(dg.num_machines);
  for (uint32_t m = 0; m < dg.num_machines; ++m) {
    inbound_start[m] = cluster.machine(m).bytes_received();
  }

  util::DenseBitset signaled(n);
  util::DenseBitset next_active(n);

  // Activation (scatter control) messages: signaled center v notifies the
  // machines holding its scatter-direction edges. Byte counts only —
  // integer sums, safe to accumulate on any lane in any order.
  auto charge_activation = [&](graph::VertexId v, uint32_t lane) {
    uint64_t mask = internal::DirectionMask(masks, App::kScatterDir, v);
    sim::MachineId master = masks.master_machine[v];
    mask &= ~(1ULL << master);
    while (mask != 0) {
      sim::MachineId m = static_cast<sim::MachineId>(std::countr_zero(mask));
      mask &= mask - 1;
      accs[lane].ChargeSendBytes(master, sizes.control_message);
      accs[lane].ChargeReceiveBytes(m, sizes.control_message);
    }
  };

  // Wakes the scatter-direction neighbors of one signaled center through
  // `set_bit` and charges its scatter work. Decode order is the CSR /
  // original-edge order in both layouts; wakeups are idempotent ORs and
  // charges are integer sums, so neither depends on it.
  auto scatter_vertex = [&](graph::VertexId v, uint32_t lane,
                            auto&& set_bit) {
    const uint64_t begin = plan.scatter_offsets[v];
    const uint64_t end = plan.scatter_offsets[v + 1];
    if (compressed) {
      internal::CompressedBlockCursor cur(plan.scatter_blob,
                                          plan.scatter_block_bits[v],
                                          plan.scatter_block_width[v], v);
      for (uint64_t s = begin; s < end; ++s) set_bit(cur.Next());
    } else {
      for (uint64_t s = begin; s < end; ++s) set_bit(plan.scatter_target[s]);
    }
    for (uint64_t r = plan.scatter_run_offsets[v];
         r < plan.scatter_run_offsets[v + 1]; ++r) {
      const uint32_t run = plan.scatter_runs[r];
      accs[lane].AddWorkUnits(ExecutionPlan::RunMachine(run),
                              4ULL * ExecutionPlan::RunCount(run));
    }
  };

  // Scatter minor-step from `from` into `into`: wake the scatter-direction
  // neighbors of every signaled center. Activation signals piggyback on the
  // state-sync messages sent for the same vertices (the real engines
  // coalesce them), so scatter itself only charges compute work. On dense
  // frontiers wakeups are collected in lane-local bitsets (plain
  // single-writer stores) merged afterwards with one word-parallel
  // OrWith per lane, so the hot loop carries no lock-prefixed RMW; sparse
  // frontiers stay on SetAtomic — merging whole-size bitsets would cost
  // O(n/64) per lane to publish a handful of bits.
  std::vector<util::DenseBitset> scatter_local;
  auto scatter_frontier = [&](const util::DenseBitset& from, uint64_t count,
                              util::DenseBitset& into) {
    const bool dense = count * 32 >= static_cast<uint64_t>(n);
    if (dense) {
      if (scatter_local.empty()) {
        for (uint32_t t = 0; t < pool.num_threads(); ++t) {
          scatter_local.emplace_back(n);
        }
      } else {
        for (util::DenseBitset& local : scatter_local) local.ClearAll();
      }
      for_each_frontier(from, count, [&](graph::VertexId v, uint32_t lane) {
        util::DenseBitset& local = scatter_local[lane];
        scatter_vertex(v, lane,
                       [&](graph::VertexId t) { local.Set(t); });
      });
      for (const util::DenseBitset& local : scatter_local) {
        into.OrWith(local);
      }
    } else {
      for_each_frontier(from, count, [&](graph::VertexId v, uint32_t lane) {
        scatter_vertex(v, lane,
                       [&](graph::VertexId t) { into.SetAtomic(t); });
      });
    }
  };

  // Exact-accounting scatter: the serial engine's full edge scan, verbatim,
  // so per-machine charge sequences (including the single combined
  // 2x-work-multiplier charge when both endpoints scatter) replay exactly.
  // Returns the scatter compute total in quarter-units (for the span args).
  auto scatter_serial = [&](const util::DenseBitset& from,
                            util::DenseBitset& into) -> uint64_t {
    uint64_t units = 0;
    for (uint64_t i = 0; i < num_edges; ++i) {
      const graph::Edge& e = dg.edges[i];
      bool src_scatters = IncludesOut(App::kScatterDir) && from.Test(e.src);
      bool dst_scatters = IncludesIn(App::kScatterDir) && from.Test(e.dst);
      if (!src_scatters && !dst_scatters) continue;
      const int events = (src_scatters ? 1 : 0) + (dst_scatters ? 1 : 0);
      cluster.machine(plan.edge_machine[i]).AddWork(work_mul * events);
      units += 4ULL * static_cast<uint64_t>(events);
      if (src_scatters) into.Set(e.dst);
      if (dst_scatters) into.Set(e.src);
    }
    return units;
  };

  // Optional bootstrap: initially active vertices announce themselves;
  // with no apply/sync step yet, these activations do cross the wire.
  if (App::kBootstrapScatter) {
    obs::ScopedSpan bootstrap_span(exec.trace, exec.trace_track, "bootstrap",
                                   "engine", cluster.now_seconds());
    const uint64_t init_count = active.CountSet();
    uint64_t serial_units = 0;
    if (fast_accounting) {
      scatter_frontier(active, init_count, next_active);
    } else {
      serial_units = scatter_serial(active, next_active);
    }
    for_each_frontier(active, init_count, charge_activation);
    const auto [flushed_units, flushed_bytes] = flush_accs();
    cluster.EndPhase();
    std::swap(active, next_active);
    next_active.ClearAll();
    bootstrap_span.Arg("frontier", static_cast<int64_t>(init_count));
    bootstrap_span.Arg("scatter_units",
                       static_cast<int64_t>(serial_units + flushed_units));
    bootstrap_span.Arg("scatter_bytes",
                       static_cast<int64_t>(flushed_bytes));
    bootstrap_span.End(cluster.now_seconds());
  }

  std::vector<Gather> acc(n, app.GatherInit());
  std::vector<uint8_t> has_gather(n, 0);

  const Gather gather_identity = app.GatherInit();
  // Plain-sum contribution cache (HasGatherContribution apps): one value per
  // vertex per superstep, refreshed by a strided sweep before dense gathers.
  constexpr bool kHasContribution = HasGatherContribution<App>;
  std::vector<Gather> contrib;
  uint32_t iteration = 0;
  for (; iteration < options.max_iterations; ++iteration) {
    const uint64_t active_count = active.CountSet();
    stats.active_counts.push_back(active_count);
    if (active_count == 0) {
      stats.converged = true;
      break;
    }
    observer.BeginSuperstep(iteration);
    SuperstepBreakdown breakdown;
    breakdown.frontier = active_count;

    // ---- Gather minor-step ------------------------------------------------
    // Each active center folds its gather-direction neighbors through the
    // plan's CSR. Adjacency order per center equals the serial engine's
    // edge-scan order restricted to that center (plan.h) — the compressed
    // cursor decodes the same sequence — and only the center's lane touches
    // acc[v]/has_gather[v], so gather results are bit-identical to the
    // serial engine at any lane count and layout.

    // Refresh the contribution cache on dense frontiers: a strided sweep
    // with no adjacency indirection (auto-vectorizable) hoists the per-edge
    // arithmetic out of the gather loop. Sparse frontiers skip it — an O(n)
    // sweep serving few centers costs more than it saves. The gate depends
    // only on active_count, so the decision is identical at every thread
    // count; either path folds identical bits (see HasGatherContribution).
    bool use_contrib = false;
    if constexpr (kHasContribution) {
      use_contrib = active_count * 4 >= static_cast<uint64_t>(n);
      if (use_contrib) {
        if (contrib.empty()) contrib.resize(n, gather_identity);
        constexpr uint64_t kBlock = 4096;
        pool.ParallelFor(
            (static_cast<uint64_t>(n) + kBlock - 1) / kBlock,
            [&](uint64_t chunk, uint32_t) {
              const graph::VertexId first =
                  static_cast<graph::VertexId>(chunk * kBlock);
              const graph::VertexId last = static_cast<graph::VertexId>(
                  std::min<uint64_t>(n, (chunk + 1) * kBlock));
              for (graph::VertexId u = first; u < last; ++u) {
                contrib[u] = app.GatherContribution(u, state[u], ctx);
              }
            });
      }
    }

    for_each_frontier(
        active, active_count, [&](graph::VertexId v, uint32_t lane) {
          const uint64_t begin = plan.gather_offsets[v];
          const uint64_t end = plan.gather_offsets[v + 1];
          const uint64_t degree = end - begin;
          Gather folded = gather_identity;
          // Folds `degree` neighbors produced by the stateful generator
          // `next_nbr`, via the cached contributions when active.
          auto fold_entries = [&](auto&& next_nbr) {
            if constexpr (kHasContribution) {
              if (use_contrib) {
                for (uint64_t k = 0; k < degree; ++k) {
                  folded += contrib[next_nbr()];
                }
                return;
              }
            }
            for (uint64_t k = 0; k < degree; ++k) {
              const graph::VertexId nbr = next_nbr();
              app.GatherEdge(v, nbr, state[nbr], ctx, &folded);
            }
          };
          if (compressed) {
            internal::CompressedBlockCursor cur(
                plan.gather_blob, plan.gather_block_bits[v],
                plan.gather_block_width[v], v);
            fold_entries([&] { return cur.Next(); });
          } else {
            uint64_t s = begin;
            fold_entries([&] { return plan.gather_nbr[s++]; });
          }
          for (uint64_t r = plan.gather_run_offsets[v];
               r < plan.gather_run_offsets[v + 1]; ++r) {
            const uint32_t run = plan.gather_runs[r];
            accs[lane].AddWorkUnits(ExecutionPlan::RunMachine(run),
                                    4ULL * ExecutionPlan::RunCount(run));
          }
          acc[v] = std::move(folded);
          has_gather[v] = begin != end;
        });
    std::tie(breakdown.gather_units, breakdown.gather_bytes) = flush_accs();

    // ---- Apply minor-step + message accounting ----------------------------
    signaled.ClearAll();
    if (fast_accounting) {
      for_each_frontier(
          active, active_count, [&](graph::VertexId v, uint32_t lane) {
            sim::PhaseAccumulator& a = accs[lane];
            const sim::MachineId master = masks.master_machine[v];
            a.AddWorkUnits(master, 4);
            const bool signal =
                app.Apply(v, acc[v], has_gather[v] != 0, ctx, &state[v]);
            if (signal) signaled.SetAtomic(v);

            const uint64_t master_bit = 1ULL << master;

            // Gather messages: mirrors -> master, a round trip each (the
            // master activates the mirror, the mirror returns its partial
            // aggregate and pays serialization work).
            uint64_t gm =
                kind == EngineKind::kPowerGraphSync
                    ? masks.replicas[v] & ~master_bit
                    : internal::DirectionMask(masks, App::kGatherDir, v) &
                          ~master_bit;
            while (gm != 0) {
              sim::MachineId src =
                  static_cast<sim::MachineId>(std::countr_zero(gm));
              gm &= gm - 1;
              a.ChargeSendBytes(master, sizes.control_message);
              a.ChargeReceiveBytes(src, sizes.control_message);
              a.ChargeSendBytes(src, sizes.gather_message);
              a.ChargeReceiveBytes(master, sizes.gather_message);
              a.AddWorkUnits(src, 1);
            }

            // State synchronization: master -> mirrors (only when state
            // changed; always for always-signaling apps like PageRank).
            if (signal) {
              const bool low_degree = (in_degree[v] + out_degree[v]) <=
                                      options.high_degree_threshold;
              uint64_t sm =
                  kind == EngineKind::kPowerGraphSync
                      ? masks.replicas[v] & ~master_bit
                      : (low_degree ? internal::DirectionMask(
                                          masks, App::kScatterDir, v) &
                                          ~master_bit
                                    : masks.replicas[v] & ~master_bit);
              while (sm != 0) {
                sim::MachineId dst =
                    static_cast<sim::MachineId>(std::countr_zero(sm));
                sm &= sm - 1;
                a.ChargeSendBytes(master, sizes.sync_message);
                a.ChargeReceiveBytes(dst, sizes.sync_message);
                a.AddWorkUnits(master, 1);
              }
            }
          });
      std::tie(breakdown.apply_units, breakdown.apply_bytes) = flush_accs();
    } else {
      // Parallel computation (per-vertex state updates are independent and
      // order-free), then a serial replay of the serial engine's apply
      // accounting in ascending vertex order — required because GraphX's
      // shuffle-block charge and exotic multipliers are order-sensitive.
      for_each_frontier(active, active_count,
                        [&](graph::VertexId v, uint32_t) {
                          if (app.Apply(v, acc[v], has_gather[v] != 0, ctx,
                                        &state[v])) {
                            signaled.SetAtomic(v);
                          }
                        });
      for (graph::VertexId v = 0; v < n; ++v) {
        if (!active.Test(v)) continue;
        const sim::MachineId master = masks.master_machine[v];
        cluster.machine(master).AddWork(work_mul);
        const bool signal = signaled.Test(v);
        if (observed) breakdown.apply_units += 4;

        const uint64_t master_bit = 1ULL << master;
        const bool low_degree = (in_degree[v] + out_degree[v]) <=
                                options.high_degree_threshold;

        if (kind == EngineKind::kGraphXPregel) {
          // Shuffle-block serialization per edge-partition touched (see
          // the ExecutionPlan fan-out comment).
          double blocks =
              static_cast<double>(plan.gather_partition_count[v]) +
              (signal ? static_cast<double>(plan.scatter_partition_count[v])
                      : 0);
          cluster.machine(master).AddWork(0.8 * work_mul * blocks);
          if (observed) {
            breakdown.graphx_blocks +=
                plan.gather_partition_count[v] +
                (signal ? plan.scatter_partition_count[v] : 0);
          }
        }

        uint64_t gm =
            kind == EngineKind::kPowerGraphSync
                ? masks.replicas[v] & ~master_bit
                : internal::DirectionMask(masks, App::kGatherDir, v) &
                      ~master_bit;
        while (gm != 0) {
          sim::MachineId src =
              static_cast<sim::MachineId>(std::countr_zero(gm));
          gm &= gm - 1;
          cluster.machine(master).ChargePhaseBytes(sizes.control_message);
          cluster.machine(src).ReceiveBytes(sizes.control_message);
          cluster.machine(src).ChargePhaseBytes(sizes.gather_message);
          cluster.machine(master).ReceiveBytes(sizes.gather_message);
          cluster.machine(src).AddWork(0.25 * work_mul);  // serialize
          if (observed) {
            breakdown.apply_units += 1;
            breakdown.apply_bytes +=
                sizes.control_message + sizes.gather_message;
          }
        }

        if (signal) {
          uint64_t sm = 0;
          switch (kind) {
            case EngineKind::kPowerGraphSync:
              sm = masks.replicas[v] & ~master_bit;
              break;
            case EngineKind::kPowerLyraHybrid:
              sm = low_degree
                       ? internal::DirectionMask(masks, App::kScatterDir,
                                                 v) &
                             ~master_bit
                       : masks.replicas[v] & ~master_bit;
              break;
            case EngineKind::kGraphXPregel:
              sm = internal::DirectionMask(masks, App::kScatterDir, v) &
                   ~master_bit;
              break;
          }
          while (sm != 0) {
            sim::MachineId dst =
                static_cast<sim::MachineId>(std::countr_zero(sm));
            sm &= sm - 1;
            cluster.machine(master).ChargePhaseBytes(sizes.sync_message);
            cluster.machine(dst).ReceiveBytes(sizes.sync_message);
            cluster.machine(master).AddWork(0.25 * work_mul);
            if (observed) {
              breakdown.apply_units += 1;
              breakdown.apply_bytes += sizes.sync_message;
            }
          }
        }
      }
    }
    const uint64_t signaled_count = signaled.CountSet();

    // ---- Scatter minor-step ----------------------------------------------
    next_active.ClearAll();
    if (signaled_count > 0) {
      if (fast_accounting) {
        scatter_frontier(signaled, signaled_count, next_active);
        std::tie(breakdown.scatter_units, breakdown.scatter_bytes) =
            flush_accs();
      } else {
        breakdown.scatter_units = scatter_serial(signaled, next_active);
      }
    }

    // Three minor-step barriers per superstep (§5.1.2).
    cluster.EndPhase();
    cluster.AdvanceSeconds(2 * cluster.cost_model().barrier_latency_seconds);
    stats.cumulative_seconds.push_back(cluster.now_seconds() -
                                       compute_start);
    breakdown.signaled = signaled_count;
    observer.EndSuperstep(breakdown);
    std::swap(active, next_active);
  }

  observer.Finish();
  stats.iterations = iteration;
  if (!stats.converged && iteration == options.max_iterations) {
    // Ran to the iteration cap; report whether anything is still active.
    stats.converged = !active.AnySet();
  }
  stats.compute_seconds = cluster.now_seconds() - compute_start;
  stats.network_bytes = cluster.TotalBytesSent() - bytes_sent_start;
  double inbound_total = 0;
  for (uint32_t m = 0; m < dg.num_machines; ++m) {
    inbound_total += static_cast<double>(
        cluster.machine(m).bytes_received() - inbound_start[m]);
  }
  stats.mean_inbound_bytes_per_machine = inbound_total / dg.num_machines;
  return result;
}

template <GasApplication App>
GasRunResult<App> RunGasEngine(EngineKind kind,
                               const partition::DistributedGraph& dg,
                               sim::Cluster& cluster, App app,
                               const RunOptions& options) {
  const ExecutionPlan plan =
      ExecutionPlan::Build(dg, App::kGatherDir, App::kScatterDir,
                           kind == EngineKind::kGraphXPregel);
  return RunGasEngine(kind, plan, cluster, std::move(app), options);
}

}  // namespace gdp::engine

#endif  // GDP_ENGINE_GAS_ENGINE_H_
