#ifndef GDP_ENGINE_PLAN_H_
#define GDP_ENGINE_PLAN_H_

#include <cstdint>
#include <vector>

#include "engine/gas_app.h"
#include "partition/distributed_graph.h"
#include "sim/cluster.h"
#include "util/bitpack.h"
#include "util/check.h"

namespace gdp::engine {

/// Most machines a plan (and so any GAS engine run) supports: the plan folds
/// each vertex's placement into one 64-bit machine mask.
inline constexpr uint32_t kMaxMachines = 64;

namespace internal {

/// Per-vertex placement data folded down to machine bitmasks (<= 64
/// machines), precomputed once per plan: message counting then reduces to
/// popcounts.
struct MachineMasks {
  std::vector<uint64_t> replicas;
  std::vector<uint64_t> in_edges;
  std::vector<uint64_t> out_edges;
  std::vector<sim::MachineId> master_machine;

  static MachineMasks Build(const partition::DistributedGraph& dg);
};

/// Gather/scatter-direction machine mask for vertex v.
inline uint64_t DirectionMask(const MachineMasks& masks, EdgeDirection dir,
                              graph::VertexId v) {
  uint64_t m = 0;
  if (IncludesIn(dir)) m |= masks.in_edges[v];
  if (IncludesOut(dir)) m |= masks.out_edges[v];
  return m;
}

/// Reads `width` bits starting at absolute bit `bit_pos` of a packed word
/// array. Forwarded to the shared codec in util/bitpack.h (also used by the
/// compressed edge-block store); kept under this name so plan internals
/// read uniformly. The array must carry one padding word past the last
/// encoded bit so words[w + 1] is always dereferenceable.
using util::ReadPackedBits;

}  // namespace internal

/// Physical layout of a plan's adjacency arrays.
///
///  - kUncompressed: plain CSR — one 4-byte neighbor id per entry.
///  - kCompressed: per-vertex zigzag-delta blocks bit-packed at a fixed
///    per-vertex width, decoded with word-aligned loads in ORIGINAL edge
///    order (so float gather folds stay bit-identical to the serial
///    oracle).
///
/// Neither layout stores a per-entry machine tag: the accounting run
/// tables carry each center's per-machine counts.
enum class PlanLayout { kUncompressed, kCompressed };

/// Display name of a plan layout ("uncompressed" / "compressed").
const char* PlanLayoutName(PlanLayout layout);

/// Everything the superstep loop needs that is a pure function of the
/// partitioned graph and the application's edge directions, precomputed
/// once instead of per-run/per-superstep:
///
///  - per-direction adjacency over the partitioned edges (CSR or
///    delta-compressed blocks, see PlanLayout), so gather/scatter traverse
///    only the frontier's adjacency instead of scanning the whole edge
///    vector;
///  - per-vertex (machine, count) accounting runs, so charging a center's
///    simulated work is one multiply per distinct machine instead of one
///    accumulator call per edge (integer sums are order-free, which is why
///    regrouping by machine cannot change any flushed cost);
///  - cached degrees (reusing partition::DistributedGraph's cache when the
///    builder filled it);
///  - the placement bitmasks (MachineMasks) message counting runs on;
///  - GraphX's per-partition fan-out counts (shuffle-block accounting).
///
/// A plan borrows the DistributedGraph: the graph must outlive it. Plans
/// are immutable after Build, so one plan can back any number of engine
/// runs (and is read concurrently by engine worker threads).
///
/// Determinism note (load-bearing): gather adjacency entries for one center
/// are stored in *original edge order*, with the in-direction entry of an
/// edge preceding its out-direction entry — in both layouts. The
/// restriction of the serial engine's global edge scan to one center's
/// edges is exactly this order, so folding a center's neighbors through
/// either representation reproduces the serial engine's floating-point
/// gather results bit-for-bit.
struct ExecutionPlan {
  const partition::DistributedGraph* dg = nullptr;
  EdgeDirection gather_dir = EdgeDirection::kNone;
  EdgeDirection scatter_dir = EdgeDirection::kNone;
  PlanLayout layout = PlanLayout::kUncompressed;

  internal::MachineMasks masks;

  /// Machine hosting edge i (dg->edge_partition[i] % num_machines).
  std::vector<uint8_t> edge_machine;
  /// Edges hosted per machine (bucket sizes).
  std::vector<uint64_t> machine_edge_count;

  /// Gather adjacency offsets: center v owns entries [gather_offsets[v],
  /// gather_offsets[v+1]) of whichever representation the layout stores.
  std::vector<uint64_t> gather_offsets;
  /// kUncompressed only: neighbor whose state v folds, per entry.
  std::vector<graph::VertexId> gather_nbr;

  /// Scatter adjacency offsets (same contract as gather_offsets).
  std::vector<uint64_t> scatter_offsets;
  /// kUncompressed only: neighbor woken into the next frontier, per entry.
  std::vector<graph::VertexId> scatter_target;

  // --- Accounting run tables (both layouts) --------------------------------
  // For center v, entries [gather_run_offsets[v], gather_run_offsets[v+1])
  // of gather_runs are packed (machine, count) pairs in ascending machine
  // order: v's adjacency charges `count` whole work units to `machine`.
  // Work charges are integer quarter-units (sim::PhaseAccumulator), and
  // integer sums are order-free, so folding a vertex's per-edge charges
  // into per-machine counts is bit-identical to charging them one edge at
  // a time. At most num_machines runs per vertex.
  std::vector<uint64_t> gather_run_offsets;
  std::vector<uint32_t> gather_runs;
  std::vector<uint64_t> scatter_run_offsets;
  std::vector<uint32_t> scatter_runs;

  /// Packed-run format: machine in the high 6 bits, count in the low 26.
  static constexpr uint32_t kRunCountBits = 26;
  static constexpr uint32_t kRunCountMask = (1u << kRunCountBits) - 1;
  static constexpr uint8_t RunMachine(uint32_t run) {
    return static_cast<uint8_t>(run >> kRunCountBits);
  }
  static constexpr uint32_t RunCount(uint32_t run) {
    return run & kRunCountMask;
  }

  // --- Compressed blocks (kCompressed only) --------------------------------
  // Neighbor ids are stored per vertex as zigzag deltas (first entry
  // relative to the center id, each later entry relative to its
  // predecessor), bit-packed at the per-vertex width gather_block_width[v]
  // starting at absolute bit gather_block_bits[v] of gather_blob. Entry
  // counts come from gather_offsets. The blob carries one padding word so
  // the two-word decode load never runs past the end.
  std::vector<uint64_t> gather_blob;
  std::vector<uint64_t> gather_block_bits;
  std::vector<uint8_t> gather_block_width;
  std::vector<uint64_t> scatter_blob;
  std::vector<uint64_t> scatter_block_bits;
  std::vector<uint8_t> scatter_block_width;

  /// GraphX-only per-PARTITION fan-out counts (empty otherwise): Spark
  /// materializes one shuffle block per (vertex, edge-partition) pair, so
  /// its compute cost tracks partition-level replication even when
  /// partitions share machines (§7.4).
  std::vector<uint16_t> gather_partition_count;
  std::vector<uint16_t> scatter_partition_count;

  /// Bytes held by the layout-dependent adjacency representation (CSR
  /// neighbor arrays for kUncompressed, 4 bytes per entry; blobs plus
  /// per-vertex block metadata for kCompressed). The memory-shrink metric
  /// compares this across layouts; shared structures (offsets, runs,
  /// masks) are identical in both and excluded.
  uint64_t AdjacencyBytes() const;

  /// Degrees for the application context: dg's ingest-time cache when it
  /// was built, otherwise the plan's own fallback copy.
  const std::vector<uint64_t>& out_degrees() const {
    return owned_out_degree_.empty() && dg->HasDegreeCache()
               ? dg->out_degree
               : owned_out_degree_;
  }
  const std::vector<uint64_t>& in_degrees() const {
    return owned_in_degree_.empty() && dg->HasDegreeCache()
               ? dg->in_degree
               : owned_in_degree_;
  }

  /// Builds a plan for the given directions. `graphx_counts` additionally
  /// builds the per-partition fan-out tables (EngineKind::kGraphXPregel).
  static ExecutionPlan Build(const partition::DistributedGraph& dg,
                             EdgeDirection gather_dir,
                             EdgeDirection scatter_dir, bool graphx_counts,
                             PlanLayout layout = PlanLayout::kUncompressed);

 private:
  // Fallback degree storage when dg lacks the cache (hand-built graphs).
  std::vector<uint64_t> owned_out_degree_;
  std::vector<uint64_t> owned_in_degree_;
};

namespace internal {

/// Streaming decoder over one vertex's compressed adjacency block,
/// yielding neighbor ids in the exact order the uncompressed CSR stores
/// them (original edge order — the gather determinism contract).
class CompressedBlockCursor {
 public:
  CompressedBlockCursor(const std::vector<uint64_t>& blob, uint64_t bit_pos,
                        uint8_t width, graph::VertexId center)
      : words_(blob.data()),
        bit_pos_(bit_pos),
        width_(width),
        prev_(static_cast<int64_t>(center)) {}

  /// Decodes and returns the next neighbor id.
  graph::VertexId Next() {
    const uint64_t zig = ReadPackedBits(words_, bit_pos_, width_);
    bit_pos_ += width_;
    const int64_t delta =
        static_cast<int64_t>(zig >> 1) ^ -static_cast<int64_t>(zig & 1);
    prev_ += delta;
    return static_cast<graph::VertexId>(prev_);
  }

 private:
  const uint64_t* words_;
  uint64_t bit_pos_;
  uint32_t width_;
  int64_t prev_;
};

}  // namespace internal

}  // namespace gdp::engine

#endif  // GDP_ENGINE_PLAN_H_
