#include "partition/hybrid.h"

#include <memory>
#include <utility>

#include "partition/strategy_registration.h"
#include "partition/strategy_registry.h"

#include <limits>

#include "util/hash.h"
#include "util/check.h"

namespace gdp::partition {

using util::Mix64;

HybridPartitioner::HybridPartitioner(const PartitionContext& context)
    : Partitioner(context),
      num_partitions_(context.num_partitions),
      seed_(context.seed),
      threshold_(context.hybrid_threshold),
      in_degree_(context.num_vertices, 0) {
  GDP_CHECK_GT(context.num_vertices, 0u);
}

MachineId HybridPartitioner::HashVertex(graph::VertexId v) const {
  return static_cast<MachineId>(Mix64(v ^ seed_) % num_partitions_);
}

void HybridPartitioner::PrepareForIngest(uint32_t num_loaders) {
  Partitioner::PrepareForIngest(num_loaders);
  while (in_degree_shards_.size() + 1 < num_loaders) {
    in_degree_shards_.emplace_back(in_degree_.size(), 0);
  }
}

void HybridPartitioner::EndPass(uint32_t pass) {
  if (pass != 0) return;
  // Integer addition commutes, so the merged degrees are independent of the
  // shard order (and of how edges were split across loaders).
  for (const std::vector<uint32_t>& shard : in_degree_shards_) {
    for (size_t v = 0; v < in_degree_.size(); ++v) {
      in_degree_[v] += shard[v];
    }
  }
  in_degree_shards_.clear();
}

MachineId HybridPartitioner::Assign(const graph::Edge& e, uint32_t pass,
                                    uint32_t loader) {
  if (pass == 0) {
    // Counting + provisional low-degree placement: every edge goes with its
    // destination, and we learn exact in-degrees along the way.
    AddWorkTicks(loader, 24);  // 1.2 units
    ++DegreeCell(loader, e.dst);
    return HashVertex(e.dst);
  }
  // Reassignment pass: edges whose destination turned out to be high-degree
  // move to the source hash (vertex-cut for the heavy vertices).
  AddWorkTicks(loader, 12);  // 0.6 units
  if (IsHighDegree(e.dst)) return HashVertex(e.src);
  return kKeepPlacement;
}

uint64_t HybridPartitioner::ApproxStateBytes() const {
  return in_degree_.size() * sizeof(uint32_t);
}

MachineId HybridPartitioner::PreferredMaster(graph::VertexId v) const {
  return HashVertex(v);
}

// ---------------------------------------------------------------------------
// Hybrid-Ginger
// ---------------------------------------------------------------------------

HybridGingerPartitioner::HybridGingerPartitioner(
    const PartitionContext& context)
    : HybridPartitioner(context),
      num_vertices_(context.num_vertices),
      nbr_partition_count_(
          static_cast<size_t>(context.num_vertices) * num_partitions_, 0),
      vertex_partition_(context.num_vertices, 0),
      ginger_target_(context.num_vertices, kKeepPlacement),
      partition_vertices_(num_partitions_, 0),
      partition_edges_(num_partitions_, 0) {
  for (graph::VertexId v = 0; v < num_vertices_; ++v) {
    vertex_partition_[v] = HashVertex(v);
  }
}

void HybridGingerPartitioner::PrepareForIngest(uint32_t num_loaders) {
  HybridPartitioner::PrepareForIngest(num_loaders);
  while (edge_shards_.size() + 1 < num_loaders) {
    edge_shards_.emplace_back();
    edge_shards_.back().partition_edges.assign(num_partitions_, 0);
  }
}

void HybridGingerPartitioner::EndPass(uint32_t pass) {
  if (pass == 0) {
    for (const EdgeCountShard& shard : edge_shards_) {
      total_edges_ += shard.total_edges;
      for (MachineId p = 0; p < num_partitions_; ++p) {
        partition_edges_[p] += shard.partition_edges[p];
      }
    }
    edge_shards_.clear();
  }
  HybridPartitioner::EndPass(pass);
}

void HybridGingerPartitioner::BeginPass(uint32_t pass) {
  if (pass == 2) {
    // Initialize balance state from the post-Hybrid placement: vertices are
    // homed at their hash, edges counted by where Hybrid put them.
    std::fill(partition_vertices_.begin(), partition_vertices_.end(), 0);
    for (graph::VertexId v = 0; v < num_vertices_; ++v) {
      ++partition_vertices_[vertex_partition_[v]];
    }
  }
}

MachineId HybridGingerPartitioner::Assign(const graph::Edge& e, uint32_t pass,
                                          uint32_t loader) {
  if (pass == 0) {
    ++TotalEdgesCell(loader);
    MachineId m = HybridPartitioner::Assign(e, 0, loader);
    ++PartitionEdgesCell(loader, m);
    return m;
  }
  if (pass == 1) {
    MachineId moved = HybridPartitioner::Assign(e, 1, loader);
    // Record where each in-neighbour of a low-degree destination is homed;
    // this is the |N_in(v) ∩ V_p| table the Ginger heuristic maximizes.
    if (!IsHighDegree(e.dst)) {
      size_t slot = static_cast<size_t>(e.dst) * num_partitions_ +
                    vertex_partition_[e.src];
      if (nbr_partition_count_[slot] !=
          std::numeric_limits<uint16_t>::max()) {
        ++nbr_partition_count_[slot];
      }
    }
    if (moved != kKeepPlacement) {
      // Keep |E_p| in sync with the Hybrid reassignment.
      MachineId old_m = HashVertex(e.dst);
      --partition_edges_[old_m];
      ++partition_edges_[moved];
    }
    AddWorkTicks(loader, 8);  // 0.4 units
    return moved;
  }
  GDP_CHECK_EQ(pass, 2u);
  AddWorkTicks(loader, 20);  // 1.0 units
  if (IsHighDegree(e.dst)) return kKeepPlacement;
  MachineId target = GingerTarget(e.dst, loader);
  MachineId old_m = HashVertex(e.dst);
  if (target == old_m) return kKeepPlacement;
  --partition_edges_[old_m];
  ++partition_edges_[target];
  return target;
}

MachineId HybridGingerPartitioner::GingerTarget(graph::VertexId v,
                                                uint32_t loader) {
  if (ginger_target_[v] != kKeepPlacement) return ginger_target_[v];
  AddWorkTicks(loader, kTicksPerWorkUnit * num_partitions_);

  // Remove v from its current partition while scoring (it is being moved).
  MachineId current = vertex_partition_[v];
  GDP_CHECK_GT(partition_vertices_[current], 0u);
  --partition_vertices_[current];

  double edge_weight = total_edges_ > 0
                           ? static_cast<double>(num_vertices_) /
                                 static_cast<double>(total_edges_)
                           : 0.0;
  double best_score = -std::numeric_limits<double>::infinity();
  MachineId best = current;
  size_t base = static_cast<size_t>(v) * num_partitions_;
  for (MachineId p = 0; p < num_partitions_; ++p) {
    double locality = static_cast<double>(nbr_partition_count_[base + p]);
    double balance =
        0.5 * (static_cast<double>(partition_vertices_[p]) +
               edge_weight * static_cast<double>(partition_edges_[p]));
    double score = locality - balance;
    if (score > best_score) {
      best_score = score;
      best = p;
    }
  }
  ++partition_vertices_[best];
  vertex_partition_[v] = best;
  ginger_target_[v] = best;
  return best;
}

uint64_t HybridGingerPartitioner::ApproxStateBytes() const {
  return HybridPartitioner::ApproxStateBytes() +
         nbr_partition_count_.size() * sizeof(uint16_t) +
         vertex_partition_.size() * sizeof(MachineId) +
         ginger_target_.size() * sizeof(MachineId) +
         (partition_vertices_.size() + partition_edges_.size()) *
             sizeof(uint64_t);
}

MachineId HybridGingerPartitioner::PreferredMaster(graph::VertexId v) const {
  // Low-degree vertices follow their Ginger move; high-degree vertices stay
  // at the hash location like Hybrid.
  if (!IsHighDegree(v) && ginger_target_[v] != kKeepPlacement) {
    return ginger_target_[v];
  }
  return vertex_partition_.empty() ? HashVertex(v) : vertex_partition_[v];
}


void RegisterHybridStrategies() {
  StrategyRegistry& registry = RegistryForBuiltins();
  registry.Register(StrategyInfo{
      .kind = StrategyKind::kHybrid,
      .name = "Hybrid",
      .aliases = {},
      .traits = {.passes_required = 2,
                 .needs_degree_precompute = true,
                 .system_families = kFamilyPowerLyra,
                 .power_lyra_rank = 3,
                 .in_paper_roster = true,
                 .paper_roster_rank = 7},
      .factory = [](const PartitionContext& context)
          -> std::unique_ptr<Partitioner> {
        return std::make_unique<HybridPartitioner>(context);
      }});
  registry.Register(StrategyInfo{
      .kind = StrategyKind::kHybridGinger,
      .name = "H-Ginger",
      .aliases = {"Hybrid-Ginger"},
      .traits = {.passes_required = 3,
                 .parallel_safe = false,
                 .needs_degree_precompute = true,
                 .system_families = kFamilyPowerLyra,
                 .power_lyra_rank = 4,
                 .in_paper_roster = true,
                 .paper_roster_rank = 8},
      .factory = [](const PartitionContext& context)
          -> std::unique_ptr<Partitioner> {
        return std::make_unique<HybridGingerPartitioner>(context);
      }});
}

}  // namespace gdp::partition
