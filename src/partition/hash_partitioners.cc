#include "partition/hash_partitioners.h"

#include <cmath>
#include <memory>

#include "partition/strategy_registration.h"
#include "partition/strategy_registry.h"
#include "util/hash.h"

namespace gdp::partition {

using util::HashCanonicalEdge;
using util::HashDirectedEdge;
using util::Mix64;

MachineId RandomPartitioner::Assign(const graph::Edge& e, uint32_t pass,
                                    uint32_t loader) {
  (void)pass;
  AddWorkTicks(loader, kTicksPerWorkUnit);
  return static_cast<MachineId>(
      (HashCanonicalEdge(e.src, e.dst) ^ Mix64(seed_)) % num_partitions_);
}

MachineId AsymmetricRandomPartitioner::Assign(const graph::Edge& e,
                                              uint32_t pass,
                                              uint32_t loader) {
  (void)pass;
  AddWorkTicks(loader, kTicksPerWorkUnit);
  return static_cast<MachineId>(
      (HashDirectedEdge(e.src, e.dst) ^ Mix64(seed_)) % num_partitions_);
}

MachineId OneDPartitioner::Assign(const graph::Edge& e, uint32_t pass,
                                  uint32_t loader) {
  (void)pass;
  AddWorkTicks(loader, kTicksPerWorkUnit);
  graph::VertexId key = by_target_ ? e.dst : e.src;
  return static_cast<MachineId>((Mix64(key ^ seed_)) % num_partitions_);
}

MachineId OneDPartitioner::PreferredMaster(graph::VertexId v) const {
  // Colocate the master with the colocated edge direction; this is the
  // "tight engine integration" the thesis' 1D-Target experiment probes.
  return static_cast<MachineId>((Mix64(v ^ seed_)) % num_partitions_);
}

TwoDPartitioner::TwoDPartitioner(const PartitionContext& context)
    : Partitioner(context),
      num_partitions_(context.num_partitions),
      seed_(context.seed) {
  side_ = static_cast<uint32_t>(
      std::ceil(std::sqrt(static_cast<double>(num_partitions_))));
  if (side_ == 0) side_ = 1;
}

MachineId TwoDPartitioner::Assign(const graph::Edge& e, uint32_t pass,
                                  uint32_t loader) {
  (void)pass;
  AddWorkTicks(loader, kTicksPerWorkUnit);
  uint64_t col = Mix64(e.src ^ seed_) % side_;
  uint64_t row = Mix64(e.dst ^ seed_) % side_;
  return static_cast<MachineId>((col * side_ + row) % num_partitions_);
}

MachineId DbhPartitioner::Assign(const graph::Edge& e, uint32_t pass,
                                 uint32_t loader) {
  (void)pass;
  AddWorkTicks(loader, 30);  // 1.5 units: hash plus two degree-counter updates
  uint32_t deg_src = ++partial_degree_[e.src];
  uint32_t deg_dst = ++partial_degree_[e.dst];
  // Hash by the lower-degree endpoint (ties by id for determinism).
  graph::VertexId key =
      deg_src < deg_dst || (deg_src == deg_dst && e.src < e.dst) ? e.src
                                                                 : e.dst;
  return static_cast<MachineId>(Mix64(key ^ seed_) % num_partitions_);
}

void RegisterHashStrategies() {
  StrategyRegistry& registry = RegistryForBuiltins();
  registry.Register(StrategyInfo{
      .kind = StrategyKind::kRandom,
      .name = "Random",
      .aliases = {"Canonical Random", "CanonicalRandom"},
      .traits = {.system_families =
                     kFamilyPowerGraph | kFamilyPowerLyra | kFamilyGraphX,
                 .power_graph_rank = 0,
                 .power_lyra_rank = 0,
                 .graphx_rank = 1,
                 .in_paper_roster = true,
                 .paper_roster_rank = 10},
      .factory = [](const PartitionContext& context)
          -> std::unique_ptr<Partitioner> {
        return std::make_unique<RandomPartitioner>(context);
      }});
  registry.Register(StrategyInfo{
      .kind = StrategyKind::kAsymmetricRandom,
      .name = "Assym-Rand",
      .aliases = {},
      .traits = {.system_families = kFamilyGraphX,
                 .graphx_rank = 0,
                 .in_paper_roster = true,
                 .paper_roster_rank = 3},
      .factory = [](const PartitionContext& context)
          -> std::unique_ptr<Partitioner> {
        return std::make_unique<AsymmetricRandomPartitioner>(context);
      }});
  registry.Register(StrategyInfo{
      .kind = StrategyKind::kOneD,
      .name = "1D",
      .aliases = {},
      .traits = {.system_families = kFamilyGraphX,
                 .graphx_rank = 2,
                 .in_paper_roster = true,
                 .paper_roster_rank = 0},
      .factory = [](const PartitionContext& context)
          -> std::unique_ptr<Partitioner> {
        return std::make_unique<OneDPartitioner>(context, /*by_target=*/false);
      }});
  registry.Register(StrategyInfo{
      .kind = StrategyKind::kOneDTarget,
      .name = "1D-Target",
      .aliases = {},
      .traits = {.in_paper_roster = true, .paper_roster_rank = 1},
      .factory = [](const PartitionContext& context)
          -> std::unique_ptr<Partitioner> {
        return std::make_unique<OneDPartitioner>(context, /*by_target=*/true);
      }});
  registry.Register(StrategyInfo{
      .kind = StrategyKind::kTwoD,
      .name = "2D",
      .aliases = {},
      .traits = {.system_families = kFamilyGraphX,
                 .graphx_rank = 3,
                 .in_paper_roster = true,
                 .paper_roster_rank = 2},
      .factory = [](const PartitionContext& context)
          -> std::unique_ptr<Partitioner> {
        return std::make_unique<TwoDPartitioner>(context);
      }});
  registry.Register(StrategyInfo{
      .kind = StrategyKind::kDbh,
      .name = "DBH",
      .aliases = {},
      .traits = {.parallel_safe = false},
      .factory = [](const PartitionContext& context)
          -> std::unique_ptr<Partitioner> {
        return std::make_unique<DbhPartitioner>(context);
      }});
}

}  // namespace gdp::partition
