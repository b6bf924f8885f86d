#include "partition/hep.h"

#include <algorithm>
#include <memory>
#include <numeric>
#include <utility>

#include "partition/strategy_registration.h"
#include "partition/strategy_registry.h"
#include "util/check.h"
#include "util/hash.h"

namespace gdp::partition {

using util::Mix64;

namespace {
/// Modeled resident cost of one low-degree adjacency endpoint during the
/// in-memory expansion phase: buffered edge share + CSR entry + heap/bitmap
/// amortization. The threshold search divides the budget by this.
constexpr uint64_t kHepBytesPerAdjacencyEntry = 24;
}  // namespace

HepPartitioner::HepPartitioner(const PartitionContext& context)
    : Partitioner(context),
      num_partitions_(context.num_partitions),
      seed_(context.seed),
      memory_budget_bytes_(context.memory_budget_bytes),
      degree_(context.num_vertices, 0),
      expander_(context.num_vertices, context.num_partitions) {
  GDP_CHECK_GT(context.num_vertices, 0u);
}

void HepPartitioner::PrepareForIngest(uint32_t num_loaders) {
  Partitioner::PrepareForIngest(num_loaders);
  while (degree_shards_.size() + 1 < num_loaders) {
    degree_shards_.emplace_back(degree_.size(), 0);
  }
  if (low_buffers_.size() < num_loaders) {
    low_buffers_.resize(num_loaders);
    edge_counts_.resize(num_loaders, 0);
    low_counts_.resize(num_loaders, 0);
    low_cursors_.resize(num_loaders, 0);
    all_cursors_.resize(num_loaders, 0);
  }
}

MachineId HepPartitioner::DegreeHash(const graph::Edge& e) const {
  // Hash by the lower-degree endpoint (ties by id): the hub end replicates
  // anyway, so spreading by the light end keeps its copies together.
  const uint32_t ds = degree_[e.src];
  const uint32_t dd = degree_[e.dst];
  const graph::VertexId key =
      ds < dd || (ds == dd && e.src < e.dst) ? e.src : e.dst;
  return static_cast<MachineId>(Mix64(key ^ seed_) % num_partitions_);
}

MachineId HepPartitioner::Assign(const graph::Edge& e, uint32_t pass,
                                 uint32_t loader) {
  if (pass == 0) {
    ++edge_counts_[loader];
    ++DegreeCell(loader, e.src);
    ++DegreeCell(loader, e.dst);
    AddWorkTicks(loader, 24);  // 1.2 units: two counter updates + hash
    return ProvisionalPlacement(e, seed_, num_partitions_);
  }
  if (pass == 1) {
    if (IsLowEdge(e)) {
      low_buffers_[loader].push_back(e);
      ++low_counts_[loader];
      AddWorkTicks(loader, kTicksPerWorkUnit);
      return kKeepPlacement;  // expanded at the barrier, replayed in pass 2
    }
    AddWorkTicks(loader, 30);  // 1.5 units: degree lookups + hash + move
    return DegreeHash(e);
  }
  GDP_CHECK_EQ(pass, 2u);
  const uint64_t global_index = all_cursors_[loader]++;
  AddWorkTicks(loader, 10 + amort_.ForIndex(global_index));
  if (!IsLowEdge(e)) return kKeepPlacement;
  return plan_[low_cursors_[loader]++];
}

void HepPartitioner::EndPass(uint32_t pass) {
  if (pass == 0) {
    for (const std::vector<uint32_t>& shard : degree_shards_) {
      for (size_t v = 0; v < degree_.size(); ++v) degree_[v] += shard[v];
    }
    degree_shards_.clear();
    num_edges_ = std::accumulate(edge_counts_.begin(), edge_counts_.end(),
                                 uint64_t{0});
    if (memory_budget_bytes_ == 0) {
      // Unconstrained: HEP's default tau = 4 * average degree.
      const uint64_t avg = 2 * num_edges_ / degree_.size();
      threshold_ = 4 * avg + 1;
      return;
    }
    // Largest tau whose low-degree adjacency (sum of degrees <= tau) fits
    // the budget. Walk the sorted degree multiset and stop before the
    // first degree class that would overflow — whole classes only, so tau
    // is a clean degree boundary and monotone in the budget.
    std::vector<uint32_t> sorted(degree_);
    std::sort(sorted.begin(), sorted.end());
    const uint64_t budget_entries =
        memory_budget_bytes_ / kHepBytesPerAdjacencyEntry;
    uint64_t resident = 0;
    uint64_t tau = 0;
    size_t i = 0;
    while (i < sorted.size()) {
      const uint32_t d = sorted[i];
      size_t j = i;
      uint64_t class_entries = 0;
      while (j < sorted.size() && sorted[j] == d) {
        class_entries += d;
        ++j;
      }
      if (resident + class_entries > budget_entries) break;
      resident += class_entries;
      tau = d;
      i = j;
    }
    threshold_ = tau;
    return;
  }
  if (pass == 1) {
    // Loader order = global stream order (loader blocks are contiguous and
    // ascending), so concatenation reproduces the low-edge subsequence.
    uint64_t num_low = 0;
    for (uint32_t l = 0; l < low_buffers_.size(); ++l) {
      low_cursors_[l] = num_low;
      num_low += low_counts_[l];
    }
    uint64_t pos = 0;
    for (uint32_t l = 0; l < edge_counts_.size(); ++l) {
      all_cursors_[l] = pos;
      pos += edge_counts_[l];
    }
    std::vector<graph::Edge> low_edges;
    low_edges.reserve(num_low);
    for (std::vector<graph::Edge>& buffer : low_buffers_) {
      low_edges.insert(low_edges.end(), buffer.begin(), buffer.end());
      buffer = {};
    }
    plan_.assign(num_low, 0);
    if (num_low > 0) {
      std::vector<uint64_t> identity(num_low);
      std::iota(identity.begin(), identity.end(), uint64_t{0});
      expander_.ExpandChunk(low_edges, identity,
                            num_low / num_partitions_ + 1, &plan_);
    }
    amort_ = AmortizedTicks::Of(expander_.TakeTicks(), num_edges_);
    expander_.ReleaseScratch();
    return;
  }
  plan_ = {};
}

uint64_t HepPartitioner::ApproxStateBytes() const {
  uint64_t buffered = 0;
  for (const std::vector<graph::Edge>& buffer : low_buffers_) {
    buffered += buffer.size() * sizeof(graph::Edge);
  }
  return degree_.size() * sizeof(uint32_t) + buffered +
         plan_.size() * sizeof(MachineId) + expander_.ApproxBytes() +
         (edge_counts_.size() + low_counts_.size() + low_cursors_.size() +
          all_cursors_.size()) *
             sizeof(uint64_t);
}

MachineId HepPartitioner::PreferredMaster(graph::VertexId v) const {
  if (degree_[v] <= threshold_) {
    const MachineId core = expander_.CoreOf(v);
    if (core != kKeepPlacement) return core;
  }
  return static_cast<MachineId>(Mix64(v ^ seed_) % num_partitions_);
}

void RegisterHepStrategies() {
  RegistryForBuiltins().Register(StrategyInfo{
      .kind = StrategyKind::kHep,
      .name = "HEP",
      .aliases = {},
      .traits = {.passes_required = 3,
                 .needs_degree_precompute = true,
                 .memory_budget_aware = true},
      .factory = [](const PartitionContext& context)
          -> std::unique_ptr<Partitioner> {
        return std::make_unique<HepPartitioner>(context);
      }});
}

}  // namespace gdp::partition
