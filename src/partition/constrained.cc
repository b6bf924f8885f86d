#include "partition/constrained.h"

#include <memory>
#include <utility>

#include "partition/strategy_registration.h"
#include "partition/strategy_registry.h"

#include <algorithm>
#include <cmath>

#include "util/hash.h"
#include "util/check.h"

namespace gdp::partition {

using util::HashCanonicalEdge;
using util::Mix64;

// ---------------------------------------------------------------------------
// Grid
// ---------------------------------------------------------------------------

GridPartitioner::GridPartitioner(const PartitionContext& context)
    : Partitioner(context),
      num_partitions_(context.num_partitions),
      seed_(context.seed) {
  GDP_CHECK_GE(num_partitions_, 1u);
  side_ = static_cast<uint32_t>(
      std::ceil(std::sqrt(static_cast<double>(num_partitions_))));
  if (side_ == 0) side_ = 1;
  exact_square_ = side_ * side_ == num_partitions_;
}

uint64_t GridPartitioner::CellOf(graph::VertexId v) const {
  return Mix64(v ^ seed_) % (static_cast<uint64_t>(side_) * side_);
}

MachineId GridPartitioner::Assign(const graph::Edge& e, uint32_t pass,
                                  uint32_t loader) {
  (void)pass;
  AddWorkTicks(loader, kTicksPerWorkUnit);
  uint64_t cell_u = CellOf(e.src);
  uint64_t cell_v = CellOf(e.dst);
  uint64_t r1 = cell_u / side_, c1 = cell_u % side_;
  uint64_t r2 = cell_v / side_, c2 = cell_v % side_;
  // The two canonical intersection cells of (row r1 + col c1) and
  // (row r2 + col c2); the edge hash breaks the tie so load spreads evenly.
  // Order the two candidate cells before hashing the pick so that (u, v)
  // and (v, u) land on the same machine, matching PowerGraph's Random
  // (whose canonical hashing Grid inherits).
  uint64_t candidate_a = r1 * side_ + c2;
  uint64_t candidate_b = r2 * side_ + c1;
  uint64_t lo = std::min(candidate_a, candidate_b);
  uint64_t hi = std::max(candidate_a, candidate_b);
  uint64_t pick = HashCanonicalEdge(e.src, e.dst) & 1;
  uint64_t cell = pick == 0 ? lo : hi;
  return static_cast<MachineId>(cell % num_partitions_);
}

std::vector<MachineId> GridPartitioner::ConstraintSet(
    graph::VertexId v) const {
  uint64_t cell = CellOf(v);
  uint64_t r = cell / side_, c = cell % side_;
  std::vector<MachineId> machines;
  for (uint32_t i = 0; i < side_; ++i) {
    machines.push_back(static_cast<MachineId>((r * side_ + i) %
                                              num_partitions_));
    machines.push_back(static_cast<MachineId>((i * side_ + c) %
                                              num_partitions_));
  }
  std::sort(machines.begin(), machines.end());
  machines.erase(std::unique(machines.begin(), machines.end()),
                 machines.end());
  return machines;
}

// ---------------------------------------------------------------------------
// PDS
// ---------------------------------------------------------------------------

namespace {
bool IsPrime(uint32_t n) {
  if (n < 2) return false;
  for (uint32_t d = 2; d * d <= n; ++d) {
    if (n % d == 0) return false;
  }
  return true;
}
}  // namespace

bool PdsPartitioner::IsPdsMachineCount(uint32_t n, uint32_t* p_out) {
  for (uint32_t p = 2; p * p + p + 1 <= n; ++p) {
    if (p * p + p + 1 == n && IsPrime(p)) {
      if (p_out != nullptr) *p_out = p;
      return true;
    }
  }
  return false;
}

std::optional<std::vector<uint32_t>> PdsPartitioner::FindDifferenceSet(
    uint32_t p) {
  const uint32_t n = p * p + p + 1;
  const uint32_t k = p + 1;
  // Backtracking search for {d_0 < d_1 < ... < d_k-1} with all pairwise
  // differences distinct mod n. Normalized to start 0, 1 (every planar
  // difference set has a translate/scale in this form).
  std::vector<uint32_t> set = {0, 1};
  std::vector<bool> used(n, false);
  used[1] = true;          // 1 - 0
  used[n - 1] = true;      // 0 - 1
  auto try_extend = [&](auto&& self) -> bool {
    if (set.size() == k) return true;
    for (uint32_t cand = set.back() + 1; cand < n; ++cand) {
      // Mark the candidate's new differences one at a time so collisions
      // *among* them (e.g., cand - d1 == (d2 - cand) mod n) are caught,
      // not just collisions with previously marked differences.
      std::vector<uint32_t> marked;
      bool ok = true;
      for (uint32_t d : set) {
        uint32_t fwd = (cand - d) % n;
        uint32_t bwd = (n + d - cand) % n;
        if (used[fwd] || used[bwd] || fwd == bwd) {
          ok = false;
          break;
        }
        used[fwd] = true;
        used[bwd] = true;
        marked.push_back(fwd);
        marked.push_back(bwd);
      }
      if (ok) {
        set.push_back(cand);
        if (self(self)) return true;
        set.pop_back();
      }
      for (uint32_t r : marked) used[r] = false;
    }
    return false;
  };
  if (!try_extend(try_extend)) return std::nullopt;
  return set;
}

util::StatusOr<std::unique_ptr<Partitioner>> PdsPartitioner::Create(
    const PartitionContext& context) {
  uint32_t p = 0;
  if (!IsPdsMachineCount(context.num_partitions, &p)) {
    return util::Status::InvalidArgument(
        "PDS requires p^2 + p + 1 machines for a prime p; got " +
        std::to_string(context.num_partitions));
  }
  std::optional<std::vector<uint32_t>> set = FindDifferenceSet(p);
  if (!set.has_value()) {
    return util::Status::Internal("difference-set search failed for p=" +
                                  std::to_string(p));
  }
  return std::unique_ptr<Partitioner>(
      new PdsPartitioner(context, std::move(*set)));
}

PdsPartitioner::PdsPartitioner(const PartitionContext& context,
                               std::vector<uint32_t> difference_set)
    : Partitioner(context),
      num_partitions_(context.num_partitions),
      seed_(context.seed),
      difference_set_(std::move(difference_set)) {
  constraint_sets_.resize(num_partitions_);
  for (uint32_t b = 0; b < num_partitions_; ++b) {
    for (uint32_t d : difference_set_) {
      constraint_sets_[b].push_back(
          static_cast<MachineId>((b + d) % num_partitions_));
    }
    std::sort(constraint_sets_[b].begin(), constraint_sets_[b].end());
  }
}

std::vector<MachineId> PdsPartitioner::ConstraintSet(graph::VertexId v) const {
  return constraint_sets_[Mix64(v ^ seed_) % num_partitions_];
}

MachineId PdsPartitioner::Assign(const graph::Edge& e, uint32_t pass,
                                 uint32_t loader) {
  (void)pass;
  AddWorkTicks(loader, 30);  // 1.5 units: two constraint-set lookups + merge
  const std::vector<MachineId>& su =
      constraint_sets_[Mix64(e.src ^ seed_) % num_partitions_];
  const std::vector<MachineId>& sv =
      constraint_sets_[Mix64(e.dst ^ seed_) % num_partitions_];
  // Sorted-set intersection; for distinct buckets this has exactly one
  // element (the defining property of a planar difference set).
  std::vector<MachineId> common;
  std::set_intersection(su.begin(), su.end(), sv.begin(), sv.end(),
                        std::back_inserter(common));
  GDP_CHECK(!common.empty());
  uint64_t pick = HashCanonicalEdge(e.src, e.dst) % common.size();
  return common[pick];
}


void RegisterConstrainedStrategies() {
  StrategyRegistry& registry = RegistryForBuiltins();
  registry.Register(StrategyInfo{
      .kind = StrategyKind::kGrid,
      .name = "Grid",
      .aliases = {},
      .traits = {.system_families = kFamilyPowerGraph | kFamilyPowerLyra,
                 .power_graph_rank = 1,
                 .power_lyra_rank = 1,
                 .in_paper_roster = true,
                 .paper_roster_rank = 4},
      .factory = [](const PartitionContext& context)
          -> std::unique_ptr<Partitioner> {
        return std::make_unique<GridPartitioner>(context);
      }});
  registry.Register(StrategyInfo{
      .kind = StrategyKind::kPds,
      .name = "PDS",
      .aliases = {},
      .traits = {.system_families = kFamilyPowerGraph | kFamilyPowerLyra,
                 .power_graph_rank = 4,
                 .power_lyra_rank = 5,
                 .in_paper_roster = true,
                 .paper_roster_rank = 5},
      .factory = [](const PartitionContext& context)
          -> std::unique_ptr<Partitioner> {
        auto result = PdsPartitioner::Create(context);
        GDP_CHECK(result.ok());
        return std::move(result).value();
      }});
}

}  // namespace gdp::partition
