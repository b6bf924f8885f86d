#include "partition/partitioner.h"

#include <algorithm>

#include "partition/strategy_registry.h"
#include "util/check.h"

namespace gdp::partition {
namespace {

/// Registered strategies with the family bit set, ordered by that family's
/// rank — the paper's Table 1.1 roster orders, reconstructed from traits.
std::vector<StrategyKind> FamilyRoster(uint32_t family_bit,
                                       int StrategyTraits::* rank) {
  std::vector<const StrategyInfo*> members;
  for (const StrategyInfo* info : StrategyRegistry::Instance().All()) {
    if (info->traits.system_families & family_bit) members.push_back(info);
  }
  std::sort(members.begin(), members.end(),
            [rank](const StrategyInfo* a, const StrategyInfo* b) {
              return a->traits.*rank < b->traits.*rank;
            });
  std::vector<StrategyKind> kinds;
  kinds.reserve(members.size());
  for (const StrategyInfo* info : members) kinds.push_back(info->kind);
  return kinds;
}

}  // namespace

const std::vector<StrategyKind>& AllStrategies() {
  static const std::vector<StrategyKind> kAll = [] {
    std::vector<const StrategyInfo*> members;
    for (const StrategyInfo* info : StrategyRegistry::Instance().All()) {
      if (info->traits.in_paper_roster) members.push_back(info);
    }
    std::sort(members.begin(), members.end(),
              [](const StrategyInfo* a, const StrategyInfo* b) {
                return a->traits.paper_roster_rank <
                       b->traits.paper_roster_rank;
              });
    std::vector<StrategyKind> all;
    all.reserve(members.size());
    for (const StrategyInfo* info : members) all.push_back(info->kind);
    return all;
  }();
  return kAll;
}

const char* StrategyName(StrategyKind kind) {
  const StrategyInfo* info = StrategyRegistry::Instance().Find(kind);
  return info != nullptr ? info->name.c_str() : "Unknown";
}

util::StatusOr<StrategyKind> StrategyFromName(const std::string& name) {
  const StrategyInfo* info = StrategyRegistry::Instance().FindByName(name);
  if (info != nullptr) return info->kind;
  return util::Status::NotFound("unknown strategy: " + name);
}

std::vector<StrategyKind> PowerGraphStrategies() {
  return FamilyRoster(kFamilyPowerGraph, &StrategyTraits::power_graph_rank);
}

std::vector<StrategyKind> PowerLyraStrategies() {
  return FamilyRoster(kFamilyPowerLyra, &StrategyTraits::power_lyra_rank);
}

std::vector<StrategyKind> GraphXStrategies() {
  return FamilyRoster(kFamilyGraphX, &StrategyTraits::graphx_rank);
}

std::unique_ptr<Partitioner> MakePartitioner(
    StrategyKind kind, const PartitionContext& context) {
  const StrategyInfo* info = StrategyRegistry::Instance().Find(kind);
  GDP_CHECK(info != nullptr);
  return info->factory(context);
}

}  // namespace gdp::partition
