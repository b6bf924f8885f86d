#include "partition/strategy_registry.h"

#include <mutex>
#include <utility>

#include "partition/strategy_registration.h"
#include "util/check.h"

namespace gdp::partition {

StrategyRegistry& RegistryForBuiltins() {
  // Intentionally leaked: StrategyInfo pointers handed out by Find() must
  // outlive every static-destruction-order consumer.
  static StrategyRegistry* registry =
      new StrategyRegistry();  // NOLINT(no-naked-new)
  return *registry;
}

StrategyRegistry& StrategyRegistry::Instance() {
  EnsureBuiltinStrategiesRegistered();
  return RegistryForBuiltins();
}

void StrategyRegistry::Register(StrategyInfo info) {
  GDP_CHECK(info.factory != nullptr);
  GDP_CHECK(!info.name.empty());
  util::MutexLock lock(mu_);
  for (const auto& entry : entries_) {
    GDP_CHECK(entry->kind != info.kind);
    GDP_CHECK(entry->name != info.name);
    for (const std::string& alias : info.aliases) {
      GDP_CHECK(entry->name != alias);
      for (const std::string& existing : entry->aliases) {
        GDP_CHECK(existing != alias && existing != info.name);
      }
    }
  }
  entries_.push_back(std::make_unique<StrategyInfo>(std::move(info)));
}

const StrategyInfo* StrategyRegistry::Find(StrategyKind kind) const {
  util::MutexLock lock(mu_);
  for (const auto& entry : entries_) {
    if (entry->kind == kind) return entry.get();
  }
  return nullptr;
}

const StrategyInfo* StrategyRegistry::FindByName(
    const std::string& name) const {
  util::MutexLock lock(mu_);
  for (const auto& entry : entries_) {
    if (entry->name == name) return entry.get();
    for (const std::string& alias : entry->aliases) {
      if (alias == name) return entry.get();
    }
  }
  return nullptr;
}

std::vector<const StrategyInfo*> StrategyRegistry::All() const {
  util::MutexLock lock(mu_);
  std::vector<const StrategyInfo*> all;
  all.reserve(entries_.size());
  for (const auto& entry : entries_) all.push_back(entry.get());
  return all;
}

void EnsureBuiltinStrategiesRegistered() {
  // The manifest runs once, in this fixed order, so registration order —
  // and with it AllStrategies()/roster iteration order — is deterministic
  // no matter which query path hits the registry first. The hooks register
  // through RegistryForBuiltins(), not Instance(), which would re-enter
  // this call_once.
  static std::once_flag once;
  std::call_once(once, [] {
    RegisterHashStrategies();
    RegisterConstrainedStrategies();
    RegisterGreedyStrategies();
    RegisterHybridStrategies();
    RegisterChunkedStrategies();
    RegisterExpansionStrategies();
    RegisterTwoPhaseStrategies();
    RegisterHepStrategies();
  });
}

std::vector<StrategyKind> ExpansionFamilyStrategies() {
  return {StrategyKind::kNe, StrategyKind::kSne, StrategyKind::kTwoPs,
          StrategyKind::kHep};
}

std::vector<StrategyKind> MemoryBudgetAwareStrategies() {
  return StrategyRegistry::Instance().KindsWhere(
      [](const StrategyTraits& t) { return t.memory_budget_aware; });
}

}  // namespace gdp::partition
