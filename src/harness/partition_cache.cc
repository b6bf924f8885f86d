#include "harness/partition_cache.h"

#include <algorithm>
#include <utility>

#include "harness/experiment_internal.h"
#include "partition/strategy_registry.h"
#include "partition/validate.h"
#include "util/check.h"

namespace gdp::harness {

uint64_t PartitionCache::Entry::ApproxBytes() const {
  return ingest.graph.replicas.ApproxBytes() +
         post_ingress.machines.size() * sizeof(sim::Machine) +
         sizeof(post_ingress.now_seconds);
}

IngressKey PartitionCache::KeyFor(const graph::EdgeList& edges,
                                  const ExperimentSpec& spec) {
  const partition::IngestOptions options =
      internal::IngestOptionsFor(spec, obs::ExecContext{});
  IngressKey key;
  key.edge_fingerprint = edges.Fingerprint();
  key.strategy = spec.strategy;
  key.num_partitions = spec.num_machines * spec.partitions_per_machine;
  key.num_machines = spec.num_machines;
  key.num_loaders =
      spec.num_loaders == 0 ? spec.num_machines : spec.num_loaders;
  key.seed = spec.seed;
  key.master_policy = options.master_policy;
  key.use_partitioner_master_preference =
      options.use_partitioner_master_preference;
  const partition::StrategyInfo* info =
      partition::StrategyRegistry::Instance().Find(spec.strategy);
  if (info != nullptr && info->traits.memory_budget_aware) {
    key.memory_budget_bytes = spec.ingress_memory_budget_bytes;
  }
  return key;
}

std::shared_ptr<const PartitionCache::Entry> PartitionCache::Get(
    const graph::EdgeList& edges, const ExperimentSpec& spec) {
  GDP_CHECK_GT(spec.num_machines, 0u);
  const IngressKey key = KeyFor(edges, spec);
  std::shared_ptr<Slot> slot;
  bool inserted = false;
  uint64_t plan_budget = 0;
  {
    util::MutexLock lock(mu_);
    std::shared_ptr<Slot>& entry = slots_[key];
    if (entry == nullptr) {
      entry = std::make_shared<Slot>();
      inserted = true;
    }
    slot = entry;
    plan_budget = plan_budget_bytes_;
  }
  // The ingress runs outside the map lock (distinct keys build
  // concurrently); call_once serializes racers on the same key.
  bool built = false;
  std::call_once(slot->once, [&] {
    sim::Cluster cluster(spec.num_machines, sim::CostModel{});
    // The shared artifact is built with a sink-free context: which cell
    // wins the build race is scheduling-dependent, so attaching that
    // cell's trace/metrics would make the observed stream nondeterministic
    // (and the artifact itself never depends on observers anyway). Thread
    // count is resolved per-spec; results are thread-count-invariant.
    obs::ExecContext build_exec;
    build_exec.num_threads = spec.exec.num_threads;
    slot->entry.ingest = partition::IngestWithStrategy(
        edges, spec.strategy, internal::PartitionContextFor(edges, spec),
        cluster, internal::IngestOptionsFor(spec, build_exec));
    GDP_DCHECK_OK(
        partition::ValidateDistributedGraph(slot->entry.ingest.graph));
    slot->entry.post_ingress = cluster.Snapshot();
    slot->entry.plans =
        std::make_unique<engine::PlanCache>(slot->entry.ingest.graph);
    slot->entry.plans->set_byte_budget(plan_budget);
    slot->bytes = slot->entry.ApproxBytes();
    built = true;
  });
  if (built) {
    misses_->Increment();
  } else {
    hits_->Increment();
  }
  if (inserted) {
    // Admit into the byte ledger and evict oldest entries past the budget.
    // Only the slot's creator admits, so each ingress is accounted once
    // even if the slot was concurrently evicted and re-admitted.
    util::MutexLock lock(mu_);
    slot->admitted = true;
    resident_bytes_ += slot->bytes;
    admission_order_.push_back(key);
    EvictToBudgetLocked(key);
    resident_gauge_->Set(static_cast<int64_t>(resident_bytes_));
  }
  return std::shared_ptr<const Entry>(slot, &slot->entry);
}

void PartitionCache::EvictToBudgetLocked(const IngressKey& protect) {
  if (budget_bytes_ == 0) return;
  size_t scan = 0;
  while (resident_bytes_ > budget_bytes_ && scan < admission_order_.size()) {
    const IngressKey victim = admission_order_[scan];
    if (victim == protect) {
      ++scan;
      continue;
    }
    auto it = slots_.find(victim);
    if (it == slots_.end() || !it->second->admitted) {
      ++scan;
      continue;
    }
    const uint64_t bytes = it->second->bytes;
    slots_.erase(it);
    admission_order_.erase(admission_order_.begin() +
                           static_cast<ptrdiff_t>(scan));
    resident_bytes_ -= std::min(resident_bytes_, bytes);
    evictions_->Increment();
    evicted_bytes_->Add(bytes);
  }
}

void PartitionCache::set_byte_budget(uint64_t bytes) {
  util::MutexLock lock(mu_);
  budget_bytes_ = bytes;
}

uint64_t PartitionCache::byte_budget() const {
  util::MutexLock lock(mu_);
  return budget_bytes_;
}

void PartitionCache::set_plan_byte_budget(uint64_t bytes) {
  util::MutexLock lock(mu_);
  plan_budget_bytes_ = bytes;
}

uint64_t PartitionCache::resident_bytes() const {
  util::MutexLock lock(mu_);
  return resident_bytes_;
}

size_t PartitionCache::size() const {
  util::MutexLock lock(mu_);
  return slots_.size();
}

obs::CacheStats PartitionCache::stats() const {
  return obs::CacheStats{hits_->Value(), misses_->Value(),
                         bypasses_->Value()};
}

namespace {

ExperimentResult RunCellCached(const graph::EdgeList& edges,
                               const ExperimentSpec& spec,
                               PartitionCache& cache, bool ingress_only) {
  // The shared_ptr pins the entry for the duration of the run even if the
  // cache evicts it under byte pressure meanwhile.
  std::shared_ptr<const PartitionCache::Entry> entry = cache.Get(edges, spec);
  sim::Cluster cluster(spec.num_machines, sim::CostModel{});
  cluster.Restore(entry->post_ingress);

  ExperimentResult result;
  internal::PopulateIngressMetrics(entry->ingest.report, &result);
  if (!ingress_only) {
    // The compute phase runs under the caller's own sinks (the cached and
    // fresh paths start from bit-identical post-ingress cluster states, so
    // their compute spans carry identical simulated-cost fields).
    internal::RunApp(spec, entry->ingest.graph, entry->plans.get(), cluster,
                     internal::RunOptionsFor(
                         spec, internal::ExecFor(spec, /*timeline=*/nullptr)),
                     &result);
  }
  internal::FinalizeClusterMetrics(cluster, &result);
  return result;
}

}  // namespace

ExperimentResult RunExperimentCached(const graph::EdgeList& edges,
                                     const ExperimentSpec& spec,
                                     PartitionCache& cache) {
  // A recorded timeline must watch the ingress happen; run it fresh.
  if (spec.record_timeline) {
    cache.CountBypass();
    return RunExperiment(edges, spec);
  }
  return RunCellCached(edges, spec, cache, /*ingress_only=*/false);
}

ExperimentResult RunIngressOnlyCached(const graph::EdgeList& edges,
                                      const ExperimentSpec& spec,
                                      PartitionCache& cache) {
  if (spec.record_timeline) {
    cache.CountBypass();
    return RunIngressOnly(edges, spec);
  }
  return RunCellCached(edges, spec, cache, /*ingress_only=*/true);
}

}  // namespace gdp::harness
