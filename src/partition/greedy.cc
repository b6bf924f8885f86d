#include "partition/greedy.h"

#include <memory>
#include <utility>

#include "partition/strategy_registration.h"
#include "partition/strategy_registry.h"

#include <algorithm>
#include <limits>

#include "util/hash.h"
#include "util/check.h"

namespace gdp::partition {

LoaderState::LoaderState(graph::VertexId num_vertices,
                         uint32_t num_partitions, uint64_t seed,
                         bool track_degrees)
    : replicas(num_vertices, num_partitions),
      machine_load(num_partitions, 0),
      rng(seed) {
  if (track_degrees) partial_degree.assign(num_vertices, 0);
}

uint64_t LoaderState::ApproxBytes() const {
  // The loader's replica view becomes the machine-local graph structure
  // after finalization (it is charged there, proportional to replicas);
  // the *extra* strategy state is just per-touched-vertex bookkeeping:
  // a mask word, plus a partial-degree counter for HDRF.
  uint64_t per_vertex = 8 + (partial_degree.empty() ? 0 : 4);
  return touched_vertices * per_vertex +
         machine_load.size() * sizeof(uint64_t);
}

GreedyPartitionerBase::GreedyPartitionerBase(const PartitionContext& context,
                                             bool track_degrees)
    : Partitioner(context),
      num_partitions_(context.num_partitions),
      num_vertices_(context.num_vertices),
      seed_(context.seed),
      track_degrees_(track_degrees) {
  GDP_CHECK_GE(context.num_loaders, 1u);
  loaders_.reserve(context.num_loaders);
  for (uint32_t l = 0; l < context.num_loaders; ++l) {
    loaders_.emplace_back(num_vertices_, num_partitions_,
                          util::Mix64(seed_ ^ (l + 1)), track_degrees_);
  }
}

void GreedyPartitionerBase::PrepareForIngest(uint32_t num_loaders) {
  Partitioner::PrepareForIngest(num_loaders);
  while (loaders_.size() < num_loaders) {
    uint32_t l = static_cast<uint32_t>(loaders_.size());
    loaders_.emplace_back(num_vertices_, num_partitions_,
                          util::Mix64(seed_ ^ (l + 1)), track_degrees_);
  }
}

uint64_t GreedyPartitionerBase::ApproxStateBytes() const {
  uint64_t total = 0;
  for (const LoaderState& s : loaders_) total += s.ApproxBytes();
  return total;
}

LoaderState& GreedyPartitionerBase::loader_state(uint32_t loader) {
  GDP_CHECK_LT(loader, loaders_.size());
  return loaders_[loader];
}

void GreedyPartitionerBase::ChargeGreedyWork(uint32_t loader,
                                             LoaderState& state,
                                             const graph::Edge& e,
                                             uint32_t count_src,
                                             uint32_t count_dst) {
  if (count_src == 0) ++state.touched_vertices;
  if (count_dst == 0 && e.src != e.dst) ++state.touched_vertices;
  // 2 units base + 1 unit per probed replica-set entry.
  AddWorkTicks(loader, 2 * kTicksPerWorkUnit +
                           kTicksPerWorkUnit * (count_src + count_dst));
}

namespace {

/// Least-loaded machine over the set bits of the `num_words` bitset words
/// produced by `word_at` (AND/OR of two replica rows, or one row directly);
/// reservoir-style random tie-break. Bits are visited ascending, so the
/// comparison and rng-draw sequence is identical to iterating a sorted
/// machine vector — but with zero allocation. Returns false (rng untouched)
/// when no bit is set.
template <typename WordFn>
bool LeastLoadedOverWords(uint32_t num_words, WordFn&& word_at,
                          const std::vector<uint64_t>& load,
                          util::SplitMix64& rng, MachineId* out) {
  uint64_t best = std::numeric_limits<uint64_t>::max();
  uint32_t ties = 0;
  MachineId chosen = 0;
  bool any = false;
  for (uint32_t w = 0; w < num_words; ++w) {
    uint64_t word = word_at(w);
    while (word != 0) {
      MachineId m = w * 64 + static_cast<uint32_t>(std::countr_zero(word));
      word &= word - 1;
      any = true;
      if (load[m] < best) {
        best = load[m];
        chosen = m;
        ties = 1;
      } else if (load[m] == best) {
        ++ties;
        if (rng.NextBounded(ties) == 0) chosen = m;
      }
    }
  }
  *out = chosen;
  return any;
}

MachineId LeastLoadedAll(uint32_t num_partitions,
                         const std::vector<uint64_t>& load,
                         util::SplitMix64& rng) {
  uint64_t best = std::numeric_limits<uint64_t>::max();
  uint32_t ties = 0;
  MachineId chosen = 0;
  for (MachineId m = 0; m < num_partitions; ++m) {
    if (load[m] < best) {
      best = load[m];
      chosen = m;
      ties = 1;
    } else if (load[m] == best) {
      ++ties;
      if (rng.NextBounded(ties) == 0) chosen = m;
    }
  }
  return chosen;
}

}  // namespace

MachineId ObliviousPartitioner::Assign(const graph::Edge& e, uint32_t pass,
                                       uint32_t loader) {
  GDP_CHECK_EQ(pass, 0u);
  LoaderState& state = loader_state(loader);
  const uint32_t count_src = state.replicas.Count(e.src);
  const uint32_t count_dst = state.replicas.Count(e.dst);
  ChargeGreedyWork(loader, state, e, count_src, count_dst);

  const uint64_t* a_u = state.replicas.WordsOf(e.src);
  const uint64_t* a_v = state.replicas.WordsOf(e.dst);
  const uint32_t words = state.replicas.words_per_vertex();

  MachineId target = 0;
  // Case 1: some machine already hosts both endpoints (A(u) ∩ A(v)).
  bool placed =
      count_src != 0 && count_dst != 0 &&
      LeastLoadedOverWords(
          words, [&](uint32_t w) { return a_u[w] & a_v[w]; },
          state.machine_load, state.rng, &target);
  if (!placed) {
    if (count_src == 0 && count_dst == 0) {
      // Case 3: neither endpoint placed yet — least loaded overall.
      target = LeastLoadedAll(num_partitions(), state.machine_load,
                              state.rng);
    } else if (count_dst == 0) {
      // Case 2: only u placed.
      LeastLoadedOverWords(
          words, [&](uint32_t w) { return a_u[w]; }, state.machine_load,
          state.rng, &target);
    } else if (count_src == 0) {
      // Case 2 (symmetric): only v placed.
      LeastLoadedOverWords(
          words, [&](uint32_t w) { return a_v[w]; }, state.machine_load,
          state.rng, &target);
    } else {
      // Case 4: both placed, on disjoint machines — least loaded in the
      // union A(u) ∪ A(v).
      LeastLoadedOverWords(
          words, [&](uint32_t w) { return a_u[w] | a_v[w]; },
          state.machine_load, state.rng, &target);
    }
  }

  state.replicas.Add(e.src, target);
  state.replicas.Add(e.dst, target);
  ++state.machine_load[target];
  return target;
}

MachineId HdrfPartitioner::Assign(const graph::Edge& e, uint32_t pass,
                                  uint32_t loader) {
  GDP_CHECK_EQ(pass, 0u);
  LoaderState& state = loader_state(loader);
  const uint32_t count_src = state.replicas.Count(e.src);
  const uint32_t count_dst = state.replicas.Count(e.dst);
  ChargeGreedyWork(loader, state, e, count_src, count_dst);
  // HDRF scores every machine per edge (Appendix B), unlike Oblivious
  // whose candidate set is usually just the endpoint replica sets:
  // 0.05 units per machine scored.
  AddWorkTicks(loader, num_partitions());

  double deg_u, deg_v;
  if (use_partial_degrees_ || exact_degrees_.empty()) {
    deg_u = static_cast<double>(++state.partial_degree[e.src]);
    deg_v = static_cast<double>(++state.partial_degree[e.dst]);
  } else {
    deg_u = static_cast<double>(exact_degrees_[e.src]);
    deg_v = static_cast<double>(exact_degrees_[e.dst]);
  }
  double theta_u = deg_u / (deg_u + deg_v);
  double theta_v = 1.0 - theta_u;

  // C_BAL's max/min load: one scan of the P loads, which the simulated
  // cost above already charges as part of scoring every machine.
  uint64_t heaviest = 0;
  uint64_t lightest = std::numeric_limits<uint64_t>::max();
  for (uint64_t load : state.machine_load) {
    heaviest = std::max(heaviest, load);
    lightest = std::min(lightest, load);
  }
  constexpr double kEpsilon = 1.0;

  double best_score = -std::numeric_limits<double>::infinity();
  uint32_t ties = 0;
  MachineId chosen = 0;
  for (MachineId m = 0; m < num_partitions(); ++m) {
    // C_REP: reward machines already holding an endpoint, weighted toward
    // keeping the *low-degree* endpoint unreplicated (Appendix B).
    double g_u =
        state.replicas.Contains(e.src, m) ? 1.0 + (1.0 - theta_u) : 0.0;
    double g_v =
        state.replicas.Contains(e.dst, m) ? 1.0 + (1.0 - theta_v) : 0.0;
    double c_rep = g_u + g_v;
    double c_bal = static_cast<double>(heaviest - state.machine_load[m]) /
                   (kEpsilon + static_cast<double>(heaviest - lightest));
    double score = c_rep + lambda_ * c_bal;
    if (score > best_score + 1e-12) {
      best_score = score;
      chosen = m;
      ties = 1;
    } else if (score > best_score - 1e-12) {
      ++ties;
      if (state.rng.NextBounded(ties) == 0) chosen = m;
    }
  }

  state.replicas.Add(e.src, chosen);
  state.replicas.Add(e.dst, chosen);
  ++state.machine_load[chosen];
  return chosen;
}


void RegisterGreedyStrategies() {
  StrategyRegistry& registry = RegistryForBuiltins();
  registry.Register(StrategyInfo{
      .kind = StrategyKind::kOblivious,
      .name = "Oblivious",
      .aliases = {},
      .traits = {.system_families = kFamilyPowerGraph | kFamilyPowerLyra,
                 .power_graph_rank = 2,
                 .power_lyra_rank = 2,
                 .in_paper_roster = true,
                 .paper_roster_rank = 9},
      .factory = [](const PartitionContext& context)
          -> std::unique_ptr<Partitioner> {
        return std::make_unique<ObliviousPartitioner>(context);
      }});
  registry.Register(StrategyInfo{
      .kind = StrategyKind::kHdrf,
      .name = "HDRF",
      .aliases = {},
      .traits = {.system_families = kFamilyPowerGraph,
                 .power_graph_rank = 3,
                 .in_paper_roster = true,
                 .paper_roster_rank = 6},
      .factory = [](const PartitionContext& context)
          -> std::unique_ptr<Partitioner> {
        return std::make_unique<HdrfPartitioner>(context);
      }});
}

}  // namespace gdp::partition
