#ifndef GDP_PARTITION_REPLICA_TABLE_H_
#define GDP_PARTITION_REPLICA_TABLE_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "graph/types.h"
#include "sim/cluster.h"
#include "util/check.h"

namespace gdp::partition {

/// Dense bitset recording, per vertex, which machines hold a replica of it.
/// Supports any machine count (words are chained); the paper's clusters are
/// 9-25 machines, GraphX runs use up to a few hundred partitions.
class ReplicaTable {
 public:
  ReplicaTable() = default;
  ReplicaTable(graph::VertexId num_vertices, uint32_t num_machines);

  void Reset();

  // Add, Contains and Count sit on the greedy kernels' per-edge path (HDRF
  // calls Contains 2·P times per edge), so they are defined inline.

  /// Adds machine m to v's replica set; returns true if newly added.
  bool Add(graph::VertexId v, sim::MachineId m) {
    GDP_CHECK_LT(v, num_vertices_);
    GDP_CHECK_LT(m, num_machines_);
    uint64_t& word =
        words_[static_cast<size_t>(v) * words_per_vertex_ + m / 64];
    const uint64_t bit = 1ULL << (m % 64);
    if (word & bit) return false;
    word |= bit;
    return true;
  }

  bool Contains(graph::VertexId v, sim::MachineId m) const {
    const uint64_t word =
        words_[static_cast<size_t>(v) * words_per_vertex_ + m / 64];
    return (word >> (m % 64)) & 1;
  }

  /// Number of machines holding v.
  uint32_t Count(graph::VertexId v) const {
    uint32_t count = 0;
    const size_t base = static_cast<size_t>(v) * words_per_vertex_;
    for (uint32_t w = 0; w < words_per_vertex_; ++w) {
      count += static_cast<uint32_t>(std::popcount(words_[base + w]));
    }
    return count;
  }

  /// Lowest-indexed machine holding v, or kInvalid when none.
  sim::MachineId First(graph::VertexId v) const;

  /// All machines holding v, ascending. Allocates; hot loops use ForEach
  /// or WordsOf instead.
  std::vector<sim::MachineId> Machines(graph::VertexId v) const;

  /// Word-level view of v's replica bitset: words_per_vertex() words,
  /// machine m lives at bit m % 64 of word m / 64. Lets the greedy kernels
  /// intersect/union two replica sets with direct AND/OR on the words —
  /// no allocation, no sorted-vector merge.
  const uint64_t* WordsOf(graph::VertexId v) const {
    return words_.data() + static_cast<size_t>(v) * words_per_vertex_;
  }

  uint32_t words_per_vertex() const { return words_per_vertex_; }

  /// OR-merges `other` (same shape) into this table, word-wise. Used by the
  /// parallel ingest finalize to combine per-thread shards; bitwise OR is
  /// associative and commutative, so any merge order yields the same table.
  void MergeFrom(const ReplicaTable& other);

  /// The k-th machine (0-based, ascending order) of v's replica set.
  /// Precondition: k < Count(v).
  sim::MachineId Select(graph::VertexId v, uint32_t k) const;

  /// Calls fn(machine) for every machine in v's replica set, ascending.
  /// Allocation-free; use instead of Machines() in hot loops.
  template <typename Fn>
  void ForEach(graph::VertexId v, Fn&& fn) const {
    size_t base = static_cast<size_t>(v) * words_per_vertex_;
    for (uint32_t w = 0; w < words_per_vertex_; ++w) {
      uint64_t word = words_[base + w];
      while (word != 0) {
        fn(static_cast<sim::MachineId>(
            w * 64 + static_cast<uint32_t>(std::countr_zero(word))));
        word &= word - 1;
      }
    }
  }

  /// Average replica count over vertices for which `counted` is true (the
  /// paper's replication factor averages over vertices present in the
  /// graph).
  double AverageCount(const std::vector<bool>& counted) const;

  /// Average over all vertices with a non-empty replica set.
  double AverageCountNonEmpty() const;

  graph::VertexId num_vertices() const { return num_vertices_; }
  uint32_t num_machines() const { return num_machines_; }

  /// Bytes of backing storage (for memory accounting).
  uint64_t ApproxBytes() const { return words_.size() * sizeof(uint64_t); }

  static constexpr sim::MachineId kInvalid = static_cast<sim::MachineId>(-1);

 private:
  graph::VertexId num_vertices_ = 0;
  uint32_t num_machines_ = 0;
  uint32_t words_per_vertex_ = 0;
  std::vector<uint64_t> words_;
};

}  // namespace gdp::partition

#endif  // GDP_PARTITION_REPLICA_TABLE_H_
