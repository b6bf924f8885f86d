#include "partition/replica_table.h"

#include <bit>

#include "util/check.h"

namespace gdp::partition {

ReplicaTable::ReplicaTable(graph::VertexId num_vertices,
                           uint32_t num_machines)
    : num_vertices_(num_vertices),
      num_machines_(num_machines),
      words_per_vertex_((num_machines + 63) / 64),
      words_(static_cast<size_t>(num_vertices) * words_per_vertex_, 0) {}

void ReplicaTable::Reset() { std::fill(words_.begin(), words_.end(), 0); }

void ReplicaTable::MergeFrom(const ReplicaTable& other) {
  GDP_CHECK_EQ(num_vertices_, other.num_vertices_);
  GDP_CHECK_EQ(num_machines_, other.num_machines_);
  for (size_t w = 0; w < words_.size(); ++w) {
    words_[w] |= other.words_[w];
  }
}

sim::MachineId ReplicaTable::First(graph::VertexId v) const {
  size_t base = static_cast<size_t>(v) * words_per_vertex_;
  for (uint32_t w = 0; w < words_per_vertex_; ++w) {
    if (words_[base + w] != 0) {
      return w * 64 +
             static_cast<uint32_t>(std::countr_zero(words_[base + w]));
    }
  }
  return kInvalid;
}

std::vector<sim::MachineId> ReplicaTable::Machines(graph::VertexId v) const {
  std::vector<sim::MachineId> machines;
  size_t base = static_cast<size_t>(v) * words_per_vertex_;
  for (uint32_t w = 0; w < words_per_vertex_; ++w) {
    uint64_t word = words_[base + w];
    while (word != 0) {
      uint32_t bit = static_cast<uint32_t>(std::countr_zero(word));
      machines.push_back(w * 64 + bit);
      word &= word - 1;
    }
  }
  return machines;
}

sim::MachineId ReplicaTable::Select(graph::VertexId v, uint32_t k) const {
  size_t base = static_cast<size_t>(v) * words_per_vertex_;
  for (uint32_t w = 0; w < words_per_vertex_; ++w) {
    uint64_t word = words_[base + w];
    uint32_t bits = static_cast<uint32_t>(std::popcount(word));
    if (k < bits) {
      while (k > 0) {
        word &= word - 1;
        --k;
      }
      return w * 64 + static_cast<uint32_t>(std::countr_zero(word));
    }
    k -= bits;
  }
  GDP_CHECK(false);
  return kInvalid;
}

double ReplicaTable::AverageCount(const std::vector<bool>& counted) const {
  uint64_t total = 0;
  uint64_t vertices = 0;
  for (graph::VertexId v = 0; v < num_vertices_; ++v) {
    if (v < counted.size() && counted[v]) {
      total += Count(v);
      ++vertices;
    }
  }
  return vertices > 0 ? static_cast<double>(total) / vertices : 0.0;
}

double ReplicaTable::AverageCountNonEmpty() const {
  uint64_t total = 0;
  uint64_t vertices = 0;
  for (graph::VertexId v = 0; v < num_vertices_; ++v) {
    uint32_t c = Count(v);
    if (c > 0) {
      total += c;
      ++vertices;
    }
  }
  return vertices > 0 ? static_cast<double>(total) / vertices : 0.0;
}

}  // namespace gdp::partition
