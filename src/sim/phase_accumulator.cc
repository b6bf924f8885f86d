#include "sim/phase_accumulator.h"

#include <bit>
#include <cmath>
#include <cstring>

#include "util/check.h"

namespace gdp::sim {

void PhaseAccumulator::Reset(uint32_t num_machines) {
  num_machines_ = num_machines;
  counts_.assign(3 * static_cast<size_t>(num_machines), 0);
}

void PhaseAccumulator::Merge(const PhaseAccumulator& other) {
  GDP_CHECK_EQ(num_machines_, other.num_machines_);
  for (size_t i = 0; i < counts_.size(); ++i) counts_[i] += other.counts_[i];
}

void PhaseAccumulator::FlushTo(Cluster& cluster, double unit_value) const {
  for (MachineId m = 0; m < num_machines_; ++m) {
    Machine& machine = cluster.machine(m);
    if (sent_bytes(m) != 0) machine.ChargePhaseBytes(sent_bytes(m));
    if (recv_bytes(m) != 0) machine.ReceiveBytes(recv_bytes(m));
    if (work_units(m) != 0) {
      machine.AddWork(static_cast<double>(work_units(m)) * unit_value);
    }
  }
}

void PhaseAccumulator::FlushToReplay(Cluster& cluster,
                                     double unit_value) const {
  const double whole_unit = 4.0 * unit_value;
  for (MachineId m = 0; m < num_machines_; ++m) {
    Machine& machine = cluster.machine(m);
    if (sent_bytes(m) != 0) machine.ChargePhaseBytes(sent_bytes(m));
    if (recv_bytes(m) != 0) machine.ReceiveBytes(recv_bytes(m));
    GDP_DCHECK_EQ(work_units(m) % 4, 0u);
    for (uint64_t k = work_units(m) / 4; k > 0; --k) {
      machine.AddWork(whole_unit);
    }
  }
}

uint64_t PhaseAccumulator::TotalWorkUnits() const {
  uint64_t total = 0;
  for (MachineId m = 0; m < num_machines_; ++m) total += work_units(m);
  return total;
}

uint64_t PhaseAccumulator::TotalSentBytes() const {
  uint64_t total = 0;
  for (MachineId m = 0; m < num_machines_; ++m) total += sent_bytes(m);
  return total;
}

bool PhaseAccumulator::ClosedFormExact(double unit_value,
                                       uint64_t max_units) {
  if (unit_value == 0.0) return true;
  if (!std::isfinite(unit_value)) return false;
  int exponent = 0;
  double frac = std::frexp(std::fabs(unit_value), &exponent);
  // frac in [0.5, 1): scale to a 53-bit integer mantissa (exact — doubles
  // carry 53 significant bits).
  auto mantissa = static_cast<uint64_t>(std::ldexp(frac, 53));
  uint32_t odd_bits = static_cast<uint32_t>(std::bit_width(mantissa)) -
                      static_cast<uint32_t>(std::countr_zero(mantissa));
  return odd_bits + std::bit_width(max_units) <= 53;
}

}  // namespace gdp::sim
