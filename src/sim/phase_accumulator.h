#ifndef GDP_SIM_PHASE_ACCUMULATOR_H_
#define GDP_SIM_PHASE_ACCUMULATOR_H_

#include <cstdint>

#include "sim/cluster.h"
#include "util/cache_line.h"

namespace gdp::sim {

/// Per-thread accounting scratch for one parallel engine minor-step (also
/// used per-loader by the parallel ingress pipeline, whose unit is one
/// Partitioner work tick = 0.05 units).
///
/// The parallel GAS engine must produce *bit-identical* simulated costs at
/// any thread count, including the costs the original serial engine
/// produced. Floating-point sums are order-sensitive, so threads never call
/// Machine::AddWork directly; instead each lane counts exact integers here
/// and the engine merges + flushes them on one thread at the end of the
/// minor-step:
///
///  - Bytes are integers: any merge order gives the same totals.
///  - Compute work is only ever charged in multiples of 0.25x the run's
///    work multiplier (1x per gather/apply/scatter event, 0.25x per
///    message serialization), so lanes count integer *quarter units*.
///
/// Flushing converts units back to a double charge two ways:
///  - FlushTo: one AddWork(units * unit_value) per machine. When
///    ClosedFormExact(unit_value, max units) holds (unit_value's mantissa is
///    narrow enough that every partial sum is exactly representable — true
///    for the default work_multiplier 1.0 and any power of two), this is
///    bit-identical to the serial engine's charge-by-charge accumulation.
///  - FlushToReplay: `units / 4` repeated AddWork(4 * unit_value) calls per
///    machine, reproducing the serial engine's exact rounding sequence for
///    arbitrary multipliers when every charge was a whole work unit (the
///    gather step). O(events), but only exotic multipliers need it.
///
/// Lanes are written concurrently, one per thread, so the three counter
/// arrays live in one allocation of whole cache lines (util::LineVector):
/// two accumulators never share a line, however they are allocated.
class PhaseAccumulator {
 public:
  /// Prepares the accumulator for `num_machines` machines, zeroing it.
  void Reset(uint32_t num_machines);

  /// Charges `quarter_units` x (0.25 * work_multiplier) of compute work.
  void AddWorkUnits(MachineId m, uint64_t quarter_units) {
    counts_[kWork * num_machines_ + m] += quarter_units;
  }
  /// Counts bytes the machine sends this phase (Machine::ChargePhaseBytes).
  void ChargeSendBytes(MachineId m, uint64_t bytes) {
    counts_[kSent * num_machines_ + m] += bytes;
  }
  /// Counts bytes the machine receives (Machine::ReceiveBytes).
  void ChargeReceiveBytes(MachineId m, uint64_t bytes) {
    counts_[kRecv * num_machines_ + m] += bytes;
  }

  /// Adds another lane's counts into this one. Integer sums, so merge order
  /// never affects the flushed result.
  void Merge(const PhaseAccumulator& other);

  /// Flushes to the cluster in machine order with one closed-form AddWork
  /// per machine; see class comment for when this is exact.
  void FlushTo(Cluster& cluster, double unit_value) const;

  /// Flushes bytes like FlushTo but replays work as units/4 additions of
  /// `4 * unit_value`, matching the serial engine's rounding for arbitrary
  /// unit values. Requires every machine's units to be a multiple of 4.
  void FlushToReplay(Cluster& cluster, double unit_value) const;

  uint64_t work_units(MachineId m) const {
    return counts_[kWork * num_machines_ + m];
  }
  uint64_t sent_bytes(MachineId m) const {
    return counts_[kSent * num_machines_ + m];
  }
  uint64_t recv_bytes(MachineId m) const {
    return counts_[kRecv * num_machines_ + m];
  }

  /// First counter word (work unit of machine 0); the storage spans whole
  /// cache lines from here. For the layout test.
  const uint64_t* storage() const { return counts_.data(); }

  /// Sum of quarter-units over all machines. An integer sum in machine
  /// order, so it is bit-identical at any thread count — the value the
  /// observability spans attach as their simulated-cost breakdown.
  uint64_t TotalWorkUnits() const;
  /// Sum of sent bytes over all machines (same determinism argument).
  uint64_t TotalSentBytes() const;

  /// True when summing up to `max_units` charges of `unit_value` is exact
  /// under any association — i.e. unit_value = m * 2^e with
  /// bit_width(max_units) + bit_width(m) <= 53 — which makes FlushTo
  /// bit-identical to charge-by-charge serial accumulation.
  static bool ClosedFormExact(double unit_value, uint64_t max_units);

 private:
  /// Array index of each counter kind in counts_: kind * num_machines_ + m.
  static constexpr uint32_t kWork = 0;
  static constexpr uint32_t kSent = 1;
  static constexpr uint32_t kRecv = 2;

  uint32_t num_machines_ = 0;
  util::LineVector<uint64_t> counts_;
};

}  // namespace gdp::sim

#endif  // GDP_SIM_PHASE_ACCUMULATOR_H_
