#ifndef GDP_E2EBENCH_WORKLOADS_H_
#define GDP_E2EBENCH_WORKLOADS_H_

#include "bench_util.h"
#include "harness/experiment.h"

namespace gdp::e2ebench {

/// The four workloads. Each generates its inputs from args.seed, runs its
/// checks, and records either the end-to-end metrics (setup_s, op_s,
/// op_1t_s; main.cc adds peak_rss_mb) or, with args.trace, its per-layer
/// metrics.
void RunCellHeavyHdrf(const RunArgs& args, Report& report);
void RunCellRoadStream(const RunArgs& args, Report& report);
void RunGridRoster(const RunArgs& args, Report& report);
void RunServeMixed(const RunArgs& args, Report& report);

/// True when two cell results carry the same simulated outputs (every
/// ExperimentResult field but the timeline, compared exactly).
bool SameSimulatedResult(const harness::ExperimentResult& a,
                         const harness::ExperimentResult& b);

}  // namespace gdp::e2ebench

#endif  // GDP_E2EBENCH_WORKLOADS_H_
