// The three perfbench workloads. Each makes its inputs from the seed,
// measures for the configured seconds, checks every output, and fills a
// RunResult with its end-to-end metrics (untraced run) or per-layer
// metrics (traced run). README.md lists why each workload exists.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include "common.h"

namespace perfbench {

/// One-shot Moche::ExplainInto over seeded always-failing instances.
void RunExplainSweep(const RunConfig& config, Tracer* tracer,
                     RunResult* result);

/// Exact-mode DriftMonitor, 4 threads, with periodic checkpoints and a
/// final restore.
void RunFleetDrift(const RunConfig& config, Tracer* tracer,
                   RunResult* result);

/// Sketched-mode DriftMonitor, 1 thread, one large shared reference.
void RunFleetSketched(const RunConfig& config, Tracer* tracer,
                      RunResult* result);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
