// The benchmark's workloads. Each generates its inputs from the run's
// seed, drives the library through its public entry points, checks the
// outputs, and fills the report: end-to-end metrics when untraced, the
// per-layer breakdown when traced. perfbench/README.md says why each
// workload exists and which end-to-end metric each layer metric moves.
#ifndef SPINNER_PERFBENCH_WORKLOADS_H_
#define SPINNER_PERFBENCH_WORKLOADS_H_

#include "harness.h"

namespace perfbench {

/// One-shot in-process partitioning of a Twitter-like directed graph:
/// text load → Eq. 3 conversion → store build → LPA → metrics → snapshot.
void RunBatchInproc(const Options& options, Report* report);

/// The same pipeline on an undirected graph, with LPA run by forked
/// worker processes over socketpairs (dist::RunMultiProcessSpinner).
void RunBatchDist(const Options& options, Report* report);

/// Maintained partitioning under a live edge stream: Open, then one
/// producer submits events to an IngestionService that applies windows.
void RunStreamIngest(const Options& options, Report* report);

/// Slack over the configured capacity factor c that the final ρ may show
/// before the balance check fails (ρ ≤ c holds only with high
/// probability, §V.A.1).
inline constexpr double kRhoSlack = 0.05;

}  // namespace perfbench

#endif  // SPINNER_PERFBENCH_WORKLOADS_H_
