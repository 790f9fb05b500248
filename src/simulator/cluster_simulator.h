// ClusterSimulator: the what-if harness of the repo, in two halves.
//
//   * RunOnCluster (below): runs any Pregel program under a chosen
//     vertex→worker placement and reports simulated distributed timings —
//     the harness behind the paper's application-performance experiments
//     (§V.F).
//   * The trace-replay policy lab (simulator/trace.h +
//     simulator/policy_lab.h, re-exported here): replays recorded load
//     traces through the real IngestionService + ElasticController and
//     scores autoscaling policies on φ degradation, ρ violations,
//     rescale count and modeled migration cost.
//
// Both answer the same kind of question — "what would this cluster
// decision have cost?" — against the same CostModel currency.
#ifndef SPINNER_SIMULATOR_CLUSTER_SIMULATOR_H_
#define SPINNER_SIMULATOR_CLUSTER_SIMULATOR_H_

#include <utility>

#include "graph/csr_graph.h"
#include "pregel/engine.h"
#include "pregel/topology.h"
#include "simulator/cost_model.h"
#include "simulator/policy_lab.h"
#include "simulator/trace.h"

namespace spinner::sim {

/// Combined outcome: real engine counters + modeled cluster timings.
struct ClusterRun {
  pregel::RunStats engine_stats;
  SimulationResult simulation;
};

/// Runs `program` on `graph` distributed across `num_workers` simulated
/// machines via `placement`, then prices the run with `model`.
/// V/M are the program's vertex/message types; `init_vertex` seeds the
/// state exactly as PregelEngine's constructor does.
template <typename V, typename M>
ClusterRun RunOnCluster(const CsrGraph& graph, int num_workers,
                        pregel::Placement placement,
                        pregel::VertexProgram<V, M>& program,
                        std::function<V(VertexId)> init_vertex,
                        const CostModel& model = {},
                        int64_t max_supersteps = 100000) {
  pregel::EngineConfig config;
  config.num_workers = num_workers;
  config.max_supersteps = max_supersteps;
  pregel::PregelEngine<V, M> engine(graph, config, std::move(placement),
                                    std::move(init_vertex));
  ClusterRun run;
  run.engine_stats = engine.Run(program);
  run.simulation = Simulate(run.engine_stats, model);
  return run;
}

}  // namespace spinner::sim

#endif  // SPINNER_SIMULATOR_CLUSTER_SIMULATOR_H_
