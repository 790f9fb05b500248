// Ablation bench (beyond the paper's figures; DESIGN.md §6 milestone 8):
// quantifies the design choices the paper argues for qualitatively:
//   1. per-worker asynchronous counters (§IV.A.4) — convergence speedup;
//   2. the balance penalty term of Eq. 8 — what happens to ρ without it
//      (approximated by a huge c, which flattens the penalty);
//   3. halting window w — iterations saved vs quality lost.
#include <cstdio>

#include "bench_util.h"
#include "spinner/partitioner.h"

namespace spinner::bench {
namespace {

void Run() {
  PrintBanner("ABLATIONS — design choices of the Spinner algorithm",
              "async counters speed convergence; penalty term is what "
              "creates balance; larger w trades iterations for certainty");
  StandIn lj = MakeStandIn("LJ");
  CsrGraph g = Convert(lj.graph);
  PrintStandIn(lj, g);
  const int k = 32;

  // --- 1. per-worker asynchronous counters --------------------------------
  std::printf("\n[1] per-worker async counters (k=%d, 8 shards):\n", k);
  for (bool async : {true, false}) {
    SpinnerConfig config;
    config.num_partitions = k;
    config.execution.num_shards = 8;
    config.per_worker_async = async;
    SpinnerPartitioner partitioner(config);
    auto result = partitioner.Partition(g);
    SPINNER_CHECK(result.ok());
    std::printf("  async=%-5s iterations=%-4d phi=%.3f rho=%.3f\n",
                async ? "on" : "off", result->iterations,
                result->metrics.phi, result->metrics.rho);
  }

  // --- 2. penalty term ------------------------------------------------------
  std::printf("\n[2] balance penalty (c -> inf flattens the penalty term):\n");
  for (double c : {1.05, 2.0, 100.0}) {
    SpinnerConfig config;
    config.num_partitions = k;
    config.additional_capacity = c;
    SpinnerPartitioner partitioner(config);
    auto result = partitioner.Partition(g);
    SPINNER_CHECK(result.ok());
    std::printf("  c=%-7.2f iterations=%-4d phi=%.3f rho=%.3f\n", c,
                result->iterations, result->metrics.phi,
                result->metrics.rho);
  }

  // --- 3. halting window ------------------------------------------------------
  std::printf("\n[3] halting window w (eps=0.001):\n");
  for (int w : {1, 3, 5, 10}) {
    SpinnerConfig config;
    config.num_partitions = k;
    config.halt_window = w;
    SpinnerPartitioner partitioner(config);
    auto result = partitioner.Partition(g);
    SPINNER_CHECK(result.ok());
    std::printf("  w=%-3d iterations=%-4d phi=%.3f rho=%.3f\n", w,
                result->iterations, result->metrics.phi,
                result->metrics.rho);
  }

  // --- 4. balance objective (extension: §II.A "our approach is general") ---
  std::printf("\n[4] balance objective on the hub-heavy TW stand-in "
              "(k=%d):\n", k);
  StandIn tw = MakeStandIn("TW");
  CsrGraph tw_graph = Convert(tw.graph);
  for (BalanceMode mode : {BalanceMode::kEdges, BalanceMode::kVertices}) {
    SpinnerConfig config;
    config.num_partitions = k;
    config.balance_mode = mode;
    SpinnerPartitioner partitioner(config);
    auto result = partitioner.Partition(tw_graph);
    SPINNER_CHECK(result.ok());
    // Cross-measure: how balanced is the result under the *other* metric?
    BalanceSpec other;
    other.mode = mode == BalanceMode::kEdges ? BalanceMode::kVertices
                                             : BalanceMode::kEdges;
    auto cross = ComputeMetricsEx(tw_graph, result->assignment, k, 1.05,
                                  other);
    SPINNER_CHECK(cross.ok());
    std::printf("  balance=%-8s phi=%.3f rho(objective)=%.3f "
                "rho(other metric)=%.3f\n",
                mode == BalanceMode::kEdges ? "edges" : "vertices",
                result->metrics.phi, result->metrics.rho, cross->rho);
  }

  // --- 5. heterogeneous capacities (extension: mixed clusters) ------------
  std::printf("\n[5] heterogeneous capacities (k=4, one double machine):\n");
  {
    SpinnerConfig config;
    config.num_partitions = 4;
    config.partition_weights = {2.0, 1.0, 1.0, 1.0};
    SpinnerPartitioner partitioner(config);
    auto result = partitioner.Partition(g);
    SPINNER_CHECK(result.ok());
    const double total =
        static_cast<double>(g.TotalArcWeight());
    std::printf("  load shares:");
    for (int64_t load : result->metrics.loads) {
      std::printf(" %.3f", static_cast<double>(load) / total);
    }
    std::printf("  (target 0.4/0.2/0.2/0.2)  rho=%.3f phi=%.3f\n",
                result->metrics.rho, result->metrics.phi);
  }
}

}  // namespace
}  // namespace spinner::bench

int main() {
  spinner::bench::Run();
  return 0;
}
