// Tunables of the Spinner algorithm. Defaults follow the paper's evaluation
// setup (§V.A): c = 1.05, ε = 0.001, w = 5.
#ifndef SPINNER_SPINNER_CONFIG_H_
#define SPINNER_SPINNER_CONFIG_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "spinner/execution_options.h"

namespace spinner {

/// What quantity partition loads count (paper §II.A: "although our
/// approach is general, here we will focus on balancing partitions on the
/// number of edges").
enum class BalanceMode {
  /// b(l) counts weighted degrees — message traffic (the paper's default).
  kEdges,
  /// b(l) counts vertices — the objective of vertex-store systems
  /// (the paper's Wang-et-al. comparison row balances this way).
  kVertices,
};

/// Options struct (RocksDB idiom) controlling a partitioning run.
struct SpinnerConfig {
  /// k: the number of partitions to compute.
  int num_partitions = 32;

  /// What the capacity constraint counts (edges by default).
  BalanceMode balance_mode = BalanceMode::kEdges;

  /// Heterogeneous capacities (paper §III.B considers homogeneous systems
  /// "often preferred"; this generalizes to mixed clusters). When
  /// non-empty it must have one positive weight per partition; partition
  /// l's capacity becomes C_l = c·|E|·w_l/Σw. Empty = homogeneous.
  std::vector<double> partition_weights;

  /// c > 1: additional capacity factor. Capacity per partition is
  /// C = c·|E|/k (Eq. 5). Larger c converges faster but allows more
  /// unbalance; with high probability the final ρ ≤ c (§V.A.1).
  double additional_capacity = 1.05;

  /// ε: halting threshold — halt when the normalized global score improves
  /// by less than ε for `halt_window` consecutive iterations (§III.C).
  double halt_epsilon = 0.001;

  /// w: number of consecutive low-improvement iterations required to halt.
  int halt_window = 5;

  /// Hard cap on LPA iterations (one iteration = ComputeScores +
  /// ComputeMigrations). A safety net, not the normal exit.
  int max_iterations = 1000;

  /// Seed for all stochastic decisions; runs are deterministic in it.
  uint64_t seed = 42;

  /// Execution shape and endpoints (spinner/execution_options.h): shard /
  /// thread / worker-process counts, the wire payload ceiling, and the
  /// TCP endpoint configuration. Pure parallelism knobs: results are
  /// bit-identical for every choice. Outer option layers
  /// (SessionOptions::execution, PartitionerOptions::execution) win over
  /// this field-wise.
  ExecutionOptions execution = {};

  /// §IV.A.4: per-worker asynchronous load counters. Disable to ablate
  /// (the bench_ablation target measures the convergence cost).
  bool per_worker_async = true;

  /// Record per-iteration φ/ρ/score history (needed for Fig. 4 curves;
  /// small overhead, on by default).
  bool record_history = true;

  /// When false, ignore the halting heuristic and run exactly
  /// max_iterations iterations (paper Fig. 4 runs 115 iterations this way).
  bool use_halting = true;

  /// Checks the configuration for internal consistency: k ≥ 1, c > 1
  /// (Eq. 5 needs spare capacity), ε ≥ 0, halt_window ≥ 1,
  /// max_iterations ≥ 1, a valid `execution` (ExecutionOptions::Validate)
  /// and — when partition_weights is non-empty — one strictly positive
  /// weight per partition. Called by the partitioner before every run and
  /// by PartitioningSession at construction.
  Status Validate() const;
};

}  // namespace spinner

#endif  // SPINNER_SPINNER_CONFIG_H_
