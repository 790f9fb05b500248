// Per-iteration observation types shared by every Spinner entry point.
#ifndef SPINNER_SPINNER_TYPES_H_
#define SPINNER_SPINNER_TYPES_H_

#include <cstdint>
#include <vector>

namespace spinner {

/// One point of the per-iteration evolution curves (paper Fig. 4).
struct IterationPoint {
  int iteration = 0;
  /// Weighted ratio of local (intra-partition) edges φ.
  double phi = 0.0;
  /// Maximum normalized load ρ.
  double rho = 0.0;
  /// Normalized global score: score(G)/|V| (Eq. 10 scaled to [-1, 1]).
  double score = 0.0;
  /// Vertices that migrated in this iteration's ComputeMigrations step.
  int64_t migrations = 0;
  /// Snapshot of the per-partition loads b(l) at this iteration — the load
  /// vector x_t of the paper's convergence analysis (§III.C); consumed by
  /// spinner/theory.h.
  std::vector<int64_t> loads;
};

}  // namespace spinner

#endif  // SPINNER_SPINNER_TYPES_H_
