#include "spinner/superstep_driver.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"
#include "common/string_util.h"
#include "common/timer.h"

namespace spinner {

Result<ShardedRunResult> DriveSpinnerSupersteps(
    const SpinnerConfig& config, ShardedGraphStore* store,
    std::vector<PartitionId> initial_labels, SuperstepBackend* backend,
    const ProgressObserver* observer) {
  SPINNER_CHECK(store != nullptr && backend != nullptr);
  SPINNER_RETURN_IF_ERROR(config.Validate());
  const int64_t n = store->NumVertices();
  if (n == 0) {
    return Status::InvalidArgument("cannot partition an empty graph");
  }
  const int k = config.num_partitions;
  const int S = store->num_shards();
  // A label outside [0, k) would index every per-label table out of bounds.
  for (const PartitionId label : initial_labels) {
    if (label != kNoPartition && (label < 0 || label >= k)) {
      return Status::InvalidArgument(StrFormat(
          "initial label %d out of range for k=%d", label, k));
    }
  }

  store->ResetLoads(k);
  store->labels().assign(static_cast<size_t>(n), kNoPartition);

  ShardedRunResult out;
  RunRecord& stats = out.run_stats;
  WallTimer total_timer;

  auto FinishStep = [&](const WallTimer& timer, int64_t messages) {
    SuperstepRecord step;
    step.wall_seconds = timer.ElapsedSeconds();
    step.messages_sent = messages;
    stats.per_superstep.push_back(step);
    ++stats.supersteps;
  };

  // --- Superstep 0: Initialize. Labels are the caller's fixed restart
  // labels or hash-drawn; loads accumulate shard-locally.
  {
    WallTimer step_timer;
    SuperstepBackend::InitOutcome init;
    SPINNER_RETURN_IF_ERROR(backend->Initialize(initial_labels, &init));
    int64_t messages = 0;
    for (int s = 0; s < S; ++s) messages += init.messages_out[s];
    FinishStep(step_timer, messages);
  }

  std::vector<int64_t> global_loads = store->MergedLoads();
  int64_t total_load = 0;
  for (const int64_t l : global_loads) total_load += l;

  // Per-partition capacities C_l (Eq. 5 / §III.B); total load is invariant
  // over the run, so these are too.
  std::vector<double> capacities(static_cast<size_t>(k), 0.0);
  if (config.partition_weights.empty()) {
    capacities.assign(static_cast<size_t>(k),
                      config.additional_capacity *
                          static_cast<double>(total_load) /
                          static_cast<double>(k));
  } else {
    double weight_sum = 0.0;
    for (const double w : config.partition_weights) weight_sum += w;
    for (int l = 0; l < k; ++l) {
      capacities[l] = config.additional_capacity *
                      static_cast<double>(total_load) *
                      config.partition_weights[l] / weight_sum;
    }
  }

  const bool observing = observer != nullptr && observer->active();
  double best_score = -1e300;
  int low_improvement_streak = 0;
  int64_t last_migrations = 0;

  for (;;) {
    // --- ComputeScores superstep (index 2·it − 1; the kernel's hash
    // streams are keyed by it).
    const int64_t score_step = 2 * static_cast<int64_t>(out.iterations) + 1;
    WallTimer step_timer;
    SuperstepBackend::ScoreOutcome scores;
    SPINNER_RETURN_IF_ERROR(
        backend->ComputeScores(score_step, global_loads, capacities,
                               &scores));
    ++out.iterations;
    const int iteration = out.iterations;

    double score_total = 0.0;  // fixed block-order reduction
    for (const double b : scores.block_score) score_total += b;
    const double score = score_total / static_cast<double>(n);
    FinishStep(step_timer, /*messages=*/0);

    // --- Master logic after ComputeScores: the φ/ρ history point,
    // observer callbacks and the halting check.
    if (config.record_history || observing) {
      IterationPoint pt;
      pt.iteration = iteration;
      pt.score = score;
      pt.migrations = last_migrations;
      pt.phi = total_load == 0
                   ? 1.0
                   : static_cast<double>(scores.local_weight) /
                         static_cast<double>(total_load);
      double weight_sum = 0.0;
      for (const double w : config.partition_weights) weight_sum += w;
      double rho = 0.0;
      for (size_t l = 0; l < global_loads.size(); ++l) {
        const double share =
            config.partition_weights.empty()
                ? 1.0 / static_cast<double>(k)
                : config.partition_weights[l] / weight_sum;
        const double ideal = static_cast<double>(total_load) * share;
        if (ideal > 0) {
          rho = std::max(rho,
                         static_cast<double>(global_loads[l]) / ideal);
        }
      }
      pt.rho = rho == 0.0 ? 1.0 : rho;
      pt.loads = global_loads;
      if (observing) {
        bool keep_going = true;
        if (observer->on_iteration) keep_going = observer->on_iteration(pt);
        if (observer->cancel != nullptr && observer->cancel->IsCancelled()) {
          keep_going = false;
        }
        if (!keep_going) out.cancelled = true;
      }
      if (config.record_history) out.history.push_back(std::move(pt));
    }
    if (out.cancelled) break;

    // Halting heuristic (§III.C).
    const double improvement = score - best_score;
    best_score = std::max(best_score, score);
    if (improvement < config.halt_epsilon) {
      ++low_improvement_streak;
    } else {
      low_improvement_streak = 0;
    }
    if (config.use_halting && iteration > 1 &&
        low_improvement_streak >= config.halt_window) {
      out.converged = true;
      break;
    }
    if (iteration >= config.max_iterations) break;

    // --- ComputeMigrations superstep (index 2·it). Migration counters
    // were merged by the backend before the probabilistic moves.
    const int64_t migration_step = 2 * static_cast<int64_t>(iteration);
    WallTimer mig_timer;
    SuperstepBackend::MigrateOutcome migrate;
    SPINNER_RETURN_IF_ERROR(
        backend->ComputeMigrations(migration_step, global_loads, capacities,
                                   scores.migration_counts, &migrate));
    global_loads = store->MergedLoads();
    last_migrations = migrate.migrated;
    int64_t messages = 0;
    for (int s = 0; s < S; ++s) messages += migrate.messages_out[s];
    FinishStep(mig_timer, messages);
  }

  stats.total_wall_seconds = total_timer.ElapsedSeconds();
  return out;
}

}  // namespace spinner
