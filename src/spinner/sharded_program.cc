#include "spinner/sharded_program.h"

#include <algorithm>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/parallel.h"
#include "spinner/shard_superstep.h"
#include "spinner/steal_schedule.h"
#include "spinner/superstep_driver.h"

namespace spinner {

namespace {

constexpr int64_t kBlock = ShardedGraphStore::kBlockSize;

/// The in-process SuperstepBackend: every phase is dealt out as kBlockSize
/// vertex blocks through the work-stealing scheduler, executed by one
/// persistent ThreadPool task per worker running the block-range phase
/// bodies (spinner/shard_superstep.h) directly over the shared store.
/// Merges follow the determinism contract of the driver: the float
/// per-block arrays are single-writer and handed over whole (the driver
/// reduces them in fixed block order), integer counters merge by
/// order-free addition — per worker for run-global sums, under the owning
/// shard's mutex for shard loads touched by stolen blocks.
class InProcessBackend final : public SuperstepBackend {
 public:
  InProcessBackend(const SpinnerConfig& config, ShardedGraphStore* store,
                   ThreadPool* pool)
      : config_(config),
        store_(store),
        pool_(pool),
        num_workers_(pool->num_threads()),
        scratch_(static_cast<size_t>(num_workers_)),
        shard_mutex_(
            std::make_unique<std::mutex[]>(store->num_shards())),
        shard_messages_(static_cast<size_t>(store->num_shards()), 0),
        blocks_per_shard_(static_cast<size_t>(store->num_shards()), 0),
        label_view_(UsesByteLabelView(config.num_partitions)
                        ? static_cast<size_t>(store->NumVertices())
                        : 0),
        candidate_(static_cast<size_t>(store->NumVertices()), kNoPartition),
        block_score_(static_cast<size_t>(store->NumBlocks()), 0.0),
        block_candidates_(static_cast<size_t>(store->NumBlocks()), 0) {
    for (ShardScratch& sc : scratch_) sc.Prepare(config.num_partitions);
    for (int s = 0; s < store->num_shards(); ++s) {
      const ShardedGraphStore::Shard& shard = store->shard(s);
      blocks_per_shard_[s] = (shard.end - shard.begin + kBlock - 1) / kBlock;
    }
  }

  Status Initialize(const std::vector<PartitionId>& initial_labels,
                    InitOutcome* out) override {
    const int S = store_->num_shards();
    const int k = config_.num_partitions;
    for (int s = 0; s < S; ++s) {
      store_->mutable_shard(s).loads.assign(static_cast<size_t>(k), 0);
    }
    std::vector<PartitionId>& labels = store_->labels();
    RunPhase([&](int worker, int s, VertexId begin, VertexId end) {
      ShardScratch& sc = scratch_[worker];
      BlocksInitialize(config_, store_->shard(s), begin, end, labels,
                       initial_labels, &sc, /*index_base=*/0, label_view_);
      ApplyLoadDelta(s, &sc);
    });
    // Initialize's message count per shard is exactly its arc count (every
    // vertex advertises its label along its edges).
    out->messages_out.resize(S);
    for (int s = 0; s < S; ++s) {
      out->messages_out[s] = store_->shard(s).NumArcs();
    }
    return Status::OK();
  }

  Status ComputeScores(int64_t superstep,
                       const std::vector<int64_t>& global_loads,
                       const std::vector<double>& capacities,
                       ScoreOutcome* out) override {
    const std::vector<PartitionId>& labels = store_->labels();
    for (ShardScratch& sc : scratch_) {
      PrepareScoresScratch(config_, global_loads, capacities, &sc);
      sc.ResetScores();
    }
    RunPhase([&](int worker, int s, VertexId begin, VertexId end) {
      if (label_view_.empty()) {
        BlocksComputeScores(config_, store_->shard(s), begin, end, labels,
                            superstep, candidate_, block_score_,
                            block_candidates_, &scratch_[worker]);
      } else {
        BlocksComputeScores(config_, store_->shard(s), begin, end,
                            std::span<const uint8_t>(label_view_), superstep,
                            candidate_, block_score_, block_candidates_,
                            &scratch_[worker]);
      }
    });
    out->block_score = block_score_;
    out->local_weight = 0;
    out->migration_counts.assign(
        static_cast<size_t>(config_.num_partitions), 0);
    for (const ShardScratch& sc : scratch_) {
      out->local_weight += sc.local_weight;
      for (size_t l = 0; l < out->migration_counts.size(); ++l) {
        out->migration_counts[l] += sc.migrations[l];
      }
    }
    return Status::OK();
  }

  Status ComputeMigrations(int64_t superstep,
                           const std::vector<int64_t>& global_loads,
                           const std::vector<double>& capacities,
                           const std::vector<int64_t>& migration_counts,
                           MigrateOutcome* out) override {
    std::vector<PartitionId>& labels = store_->labels();
    for (ShardScratch& sc : scratch_) {
      PrepareMigrateScratch(config_, global_loads, capacities,
                            migration_counts, &sc);
      sc.ResetDelta();
    }
    std::fill(shard_messages_.begin(), shard_messages_.end(), 0);
    RunPhase([&](int worker, int s, VertexId begin, VertexId end) {
      ShardScratch& sc = scratch_[worker];
      BlocksComputeMigrations(config_, store_->shard(s), begin, end, labels,
                              superstep, candidate_, block_candidates_,
                              /*moves=*/nullptr, &sc, /*index_base=*/0,
                              label_view_);
      ApplyLoadDelta(s, &sc);
    });
    out->migrated = 0;
    for (const ShardScratch& sc : scratch_) out->migrated += sc.migrated;
    out->messages_out.assign(shard_messages_.begin(), shard_messages_.end());
    return Status::OK();
  }

  /// The run's claim counters, for the result's `schedule`.
  ScheduleStats schedule_stats() const {
    const StealSchedule::Stats stats = schedule_.stats();
    return {stats.tasks, stats.stolen, phases_};
  }

 private:
  /// Deals the store's blocks out to num_workers_ pool tasks; `body`
  /// receives (worker, shard, vertex_begin, vertex_end) for every claimed
  /// block and must only touch block-owned state plus that worker's
  /// scratch. Blocks until the phase is drained.
  template <typename Body>
  void RunPhase(const Body& body) {
    schedule_.ResetPhase(blocks_per_shard_, num_workers_);
    ++phases_;
    for (int w = 0; w < num_workers_; ++w) {
      pool_->Submit([this, w, &body] {
        int s = 0;
        int64_t block = 0;
        bool stolen = false;
        while (schedule_.Claim(w, &s, &block, &stolen)) {
          const ShardedGraphStore::Shard& shard = store_->shard(s);
          const VertexId begin = shard.begin + block * kBlock;
          const VertexId end = std::min<VertexId>(begin + kBlock, shard.end);
          body(w, s, begin, end);
        }
      });
    }
    pool_->Wait();
  }

  /// Applies one block's scratch deltas (loads, message count) to the
  /// owning shard under its mutex, then rearms the scratch for the next
  /// block. Order-free integer sums: the claim order never shows in the
  /// merged loads.
  void ApplyLoadDelta(int s, ShardScratch* sc) {
    {
      std::lock_guard<std::mutex> lock(shard_mutex_[s]);
      std::vector<int64_t>& loads = store_->mutable_shard(s).loads;
      for (size_t l = 0; l < loads.size(); ++l) {
        loads[l] += sc->load_delta[l];
      }
      shard_messages_[s] += sc->messages;
    }
    std::fill(sc->load_delta.begin(), sc->load_delta.end(), 0);
    sc->messages = 0;
  }

  const SpinnerConfig& config_;
  ShardedGraphStore* store_;
  ThreadPool* pool_;
  const int num_workers_;
  /// One scratch per worker (not per shard): stealing moves workers
  /// across shards, and every scratch accumulator is grouping-invariant.
  std::vector<ShardScratch> scratch_;
  StealSchedule schedule_;
  int64_t phases_ = 0;
  /// Serializes load/message application for blocks of the same shard.
  std::unique_ptr<std::mutex[]> shard_mutex_;
  std::vector<int64_t> shard_messages_;
  std::vector<int64_t> blocks_per_shard_;
  /// One byte per vertex label when k <= 256 (UsesByteLabelView), written
  /// beside store_->labels() by Initialize and ComputeMigrations; the
  /// ComputeScores gather reads it. Empty above 256.
  std::vector<uint8_t> label_view_;
  /// Migration candidate per vertex (kNoPartition = none); written by the
  /// owning block each ComputeScores, consumed by ComputeMigrations.
  std::vector<PartitionId> candidate_;
  /// Per-block global-score partials (see driver header) and candidate
  /// counts (lets ComputeMigrations skip settled blocks).
  std::vector<double> block_score_;
  std::vector<int32_t> block_candidates_;
};

}  // namespace

int ResolveNumShards(const SpinnerConfig& config, int64_t num_vertices) {
  if (config.execution.num_shards > 0) return config.execution.num_shards;
  const int64_t blocks =
      (num_vertices + ShardedGraphStore::kBlockSize - 1) /
      ShardedGraphStore::kBlockSize;
  return static_cast<int>(
      std::clamp<int64_t>(blocks, 1, HardwareThreads()));
}

int ResolveNumThreads(const SpinnerConfig& config) {
  if (config.execution.num_threads > 0) return config.execution.num_threads;
  // Work stealing decouples threads from shards: extra threads drain
  // blocks of whatever shard has the most left, so the shard count does
  // not cap useful parallelism.
  return HardwareThreads();
}

Result<ShardedRunResult> RunShardedSpinner(
    const SpinnerConfig& config, ShardedGraphStore* store,
    std::vector<PartitionId> initial_labels, ThreadPool* pool,
    const ProgressObserver* observer) {
  SPINNER_CHECK(store != nullptr && pool != nullptr);
  SPINNER_RETURN_IF_ERROR(config.Validate());
  if (store->NumVertices() == 0) {
    return Status::InvalidArgument("cannot partition an empty graph");
  }
  InProcessBackend backend(config, store, pool);
  Result<ShardedRunResult> run = DriveSpinnerSupersteps(
      config, store, std::move(initial_labels), &backend, observer);
  if (run.ok()) run->schedule = backend.schedule_stats();
  return run;
}

}  // namespace spinner
