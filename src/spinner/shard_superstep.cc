#include "spinner/shard_superstep.h"

#include <algorithm>
#include <bit>

#include "common/logging.h"
#include "spinner/lpa_kernel.h"

namespace spinner {

namespace {

constexpr int64_t kBlock = ShardedGraphStore::kBlockSize;

/// Arc count of the owned-vertex range [begin, end) of `shard`.
int64_t RangeArcs(const ShardedGraphStore::Shard& shard, VertexId begin,
                  VertexId end) {
  return shard.offsets[end - shard.begin] - shard.offsets[begin - shard.begin];
}

}  // namespace

void ShardScratch::Prepare(int num_partitions) {
  const auto k = static_cast<size_t>(num_partitions);
  freq.assign(k, 0);
  present.assign((k + 63) / 64, 0);
  touched.assign(k, 0);
  projected.assign(k, 0);
  penalty.assign(k, 0.0);
  async_dirty.clear();
  async_dirty.reserve(2 * static_cast<size_t>(kBlock));
  projected_base.assign(k, 0);
  capacity.assign(k, 0.0);
  penalty_base.assign(k, 0.0);
  score_buf.assign(k, 0.0);
  migrate_p.assign(k, 0.0);
  migrations.assign(k, 0);
  load_delta.assign(k, 0);
  local_weight = 0;
  migrated = 0;
  messages = 0;
}

void PrepareScoresScratch(const SpinnerConfig& config,
                          const std::vector<int64_t>& global_loads,
                          const std::vector<double>& capacities,
                          ShardScratch* scratch) {
  ShardScratch& sc = *scratch;
  lpa::FillPenalties(global_loads, capacities, sc.penalty_base);
  // The scan-time view starts at the frozen snapshot; with the §IV.A.4
  // asynchronous optimization on, BlocksComputeScores diverges it within a
  // block and restores it at the boundary.
  sc.penalty = sc.penalty_base;
  if (config.per_worker_async) {
    sc.projected_base = global_loads;
    sc.projected = global_loads;
    sc.capacity.assign(capacities.begin(), capacities.end());
    sc.async_dirty.clear();
  }
}

void PrepareMigrateScratch(const SpinnerConfig& config,
                           const std::vector<int64_t>& global_loads,
                           const std::vector<double>& capacities,
                           const std::vector<int64_t>& migration_counts,
                           ShardScratch* scratch) {
  (void)config;
  lpa::FillMigrationProbabilities(global_loads, capacities, migration_counts,
                                  scratch->migrate_p);
}

void BlocksInitialize(const SpinnerConfig& config,
                      const ShardedGraphStore::Shard& shard, VertexId begin,
                      VertexId end, std::span<PartitionId> labels,
                      std::span<const PartitionId> initial_labels,
                      ShardScratch* scratch, VertexId index_base,
                      std::span<uint8_t> label_view) {
  const int k = config.num_partitions;
  SPINNER_DCHECK(label_view.empty() || UsesByteLabelView(k));
  ShardScratch& sc = *scratch;
  const auto initial_size = static_cast<int64_t>(initial_labels.size());
  for (VertexId v = begin; v < end; ++v) {
    const VertexId local = v - index_base;
    PartitionId label =
        local < initial_size ? initial_labels[local] : kNoPartition;
    if (label == kNoPartition) {
      label = lpa::InitialLabel(config.seed, v, k);
    }
    SPINNER_DCHECK(label >= 0 && label < k);
    labels[local] = label;
    if (!label_view.empty()) label_view[local] = static_cast<uint8_t>(label);
    sc.load_delta[label] += LoadUnitsOf(config, shard.WeightedDegreeOf(v));
  }
  // Every vertex advertises its initial label along its edges.
  sc.messages += RangeArcs(shard, begin, end);
}

namespace {

/// BlocksComputeScores' body. kOneWord holds the gather's presence bitmap
/// in one register word, valid for k <= 64; otherwise it lives in
/// scratch->present. `Label` is the element type of the label array the
/// gather reads: PartitionId, or uint8_t for the one-byte view. The
/// instantiations differ only in where the bits live and how wide a
/// label read is.
template <bool kOneWord, typename Label>
void ScoreBlocks(const SpinnerConfig& config,
                 const ShardedGraphStore::Shard& shard, VertexId begin,
                 VertexId end, std::span<const Label> labels,
                 int64_t superstep, std::span<PartitionId> candidate,
                 std::span<double> block_score,
                 std::span<int32_t> block_candidates, ShardScratch* scratch,
                 VertexId index_base) {
  // uint64_t{1} << l is undefined for l >= 64.
  SPINNER_DCHECK(!kOneWord || config.num_partitions <= 64)
      << "a one-word presence bitmap holds at most 64 labels";
  SPINNER_DCHECK(sizeof(Label) == sizeof(PartitionId) ||
                 UsesByteLabelView(config.num_partitions))
      << "a one-byte label view holds at most 256 labels";
  ShardScratch& sc = *scratch;
  const Label* labels_p = labels.data();
  int64_t* freq_p = sc.freq.data();
  uint64_t* present_p = sc.present.data();
  const size_t present_words = sc.present.size();
  PartitionId* touched_p = sc.touched.data();
  double* scores_p = sc.score_buf.data();
  for (VertexId block_begin = begin; block_begin < end;
       block_begin += kBlock) {
    const VertexId block_end = std::min<VertexId>(block_begin + kBlock, end);
    double score_sum = 0.0;
    int32_t candidates_in_block = 0;
    for (VertexId v = block_begin; v < block_end; ++v) {
      const VertexId local = v - index_base;
      const int64_t deg_w = shard.WeightedDegreeOf(v);
      if (deg_w == 0) {  // isolated vertex: nothing to do
        candidate[local] = kNoPartition;
        continue;
      }
      // Weighted label frequencies over the neighborhood (Eq. 4),
      // reading neighbor labels from the previous-superstep array. No
      // arc's addresses depend on an earlier arc's loads, so the random
      // label reads of successive arcs overlap.
      const auto neighbors = shard.Neighbors(v);
      const auto weights = shard.WeightsOf(v);
      uint64_t present = 0;
      for (size_t j = 0; j < neighbors.size(); ++j) {
        const PartitionId l = labels_p[neighbors[j]];
        SPINNER_DCHECK(l >= 0 && l < config.num_partitions)
            << "neighbor label not initialized";
        if constexpr (kOneWord) {
          present |= uint64_t{1} << l;
        } else {
          present_p[l >> 6] |= uint64_t{1} << (l & 63);
        }
        freq_p[l] += weights[j];
      }
      const PartitionId current = labels_p[local];
      const double inv_deg = shard.InvWeightedDegreeOf(v);
      const int64_t freq_current = freq_p[current];
      const double current_score =
          lpa::Score(freq_current, inv_deg, sc.penalty[current]);
      // The pick walks the set bits, i.e. exactly the labels with
      // freq > 0, in label order: it scores each (current included — its
      // score is current_score, so it cannot raise the max), stores the
      // score for the tie pass and clears freq behind it.
      const double* penalty_p = sc.penalty.data();
      size_t n = 0;
      double best = current_score;
      const auto walk = [&](uint64_t bits, PartitionId first) {
        for (; bits != 0; bits &= bits - 1) {
          const PartitionId l = first + std::countr_zero(bits);
          const double s = lpa::Score(freq_p[l], inv_deg, penalty_p[l]);
          touched_p[n] = l;
          scores_p[n] = s;
          ++n;
          best = s > best ? s : best;
          freq_p[l] = 0;
        }
      };
      if constexpr (kOneWord) {
        walk(present, 0);
      } else {
        for (size_t w = 0; w < present_words; ++w) {
          walk(present_p[w], static_cast<PartitionId>(64 * w));
          present_p[w] = 0;
        }
      }
      const lpa::LabelChoice choice =
          best > current_score
              ? lpa::PickTied(
                    n, [&](size_t i) { return touched_p[i]; }, scores_p,
                    current, best, config.seed, superstep, v)
              : lpa::LabelChoice{current, false};
      // The global score uses the frozen global snapshot so the halting
      // signal is independent of the async view.
      score_sum +=
          lpa::Score(freq_current, inv_deg, sc.penalty_base[current]);
      sc.local_weight += freq_current;
      if (choice.better) {
        candidate[local] = choice.label;
        ++candidates_in_block;
        const int64_t units = LoadUnitsOf(config, deg_w);
        sc.migrations[choice.label] += units;
        if (config.per_worker_async) {
          // Later vertices in this block see the would-be move.
          sc.projected[choice.label] += units;
          sc.projected[current] -= units;
          // Same expression as lpa::FillPenalties, on the moved view.
          for (const PartitionId l : {choice.label, current}) {
            sc.penalty[l] =
                sc.capacity[l] > 0
                    ? static_cast<double>(sc.projected[l]) / sc.capacity[l]
                    : 0.0;
            sc.async_dirty.push_back(l);
          }
        }
      } else {
        candidate[local] = kNoPartition;
      }
    }
    if (config.per_worker_async && !sc.async_dirty.empty()) {
      // Restore the asynchronous view to the frozen snapshot: blocks are
      // independent of the shard count, so the penalty each vertex sees
      // is too.
      for (const PartitionId l : sc.async_dirty) {
        sc.projected[l] = sc.projected_base[l];
        sc.penalty[l] = sc.penalty_base[l];
      }
      sc.async_dirty.clear();
    }
    const int64_t block_index = (block_begin - index_base) / kBlock;
    block_score[block_index] = score_sum;
    block_candidates[block_index] = candidates_in_block;
  }
}

/// BlocksComputeScores over either label width: picks the bitmap variant
/// from k.
template <typename Label>
void DispatchScoreBlocks(const SpinnerConfig& config,
                         const ShardedGraphStore::Shard& shard,
                         VertexId begin, VertexId end,
                         std::span<const Label> labels, int64_t superstep,
                         std::span<PartitionId> candidate,
                         std::span<double> block_score,
                         std::span<int32_t> block_candidates,
                         ShardScratch* scratch, VertexId index_base) {
  SPINNER_DCHECK(index_base % kBlock == 0)
      << "index_base must be block-aligned for block_score indexing";
  const auto body = config.num_partitions <= 64 ? &ScoreBlocks<true, Label>
                                                : &ScoreBlocks<false, Label>;
  body(config, shard, begin, end, labels, superstep, candidate, block_score,
       block_candidates, scratch, index_base);
}

/// ShardComputeScores over either label width.
template <typename Label>
void ShardScores(const SpinnerConfig& config,
                 const ShardedGraphStore::Shard& shard,
                 std::span<const Label> labels,
                 const std::vector<int64_t>& global_loads,
                 const std::vector<double>& capacities, int64_t superstep,
                 std::span<PartitionId> candidate,
                 std::span<double> block_score,
                 std::span<int32_t> block_candidates, ShardScratch* scratch,
                 VertexId index_base) {
  PrepareScoresScratch(config, global_loads, capacities, scratch);
  scratch->ResetScores();
  DispatchScoreBlocks(config, shard, shard.begin, shard.end, labels,
                      superstep, candidate, block_score, block_candidates,
                      scratch, index_base);
}

}  // namespace

void BlocksComputeScores(const SpinnerConfig& config,
                         const ShardedGraphStore::Shard& shard,
                         VertexId begin, VertexId end,
                         std::span<const PartitionId> labels,
                         int64_t superstep, std::span<PartitionId> candidate,
                         std::span<double> block_score,
                         std::span<int32_t> block_candidates,
                         ShardScratch* scratch, VertexId index_base) {
  DispatchScoreBlocks(config, shard, begin, end, labels, superstep,
                      candidate, block_score, block_candidates, scratch,
                      index_base);
}

void BlocksComputeScores(const SpinnerConfig& config,
                         const ShardedGraphStore::Shard& shard,
                         VertexId begin, VertexId end,
                         std::span<const uint8_t> labels, int64_t superstep,
                         std::span<PartitionId> candidate,
                         std::span<double> block_score,
                         std::span<int32_t> block_candidates,
                         ShardScratch* scratch, VertexId index_base) {
  DispatchScoreBlocks(config, shard, begin, end, labels, superstep,
                      candidate, block_score, block_candidates, scratch,
                      index_base);
}

void BlocksComputeMigrations(const SpinnerConfig& config,
                             const ShardedGraphStore::Shard& shard,
                             VertexId begin, VertexId end,
                             std::span<PartitionId> labels, int64_t superstep,
                             std::span<const PartitionId> candidate,
                             std::span<const int32_t> block_candidates,
                             std::vector<LabelDelta>* moves,
                             ShardScratch* scratch, VertexId index_base,
                             std::span<uint8_t> label_view) {
  SPINNER_DCHECK(index_base % kBlock == 0)
      << "index_base must be block-aligned for block_candidates indexing";
  SPINNER_DCHECK(label_view.empty() ||
                 UsesByteLabelView(config.num_partitions));
  ShardScratch& sc = *scratch;
  for (VertexId block_begin = begin; block_begin < end;
       block_begin += kBlock) {
    const VertexId block_end = std::min<VertexId>(block_begin + kBlock, end);
    // ComputeScores counted this block's candidates: settled blocks cost
    // one array read, not kBlockSize branchy vertex visits.
    if (block_candidates[(block_begin - index_base) / kBlock] == 0) continue;
    for (VertexId v = block_begin; v < block_end; ++v) {
      const VertexId local = v - index_base;
      const PartitionId target = candidate[local];
      if (target == kNoPartition) continue;
      // Eq. 12–14 with b(l) frozen at the start of the iteration, as a
      // lookup into the prepared per-label table. The coin hash only runs
      // for 0 < p < 1: HashUniformDouble is in [0, 1), so p <= 0 always
      // defers and p >= 1 always accepts.
      const double p = sc.migrate_p[target];
      if (p <= 0.0) continue;  // migration deferred
      if (p < 1.0 &&
          !lpa::MigrationCoinAccepts(config.seed, v, superstep, p)) {
        continue;  // migration deferred
      }
      const PartitionId old_label = labels[local];
      const int64_t units = LoadUnitsOf(config, shard.WeightedDegreeOf(v));
      labels[local] = target;
      if (!label_view.empty()) {
        label_view[local] = static_cast<uint8_t>(target);
      }
      sc.load_delta[target] += units;
      sc.load_delta[old_label] -= units;
      ++sc.migrated;
      sc.messages += shard.OutDegree(v);  // label update to neighbors
      if (moves != nullptr) moves->push_back(LabelDelta{v, target});
    }
  }
}

int64_t ShardInitialize(const SpinnerConfig& config,
                        ShardedGraphStore::Shard* shard,
                        std::span<PartitionId> labels,
                        std::span<const PartitionId> initial_labels,
                        VertexId index_base, std::span<uint8_t> label_view) {
  const int k = config.num_partitions;
  ShardScratch scratch;
  scratch.Prepare(k);
  BlocksInitialize(config, *shard, shard->begin, shard->end, labels,
                   initial_labels, &scratch, index_base, label_view);
  shard->loads = std::move(scratch.load_delta);
  return scratch.messages;
}

void ShardComputeScores(const SpinnerConfig& config,
                        const ShardedGraphStore::Shard& shard,
                        std::span<const PartitionId> labels,
                        const std::vector<int64_t>& global_loads,
                        const std::vector<double>& capacities,
                        int64_t superstep, std::span<PartitionId> candidate,
                        std::span<double> block_score,
                        std::span<int32_t> block_candidates,
                        ShardScratch* scratch, VertexId index_base) {
  ShardScores(config, shard, labels, global_loads, capacities, superstep,
              candidate, block_score, block_candidates, scratch, index_base);
}

void ShardComputeScores(const SpinnerConfig& config,
                        const ShardedGraphStore::Shard& shard,
                        std::span<const uint8_t> labels,
                        const std::vector<int64_t>& global_loads,
                        const std::vector<double>& capacities,
                        int64_t superstep, std::span<PartitionId> candidate,
                        std::span<double> block_score,
                        std::span<int32_t> block_candidates,
                        ShardScratch* scratch, VertexId index_base) {
  ShardScores(config, shard, labels, global_loads, capacities, superstep,
              candidate, block_score, block_candidates, scratch, index_base);
}

void ShardComputeMigrations(const SpinnerConfig& config,
                            ShardedGraphStore::Shard* shard,
                            std::span<PartitionId> labels,
                            const std::vector<int64_t>& global_loads,
                            const std::vector<double>& capacities,
                            const std::vector<int64_t>& migration_counts,
                            int64_t superstep,
                            std::span<const PartitionId> candidate,
                            std::span<const int32_t> block_candidates,
                            std::vector<LabelDelta>* moves,
                            ShardScratch* scratch, VertexId index_base,
                            std::span<uint8_t> label_view) {
  PrepareMigrateScratch(config, global_loads, capacities, migration_counts,
                        scratch);
  scratch->ResetDelta();
  BlocksComputeMigrations(config, *shard, shard->begin, shard->end, labels,
                          superstep, candidate, block_candidates, moves,
                          scratch, index_base, label_view);
  for (int l = 0; l < config.num_partitions; ++l) {
    shard->loads[l] += scratch->load_delta[l];
  }
}

}  // namespace spinner
