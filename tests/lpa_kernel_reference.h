// Test-only reference implementation of the ComputeScores label scan as it
// was before the presence-bitmap gather: the touched-list gather
// (GatherTouched), the sparse and dense label picks and BlocksComputeScores
// with its OutDegree(v) >= k dense cutover, kept verbatim so the
// differential tests can compare the library's bitmap scan against them.
// Two deviations, neither of which changes a result: the dense pick has no
// `omp simd` pragma, and the cutover, which a build knob selected at the
// time (since removed), is a parameter: off runs every vertex sparse.
#ifndef SPINNER_TESTS_LPA_KERNEL_REFERENCE_H_
#define SPINNER_TESTS_LPA_KERNEL_REFERENCE_H_

#include <algorithm>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "common/logging.h"
#include "graph/sharded_store.h"
#include "graph/types.h"
#include "spinner/config.h"
#include "spinner/lpa_kernel.h"
#include "spinner/shard_superstep.h"

namespace spinner::lpa_kernel_reference {

using lpa::LabelChoice;
using lpa::PickTied;
using lpa::Score;

/// The sparse scan's gather: adds each arc's weight to freq[label] and
/// lists each distinct neighbor label once in `touched`, returning how
/// many. Branch-free: every arc writes its label to touched[n], and n
/// advances only on the label's first weight. With every weight >= 1 at
/// most k labels are listed, so `touched` needs k + 1 slots (a repeat
/// after all k still writes slot k). `freq` must be zero on entry.
inline size_t GatherTouched(
    std::span<const ShardedGraphStore::Target> neighbors,
    std::span<const ShardedGraphStore::Weight> weights,
    const PartitionId* labels, int64_t* freq,
    std::span<PartitionId> touched) {
  PartitionId* touched_p = touched.data();
  size_t n = 0;
  for (size_t j = 0; j < neighbors.size(); ++j) {
    const PartitionId l = labels[neighbors[j]];
    SPINNER_DCHECK(l >= 0) << "neighbor label not initialized";
    touched_p[n] = l;
    n += freq[l] == 0;
    freq[l] += weights[j];
  }
  SPINNER_DCHECK(n < touched.size()) << "a weight-0 arc listed a label twice";
  return n;
}

/// Picks the best label for a vertex among its current label and the
/// distinct labels in `touched` (the neighborhood's labels, any order),
/// scoring each with Eq. 8 via `freq`, `inv_degree` and the `penalty`
/// table. `current_score` must be Score(freq[current], inv_degree,
/// penalty[current]). The max runs branch-free over every touched label,
/// current included — its score is the same expression as
/// `current_score`, so it cannot raise the max — and stores the i-th
/// score in score_buf[i] for the tie pass. The dense scan below is
/// bit-identical.
inline LabelChoice PickLabelSparse(std::span<const int64_t> freq,
                                   std::span<const PartitionId> touched,
                                   PartitionId current, double current_score,
                                   double inv_degree,
                                   std::span<const double> penalty,
                                   std::span<double> score_buf, uint64_t seed,
                                   int64_t superstep, VertexId v) {
  const size_t n = touched.size();
  const PartitionId* touched_p = touched.data();
  const int64_t* freq_p = freq.data();
  const double* penalty_p = penalty.data();
  double* buf_p = score_buf.data();
  double best = current_score;
  for (size_t i = 0; i < n; ++i) {
    const PartitionId l = touched_p[i];
    const double s = Score(freq_p[l], inv_degree, penalty_p[l]);
    buf_p[i] = s;
    best = s > best ? s : best;
  }
  if (!(best > current_score)) return LabelChoice{current, false};
  return PickTied(
      n, [&](size_t i) { return touched_p[i]; }, buf_p, current, best, seed,
      superstep, v);
}

/// Dense variant of PickLabelSparse: scans all k labels with a branch-free
/// masked max instead of walking the touched list, writing each label's
/// (masked) score into `score_buf` (size k). Candidate set, scores and
/// tie break are identical to the sparse scan, so the two may be chosen
/// per vertex without affecting results. Pays only for vertices with at
/// least k arcs, whose gather already costs O(k).
inline LabelChoice PickLabelDense(std::span<const int64_t> freq,
                                  PartitionId current, double current_score,
                                  double inv_degree,
                                  std::span<const double> penalty,
                                  std::span<double> score_buf, uint64_t seed,
                                  int64_t superstep, VertexId v) {
  const int k = static_cast<int>(score_buf.size());
  constexpr double kMasked = -std::numeric_limits<double>::infinity();
  double best = current_score;
  const int64_t* freq_p = freq.data();
  const double* penalty_p = penalty.data();
  double* buf_p = score_buf.data();
  for (int l = 0; l < k; ++l) {
    const double s =
        static_cast<double>(freq_p[l]) * inv_degree - penalty_p[l];
    const double masked = freq_p[l] > 0 ? s : kMasked;
    buf_p[l] = masked;
    best = masked > best ? masked : best;
  }
  // `best` included current_score even when freq[current] == 0, so a
  // strictly better non-current label exists iff best moved.
  if (!(best > current_score)) return LabelChoice{current, false};
  return PickTied(
      static_cast<size_t>(k),
      [](size_t i) { return static_cast<PartitionId>(i); }, buf_p, current,
      best, seed, superstep, v);
}

/// BlocksComputeScores as it was, over the library's ShardScratch. The
/// scratch's k-slot `touched` is one slot short of GatherTouched's bound,
/// so the touched list lives in a local k + 1 buffer instead.
/// `dense_cutover`: true scans vertices with OutDegree(v) >= k densely,
/// false scans every vertex sparse (the removed knob's two builds).
inline void BlocksComputeScores(const SpinnerConfig& config,
                                const ShardedGraphStore::Shard& shard,
                                VertexId begin, VertexId end,
                                std::span<const PartitionId> labels,
                                int64_t superstep,
                                std::span<PartitionId> candidate,
                                std::span<double> block_score,
                                std::span<int32_t> block_candidates,
                                ShardScratch* scratch, VertexId index_base,
                                bool dense_cutover) {
  constexpr int64_t kBlock = ShardedGraphStore::kBlockSize;
  SPINNER_DCHECK(index_base % kBlock == 0)
      << "index_base must be block-aligned for block_score indexing";
  const int k = config.num_partitions;
  ShardScratch& sc = *scratch;
  std::vector<PartitionId> touched(static_cast<size_t>(k) + 1);
  const PartitionId* labels_p = labels.data();
  int64_t* freq_p = sc.freq.data();
  const PartitionId* touched_p = touched.data();
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
      // reading neighbor labels from the previous-superstep array.
      const auto neighbors = shard.Neighbors(v);
      const auto weights = shard.WeightsOf(v);
      const PartitionId current = labels_p[local];
      const double inv_deg = shard.InvWeightedDegreeOf(v);
      LabelChoice choice;
      int64_t freq_current = 0;
      // Vertices with at least k arcs take the dense scan: the gather
      // already costs O(k), so the branch-free masked max over all k
      // labels comes at no extra order. Below k the sparse scan costs
      // O(labels touched). Both are bit-identical (lpa_kernel.h).
      const bool dense =
          dense_cutover &&
          static_cast<int64_t>(neighbors.size()) >= static_cast<int64_t>(k);
      if (dense) {
        for (size_t j = 0; j < neighbors.size(); ++j) {
          SPINNER_DCHECK(labels_p[neighbors[j]] >= 0)
              << "neighbor label not initialized";
          freq_p[labels_p[neighbors[j]]] += weights[j];
        }
        freq_current = freq_p[current];
        const double current_score =
            Score(freq_current, inv_deg, sc.penalty[current]);
        choice = PickLabelDense(sc.freq, current, current_score, inv_deg,
                                sc.penalty, sc.score_buf, config.seed,
                                superstep, v);
        std::fill(sc.freq.begin(), sc.freq.end(), 0);
      } else {
        const size_t n =
            GatherTouched(neighbors, weights, labels_p, freq_p, touched);
        freq_current = freq_p[current];
        const double current_score =
            Score(freq_current, inv_deg, sc.penalty[current]);
        choice = PickLabelSparse(
            sc.freq, std::span<const PartitionId>(touched_p, n), current,
            current_score, inv_deg, sc.penalty, sc.score_buf, config.seed,
            superstep, v);
        for (size_t i = 0; i < n; ++i) freq_p[touched_p[i]] = 0;
      }
      // The global score uses the frozen global snapshot so the halting
      // signal is independent of the async view.
      score_sum += Score(freq_current, inv_deg, sc.penalty_base[current]);
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

}  // namespace spinner::lpa_kernel_reference

#endif  // SPINNER_TESTS_LPA_KERNEL_REFERENCE_H_
