// The per-vertex decision kernel of Spinner's label propagation, called by
// the per-shard phase bodies (spinner/shard_superstep.h) that every
// execution mode runs — in-process shard tasks and ShardWorker processes.
//
// Every mode must take bit-identical decisions for the same inputs — label
// choice (Eq. 8 + deterministic tie break), migration probability (Eq. 14)
// and the hash-derived random streams — so the kernel lives here exactly
// once. All randomness is stateless: hash (seed, domain, superstep, vertex)
// to get an independent stream per decision point, making every run
// reproducible for a given seed regardless of shard/worker/thread counts.
//
// Hot-loop layout (docs/PERFORMANCE.md):
//  * Eq. 8 is evaluated as freq[l]·(1/deg) − penalty[l] against per-label
//    penalty tables (FillPenalties) that hoist the load/capacity division
//    out of the per-vertex loop — the load term is identical for every
//    vertex that sees the same load view, so dividing per (vertex, label)
//    was pure waste.
//  * The best label is found by one of two interchangeable scans:
//    PickLabelSparse walks the touched-label list, PickLabelDense scans
//    all k labels. Both are branch-free max loops that store each score
//    in a buffer for the tie pass. The caller takes the dense scan only
//    when OutDegree(v) >= k: there the O(k) scan costs no more than the
//    O(deg) gather, while below k the sparse scan's O(labels touched)
//    wins, however large a share of the k labels the vertex touches.
//    Both compute the same per-label expression over the same candidate
//    set {current} ∪ {l : freq[l] > 0}, and the tie break is a pure
//    function of (seed, superstep, vertex, label set) — NOT of scan
//    order — so the two scans are bit-identical by construction and
//    callers may pick either per vertex. Both rely on every arc weight
//    being >= 1 (CsrGraph::FromEdges and graph_io::DecodeShardSlice
//    reject 0), so that freq[l] > 0 exactly for the touched labels.
//  * Exact-score ties among non-current maxima are broken by the minimal
//    TieKey (lexicographic on (key, label)); the draw is still uniform
//    over the tied set and deterministic per (seed, superstep, vertex).
#ifndef SPINNER_SPINNER_LPA_KERNEL_H_
#define SPINNER_SPINNER_LPA_KERNEL_H_

#include <algorithm>
#include <cstdint>
#include <limits>
#include <span>

#include "common/logging.h"
#include "common/random.h"
#include "graph/sharded_store.h"
#include "graph/types.h"

// SPINNER_SIMD (CMake -DSPINNER_SIMD=ON, the default) marks the dense
// per-label scans with `#pragma omp simd` (compile-time only via
// -fopenmp-simd; no OpenMP runtime dependency). On the default x86-64
// target the pragma does NOT vectorize the scan: int64→double has no
// packed conversion below AVX-512DQ, and the Release object code of
// BlocksComputeScores (GCC 12) holds only scalar cvtsi2sdq/mulsd/subsd/
// maxsd. The dense scan is fast because it is branch-free, not because it
// is SIMD (docs/PERFORMANCE.md). With the knob OFF the pragmas vanish and
// every vertex takes the sparse scan — same expressions, same results,
// byte-for-byte (the simd-parity CI lane asserts this).
#if defined(SPINNER_SIMD)
#define SPINNER_PRAGMA_SIMD _Pragma("omp simd")
#define SPINNER_PRAGMA_SIMD_REDUX(clause) _Pragma(clause)
#else
#define SPINNER_PRAGMA_SIMD
#define SPINNER_PRAGMA_SIMD_REDUX(clause)
#endif

namespace spinner::lpa {

/// Domain separators for hash-derived randomness, so distinct decision
/// kinds never share a stream.
inline constexpr uint64_t kInitDomain = 0x5049'4e49'5449'4c00ULL;
inline constexpr uint64_t kTieDomain = 0x5449'4542'5245'4b00ULL;
inline constexpr uint64_t kCoinDomain = 0x4d49'4752'4154'4500ULL;

/// Uniform random initial label in [0, k) (§III.A), deterministic in
/// (seed, vertex).
inline PartitionId InitialLabel(uint64_t seed, VertexId v, int k) {
  return static_cast<PartitionId>(
      HashUniform(HashCombine(seed, kInitDomain, static_cast<uint64_t>(v)),
                  static_cast<uint64_t>(k)));
}

/// One candidate-label term of the normalized score (Eq. 8): locality
/// freq·(1/weighted_degree) minus the precomputed load penalty of the
/// label (see FillPenalties).
inline double Score(int64_t freq, double inv_degree, double penalty) {
  return static_cast<double>(freq) * inv_degree - penalty;
}

/// Fills penalty[l] = load[l] / capacity[l] (0 when the capacity is not
/// positive) — the vertex-independent half of Eq. 8, computed once per
/// load view instead of once per (vertex, label).
inline void FillPenalties(std::span<const int64_t> loads,
                          std::span<const double> capacities,
                          std::span<double> penalty) {
  const int k = static_cast<int>(penalty.size());
  SPINNER_PRAGMA_SIMD
  for (int l = 0; l < k; ++l) {
    penalty[l] = capacities[l] > 0
                     ? static_cast<double>(loads[l]) / capacities[l]
                     : 0.0;
  }
}

/// The deterministic tie-break priority of label l for vertex v: ties at
/// the maximal score go to the label with the smallest key (then smallest
/// l). A pure function of (seed, superstep, v, l), so the winner does not
/// depend on the order candidates are scanned in.
inline uint64_t TieKey(uint64_t seed, int64_t superstep, VertexId v,
                       PartitionId l) {
  return SplitMix64(
      HashCombine(HashCombine(seed, kTieDomain, static_cast<uint64_t>(v)),
                  static_cast<uint64_t>(superstep), static_cast<uint64_t>(l)));
}

/// Outcome of scoring a vertex's candidate labels.
struct LabelChoice {
  /// Best-scoring label (== current when nothing beats it).
  PartitionId label = kNoPartition;
  /// True iff a non-current label scored strictly better.
  bool better = false;
};

/// The tie pass of both scans: among the n scanned labels whose stored
/// score equals `best`, current excluded, picks the one minimizing
/// (TieKey, label). label_of(i) is the i-th scanned label, scores[i] its
/// score from the max pass.
template <typename LabelOf>
inline LabelChoice PickTied(size_t n, const LabelOf& label_of,
                            const double* scores, PartitionId current,
                            double best, uint64_t seed, int64_t superstep,
                            VertexId v) {
  PartitionId chosen = kNoPartition;
  uint64_t chosen_key = 0;
  for (size_t i = 0; i < n; ++i) {
    const PartitionId l = label_of(i);
    if (l == current || scores[i] != best) continue;
    const uint64_t key = TieKey(seed, superstep, v, l);
    if (chosen == kNoPartition || key < chosen_key ||
        (key == chosen_key && l < chosen)) {
      chosen = l;
      chosen_key = key;
    }
  }
  return LabelChoice{chosen, true};
}

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
  SPINNER_PRAGMA_SIMD_REDUX("omp simd reduction(max : best)")
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

/// Migration probability (Eq. 14): remaining capacity r(l) over the load
/// wanting to enter, clamped to [0, 1].
inline double MigrationProbability(double remaining, double wanting) {
  if (remaining <= 0 || wanting <= 0) return 0.0;
  return std::min(1.0, remaining / wanting);
}

/// Fills p[l] = MigrationProbability(capacity[l] − load[l], wanting[l])
/// for every label: the per-vertex Eq. 12–14 evaluation is a pure table
/// lookup, since none of its inputs depend on the vertex.
inline void FillMigrationProbabilities(std::span<const int64_t> loads,
                                       std::span<const double> capacities,
                                       std::span<const int64_t> wanting,
                                       std::span<double> p) {
  const int k = static_cast<int>(p.size());
  for (int l = 0; l < k; ++l) {
    p[l] = MigrationProbability(
        capacities[l] - static_cast<double>(loads[l]),
        static_cast<double>(wanting[l]));
  }
}

/// The migration coin flip: true iff the vertex migrates this superstep.
/// Deterministic in (seed, superstep, vertex).
inline bool MigrationCoinAccepts(uint64_t seed, VertexId v, int64_t superstep,
                                 double p) {
  const uint64_t key =
      HashCombine(HashCombine(seed, kCoinDomain, static_cast<uint64_t>(v)),
                  static_cast<uint64_t>(superstep));
  return HashUniformDouble(key) < p;
}

}  // namespace spinner::lpa

#endif  // SPINNER_SPINNER_LPA_KERNEL_H_
