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
//  * The label scan (BlocksComputeScores, spinner/shard_superstep.cc) is
//    one gather and one bit walk. The gather adds each arc's weight to
//    freq[l] and sets bit l of a presence bitmap — one register word when
//    k <= 64, ⌈k/64⌉ scratch words above — so no arc's store address
//    depends on an earlier arc's load. The walk visits the set bits in
//    label order, i.e. exactly the candidate set {l : freq[l] > 0}, in
//    O(labels touched): it scores each label with Score, keeps a
//    branch-free max, stores each score for the tie pass (PickTied) and
//    zeroes freq[l] behind it. The current label always competes, at the
//    same Score expression, so it cannot raise the max. Every arc weight
//    is >= 1 (CsrGraph::FromEdges and graph_io::DecodeShardSlice reject
//    0), so a set bit means freq[l] > 0.
//  * With the chain gone, the gather's cost is the random read of each
//    neighbour's label. At k <= 256 it reads a one-byte copy of the labels
//    (UsesByteLabelView) that every label write keeps in step, so four
//    times as many labels fit in a core's L2; above 256 it reads the
//    PartitionId array. Both widths run one templated body.
//  * Exact-score ties among non-current maxima are broken by the minimal
//    TieKey (lexicographic on (key, label)); the draw is still uniform
//    over the tied set and deterministic per (seed, superstep, vertex),
//    and it is a pure function of the tied label set — not of the order
//    the labels are scanned in.
#ifndef SPINNER_SPINNER_LPA_KERNEL_H_
#define SPINNER_SPINNER_LPA_KERNEL_H_

#include <algorithm>
#include <cstdint>
#include <span>

#include "common/random.h"
#include "graph/types.h"

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

/// The label scan's tie pass: among the n scanned labels whose stored
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
