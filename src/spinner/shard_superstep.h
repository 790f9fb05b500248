// The per-shard bodies of Spinner's three superstep phases (Initialize,
// ComputeScores, ComputeMigrations), factored out of the in-process loop so
// every execution substrate runs literally the same code over one
// ShardedGraphStore::Shard:
//  * in-process: the work-stealing scheduler claims fixed-size block
//    sub-ranges of every shard and runs the Blocks* bodies below
//    (spinner/sharded_program.cc);
//  * cross-process: each ShardWorker process calls the whole-shard
//    wrappers over the shard slices it downloaded from the coordinator
//    (dist/worker.cc).
// Bit-identical results across substrates follow by construction — the
// floating-point and hash-decision sequence per vertex is one function, not
// two copies that could drift. The whole-shard wrappers are literally a
// loop over the Blocks* bodies, so block-granular and shard-granular
// execution cannot diverge either.
//
// All functions take *global* views (the full label array, per-label score
// tables prepared from the frozen global loads) and touch only state owned
// by the processed block range: its slice of the labels/candidate arrays,
// its entries of the per-block score and candidate-count arrays, and the
// caller's scratch accumulators. Nothing here synchronizes; the caller
// owns phase barriers, merges, and — for block-granular execution — the
// application of scratch load deltas to the owning shard's counters.
#ifndef SPINNER_SPINNER_SHARD_SUPERSTEP_H_
#define SPINNER_SPINNER_SHARD_SUPERSTEP_H_

#include <cstdint>
#include <span>
#include <vector>

#include "graph/sharded_store.h"
#include "graph/types.h"
#include "spinner/config.h"

namespace spinner {

/// One vertex's label change, the unit of cross-shard label traffic: the
/// in-process path applies these through the shared label array, the wire
/// protocol ships them as per-superstep label deltas.
struct LabelDelta {
  VertexId vertex = 0;
  PartitionId label = kNoPartition;

  friend bool operator==(const LabelDelta&, const LabelDelta&) = default;
};

/// Per-executor scratch reused across supersteps, so steady-state
/// supersteps allocate nothing. One instance per shard (sequential
/// substrates) or per worker thread (the stealing scheduler) — every
/// accumulator merges by order-free integer addition, so the grouping
/// never affects results.
struct ShardScratch {
  /// Per-label neighbor weight frequencies of the vertex being scored;
  /// zero between vertices (the label pick clears what the gather set).
  std::vector<int64_t> freq;
  /// The gather's presence bitmap for k > 64: bit l of word l / 64 is set
  /// iff freq[l] > 0. ⌈k/64⌉ words, zero between vertices like `freq`. At
  /// k <= 64 the bitmap is one word held in a register instead.
  std::vector<uint64_t> present;
  /// The labels the pick walked, in label order, k slots: the tie pass
  /// reads them next to their scores in score_buf.
  std::vector<PartitionId> touched;
  /// Block-local asynchronous load view (§IV.A.4 at block granularity)
  /// and its penalty table, restored to the global snapshot
  /// (projected_base / penalty_base) at every block boundary via the
  /// dirty-label list — O(moves in block), not O(k), per boundary.
  std::vector<int64_t> projected;
  std::vector<double> penalty;
  std::vector<PartitionId> async_dirty;
  /// Snapshots of the frozen global loads this superstep scores against
  /// and of the capacities, for the incremental async-penalty updates.
  std::vector<int64_t> projected_base;
  std::vector<double> capacity;
  /// Penalty table of the frozen global loads (lpa::FillPenalties),
  /// prepared once per ComputeScores call by PrepareScoresScratch.
  std::vector<double> penalty_base;
  /// Score of touched[i] in slot i, for the label pick's tie pass; k
  /// slots.
  std::vector<double> score_buf;
  /// Per-label migration probability table (Eq. 12–14), prepared once per
  /// ComputeMigrations call by PrepareMigrateScratch.
  std::vector<double> migrate_p;
  /// Migration counter partials m_s(l) for the current iteration.
  std::vector<int64_t> migrations;
  /// Per-label load delta of the block ranges processed since the last
  /// reset — BlocksInitialize / BlocksComputeMigrations accumulate here
  /// instead of writing shard loads, so stolen blocks of one shard can
  /// run on many threads; the caller applies the delta to the owning
  /// shard under its own synchronization.
  std::vector<int64_t> load_delta;
  /// Σ freq[current] partial (φ numerator).
  int64_t local_weight = 0;
  /// Vertices this executor migrated in the current superstep.
  int64_t migrated = 0;
  /// Label-update messages this executor sent in the current superstep.
  int64_t messages = 0;

  /// Sizes the per-label vectors for `num_partitions` labels.
  void Prepare(int num_partitions);

  /// Zeroes load_delta / migrated / messages before a block-range batch.
  void ResetDelta() {
    std::fill(load_delta.begin(), load_delta.end(), 0);
    migrated = 0;
    messages = 0;
  }

  /// Zeroes the ComputeScores partials (migrations / local_weight /
  /// messages) before a block-range batch of that phase.
  void ResetScores() {
    std::fill(migrations.begin(), migrations.end(), 0);
    local_weight = 0;
    messages = 0;
  }
};

/// Prepares the score tables for one ComputeScores superstep: the
/// penalty_base table from the frozen global loads and the async view
/// (projected + penalty) seeded from it. Pure function of
/// (global_loads, capacities), so every executor computes identical
/// tables.
void PrepareScoresScratch(const SpinnerConfig& config,
                          const std::vector<int64_t>& global_loads,
                          const std::vector<double>& capacities,
                          ShardScratch* scratch);

/// Prepares the per-label migration probability table for one
/// ComputeMigrations superstep (Eq. 12–14 hoisted out of the vertex loop).
void PrepareMigrateScratch(const SpinnerConfig& config,
                           const std::vector<int64_t>& global_loads,
                           const std::vector<double>& capacities,
                           const std::vector<int64_t>& migration_counts,
                           ShardScratch* scratch);

/// The largest k whose labels fit the gather's one-byte label view.
inline constexpr int kMaxByteViewPartitions = 256;

/// Whether ComputeScores reads a one-byte copy of the labels instead of
/// the PartitionId array; the width follows from k alone. At such a k a
/// label holder keeps the view beside its (authoritative) PartitionId
/// array and passes it to every label write below (`label_view`).
inline bool UsesByteLabelView(int num_partitions) {
  return num_partitions <= kMaxByteViewPartitions;
}

/// The load contribution of a vertex under the configured balance mode.
inline int64_t LoadUnitsOf(const SpinnerConfig& config,
                           int64_t weighted_degree) {
  return config.balance_mode == BalanceMode::kVertices ? 1 : weighted_degree;
}

// --- Block-range phase bodies -------------------------------------------
//
// Each processes the owned vertices in [begin, end) ⊆ [shard.begin,
// shard.end), where `begin` is kBlockSize-aligned relative to the block
// grid (i.e. begin − index_base divisible by kBlockSize, or == shard.begin)
// and `end` is block-aligned or shard.end. Distinct ranges touch disjoint
// state, so any assignment of ranges to threads is race-free; all float
// state is per-block, so any assignment is also bit-identical.

/// Initialize for a block range: assigns every vertex its caller-fixed
/// restart label (entries < initial_labels.size() that are not
/// kNoPartition) or a hash-drawn uniform label, accumulating initial loads
/// into scratch->load_delta and the label-advertisement message count
/// (== range arc count) into scratch->messages.
///
/// `index_base`: the global vertex id that maps to index 0 of `labels` and
/// `initial_labels`. The in-process substrate passes full global arrays
/// (base 0); a ShardWorker passes arrays covering only its owned range
/// (base = first owned vertex), keeping worker memory O(owned + boundary).
/// Hash decisions always use the *global* id, so results are identical
/// for every base.
///
/// A non-empty `label_view` (same indexing as `labels`; k <= 256) receives
/// every written label as one byte.
void BlocksInitialize(const SpinnerConfig& config,
                      const ShardedGraphStore::Shard& shard, VertexId begin,
                      VertexId end, std::span<PartitionId> labels,
                      std::span<const PartitionId> initial_labels,
                      ShardScratch* scratch, VertexId index_base = 0,
                      std::span<uint8_t> label_view = {});

/// ComputeScores for a block range: for every vertex scores the
/// neighborhood labels (Eq. 8) against the prepared penalty tables — with
/// the §IV.A.4 asynchronous view applied at fixed vertex-block
/// granularity — and records the migration candidate in `candidate`
/// (kNoPartition = stay). Fills the range's entries of `block_score` (the
/// per-block score partials the driver reduces in fixed block order) and
/// `block_candidates` (the per-block candidate counts ComputeMigrations
/// uses to skip settled blocks), and accumulates the scratch's
/// migrations/local_weight partials. Requires PrepareScoresScratch for
/// this superstep's loads first.
///
/// `index_base` shifts the owned-vertex indices of `labels`, `candidate`,
/// `block_score` and `block_candidates` (block granularity) as in
/// BlocksInitialize. Neighbor labels are read at `labels[target]`
/// verbatim: a caller with a compact array remaps the shard's CSR targets
/// to local slots first (dist/worker.h RemapToWorkerLayout).
///
/// The `uint8_t` overload reads a one-byte label view (UsesByteLabelView).
/// Both overloads run one templated body and take the same decisions for
/// the same label values.
void BlocksComputeScores(const SpinnerConfig& config,
                         const ShardedGraphStore::Shard& shard,
                         VertexId begin, VertexId end,
                         std::span<const PartitionId> labels,
                         int64_t superstep, std::span<PartitionId> candidate,
                         std::span<double> block_score,
                         std::span<int32_t> block_candidates,
                         ShardScratch* scratch, VertexId index_base = 0);
void BlocksComputeScores(const SpinnerConfig& config,
                         const ShardedGraphStore::Shard& shard,
                         VertexId begin, VertexId end,
                         std::span<const uint8_t> labels, int64_t superstep,
                         std::span<PartitionId> candidate,
                         std::span<double> block_score,
                         std::span<int32_t> block_candidates,
                         ShardScratch* scratch, VertexId index_base = 0);

/// ComputeMigrations for a block range: applies the probabilistic moves
/// (coin per (seed, superstep, vertex) against the prepared migrate_p
/// table) for every vertex with a candidate, updating the range's label
/// slice in place and accumulating load deltas into scratch->load_delta.
/// Blocks whose `block_candidates` entry is zero are skipped whole. When
/// `moves` is non-null, every applied move is appended in ascending vertex
/// order — the label deltas the wire protocol broadcasts. Accumulates
/// scratch->migrated / scratch->messages. Requires PrepareMigrateScratch
/// first. `index_base` as in BlocksComputeScores; `moves` always carry
/// *global* vertex ids regardless of the base. `label_view` as in
/// BlocksInitialize.
void BlocksComputeMigrations(const SpinnerConfig& config,
                             const ShardedGraphStore::Shard& shard,
                             VertexId begin, VertexId end,
                             std::span<PartitionId> labels, int64_t superstep,
                             std::span<const PartitionId> candidate,
                             std::span<const int32_t> block_candidates,
                             std::vector<LabelDelta>* moves,
                             ShardScratch* scratch, VertexId index_base = 0,
                             std::span<uint8_t> label_view = {});

// --- Whole-shard wrappers (sequential substrates: dist/worker.cc) -------

/// Superstep 0 for one shard: BlocksInitialize over the full shard, with
/// the load delta applied to the shard's own counters (reset to k first).
/// Returns the label-advertisement message count (== shard arc count).
int64_t ShardInitialize(const SpinnerConfig& config,
                        ShardedGraphStore::Shard* shard,
                        std::span<PartitionId> labels,
                        std::span<const PartitionId> initial_labels,
                        VertexId index_base = 0,
                        std::span<uint8_t> label_view = {});

/// ComputeScores for one shard: PrepareScoresScratch +
/// BlocksComputeScores over the full shard, over either label width.
void ShardComputeScores(const SpinnerConfig& config,
                        const ShardedGraphStore::Shard& shard,
                        std::span<const PartitionId> labels,
                        const std::vector<int64_t>& global_loads,
                        const std::vector<double>& capacities,
                        int64_t superstep, std::span<PartitionId> candidate,
                        std::span<double> block_score,
                        std::span<int32_t> block_candidates,
                        ShardScratch* scratch, VertexId index_base = 0);
void ShardComputeScores(const SpinnerConfig& config,
                        const ShardedGraphStore::Shard& shard,
                        std::span<const uint8_t> labels,
                        const std::vector<int64_t>& global_loads,
                        const std::vector<double>& capacities,
                        int64_t superstep, std::span<PartitionId> candidate,
                        std::span<double> block_score,
                        std::span<int32_t> block_candidates,
                        ShardScratch* scratch, VertexId index_base = 0);

/// ComputeMigrations for one shard: PrepareMigrateScratch +
/// BlocksComputeMigrations over the full shard, with the load delta
/// applied to the shard's own counters.
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
                            ShardScratch* scratch, VertexId index_base = 0,
                            std::span<uint8_t> label_view = {});

}  // namespace spinner

#endif  // SPINNER_SPINNER_SHARD_SUPERSTEP_H_
