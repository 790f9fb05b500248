// The LPA kernel's label scan — the presence-bitmap gather and the bit
// walk in BlocksComputeScores — must take exactly the decisions of the
// touched-list gather with its sparse and dense picks that it replaced
// (kept verbatim in lpa_kernel_reference.h): on random shards every output
// of BlocksComputeScores is compared bit for bit against the reference,
// across k on both sides of the one-word bitmap and of the one-byte label
// view, both balance modes, the asynchronous view on and off, partial
// block ranges and a worker's remapped compact layout. Per vertex, the
// reference sparse and dense picks and the bitmap scan must agree on
// random neighbourhoods, and on a graph whose out-degrees straddle k the
// library must match a sparse-only reference run. Label writes keep the
// one-byte view equal to the labels' low byte. The tie pass must not
// depend on scan order, and the table-fill helpers must match the direct
// per-label computation exactly.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <random>
#include <span>
#include <string>
#include <vector>

#include "common/random.h"
#include "dist/worker.h"
#include "graph/csr_graph.h"
#include "graph/sharded_store.h"
#include "graph/types.h"
#include "lpa_kernel_reference.h"
#include "spinner/config.h"
#include "spinner/lpa_kernel.h"
#include "spinner/shard_superstep.h"

namespace spinner {
namespace {

using Shard = ShardedGraphStore::Shard;
constexpr int64_t kBlock = ShardedGraphStore::kBlockSize;

TEST(LpaKernelTest, PickTiedIsScanOrderIndependent) {
  // The bit walk lists labels in label order where the touched-list gather
  // listed them in arc order; the tie pass must pick the same label for
  // every order.
  std::mt19937_64 rng(77);
  for (int trial = 0; trial < 500; ++trial) {
    const int k = 3 + static_cast<int>(rng() % 62);
    std::vector<PartitionId> scanned(static_cast<size_t>(k));
    for (int l = 0; l < k; ++l) scanned[l] = l;
    std::shuffle(scanned.begin(), scanned.end(), rng);
    scanned.resize(1 + rng() % k);
    // Scores from a small set make exact ties at the maximum common.
    std::vector<double> scores;
    for (size_t i = 0; i < scanned.size(); ++i) {
      scores.push_back(0.25 * static_cast<double>(rng() % 3));
    }
    const double best = *std::max_element(scores.begin(), scores.end());
    const PartitionId current = scanned[rng() % scanned.size()];
    const uint64_t seed = rng();
    const VertexId v = static_cast<VertexId>(trial);
    const auto pick = [&] {
      return lpa::PickTied(
          scanned.size(), [&](size_t i) { return scanned[i]; },
          scores.data(), current, best, seed, /*superstep=*/3, v);
    };
    const lpa::LabelChoice reference = pick();
    for (int shuffle = 0; shuffle < 5; ++shuffle) {
      // Permute labels and scores together.
      std::vector<size_t> order(scanned.size());
      for (size_t i = 0; i < order.size(); ++i) order[i] = i;
      std::shuffle(order.begin(), order.end(), rng);
      std::vector<PartitionId> labels_before = scanned;
      std::vector<double> scores_before = scores;
      for (size_t i = 0; i < order.size(); ++i) {
        scanned[i] = labels_before[order[i]];
        scores[i] = scores_before[order[i]];
      }
      const lpa::LabelChoice got = pick();
      ASSERT_EQ(got.better, reference.better) << "trial " << trial;
      ASSERT_EQ(got.label, reference.label) << "trial " << trial;
    }
  }
}

/// The random inputs of one BlocksComputeScores call.
struct ScanCase {
  SpinnerConfig config;
  Shard shard;
  /// Label array the scan reads: global ids when index_base is 0, the
  /// worker's compact slots (owned, then subscribed) otherwise.
  std::vector<PartitionId> labels;
  VertexId index_base = 0;
  int64_t num_blocks = 0;
  VertexId begin = 0;  // the scored block range
  VertexId end = 0;
  std::vector<int64_t> loads;
  std::vector<double> capacities;
  int64_t superstep = 0;
};

/// A random shard at a block-aligned offset of an n-vertex graph: isolated
/// vertices, light rows, rows around k and hubs of degree >> k, weights in
/// [1, 255] (or all 1 with equal loads when `ties`, so that exact-score
/// ties are common). With `remap` the shard is rewritten to a worker's
/// compact layout and scored at index_base = shard.begin.
ScanCase RandomCase(Rng& rng, int k, bool async, BalanceMode mode, bool ties,
                    bool remap) {
  ScanCase c;
  c.config.num_partitions = k;
  c.config.seed = rng.Next();
  c.config.per_worker_async = async;
  c.config.balance_mode = mode;
  c.superstep = 1 + static_cast<int64_t>(rng.Uniform(40));

  Shard& shard = c.shard;
  shard.begin = kBlock * static_cast<VertexId>(rng.Uniform(3));
  shard.end = shard.begin + 1 + static_cast<VertexId>(rng.Uniform(3 * kBlock));
  const int64_t n = shard.end + static_cast<int64_t>(rng.Uniform(2 * kBlock));
  shard.offsets.push_back(0);
  for (VertexId v = shard.begin; v < shard.end; ++v) {
    int64_t degree = 0;
    const uint64_t kind = rng.Uniform(20);
    if (kind == 0) {
      degree = 0;  // isolated
    } else if (kind == 1) {
      degree = 4 * k + static_cast<int64_t>(rng.Uniform(64));  // hub
    } else if (kind < 6) {
      degree = k / 2 + static_cast<int64_t>(rng.Uniform(k + 1));
    } else {
      degree = 1 + static_cast<int64_t>(rng.Uniform(12));
    }
    int64_t weighted = 0;
    for (int64_t a = 0; a < degree; ++a) {
      shard.targets.push_back(
          static_cast<ShardedGraphStore::Target>(rng.Uniform(n)));
      const auto w = static_cast<ShardedGraphStore::Weight>(
          ties ? 1 : 1 + rng.Uniform(rng.Uniform(2) == 0 ? 2 : 255));
      shard.weights.push_back(w);
      weighted += w;
    }
    shard.offsets.push_back(static_cast<int64_t>(shard.targets.size()));
    shard.weighted_degree.push_back(weighted);
  }
  shard.RebuildInvDegrees();

  // Skewed labels: a few labels dominate, so vertices touch anywhere from
  // one to all k labels.
  const auto draw_label = [&] {
    const auto a = static_cast<int64_t>(rng.Uniform(k));
    const auto b = static_cast<int64_t>(rng.Uniform(k));
    return static_cast<PartitionId>(rng.Uniform(2) == 0 ? a : a * b / k);
  };
  if (remap) {
    auto layout = dist::RemapToWorkerLayout(std::span<Shard>(&shard, 1), n);
    SPINNER_CHECK(layout.ok()) << layout.status();
    c.index_base = layout->owned_begin;
    c.num_blocks = layout->num_blocks();
    c.labels.resize(static_cast<size_t>(layout->num_slots()));
  } else {
    c.index_base = 0;
    c.num_blocks = (n + kBlock - 1) / kBlock;
    c.labels.resize(static_cast<size_t>(n));
  }
  for (PartitionId& l : c.labels) l = draw_label();

  // The scored range: the whole shard, or a block-aligned sub-range.
  const int64_t shard_blocks =
      (shard.end - shard.begin + kBlock - 1) / kBlock;
  const int64_t first = static_cast<int64_t>(rng.Uniform(shard_blocks));
  const int64_t last =
      first + 1 + static_cast<int64_t>(rng.Uniform(shard_blocks - first));
  const bool whole = rng.Uniform(2) == 0;
  c.begin = whole ? shard.begin : shard.begin + first * kBlock;
  c.end = whole ? shard.end
                : std::min<VertexId>(shard.end, shard.begin + last * kBlock);

  c.loads.assign(static_cast<size_t>(k), 0);
  c.capacities.assign(static_cast<size_t>(k), 0.0);
  int64_t total = 0;
  for (int l = 0; l < k; ++l) {
    c.loads[l] = ties ? 1000 : static_cast<int64_t>(rng.Uniform(5000));
    total += c.loads[l];
  }
  for (int l = 0; l < k; ++l) {
    // A non-positive capacity scores a zero penalty.
    c.capacities[l] = !ties && rng.Uniform(16) == 0
                          ? 0.0
                          : 1.05 * static_cast<double>(total) / k;
  }
  return c;
}

/// BlocksComputeScores' outputs for one call.
struct ScanOutput {
  std::vector<PartitionId> candidate;
  std::vector<uint64_t> block_score_bits;
  std::vector<int32_t> block_candidates;
  std::vector<int64_t> migrations;
  int64_t local_weight = 0;
};

/// Runs `scan` (library or reference) over the case from a fresh scratch,
/// with sentinels in every output slot the range does not own.
template <typename Scan>
ScanOutput RunScan(const ScanCase& c, const Scan& scan,
                   ShardScratch* sc_out = nullptr) {
  ShardScratch local;
  ShardScratch& sc = sc_out != nullptr ? *sc_out : local;
  sc.Prepare(c.config.num_partitions);
  PrepareScoresScratch(c.config, c.loads, c.capacities, &sc);
  sc.ResetScores();
  std::vector<PartitionId> candidate(c.labels.size(), -7);
  std::vector<double> block_score(static_cast<size_t>(c.num_blocks), -1.5);
  std::vector<int32_t> block_candidates(static_cast<size_t>(c.num_blocks),
                                        -3);
  scan(c, candidate, block_score, block_candidates, &sc);
  ScanOutput out;
  out.candidate = std::move(candidate);
  for (const double s : block_score) {
    out.block_score_bits.push_back(std::bit_cast<uint64_t>(s));
  }
  out.block_candidates = std::move(block_candidates);
  out.migrations = sc.migrations;
  out.local_weight = sc.local_weight;
  return out;
}

void ExpectSameOutput(const ScanOutput& got, const ScanOutput& want,
                      const std::string& what) {
  EXPECT_EQ(got.candidate, want.candidate) << what;
  EXPECT_EQ(got.block_score_bits, want.block_score_bits) << what;
  EXPECT_EQ(got.block_candidates, want.block_candidates) << what;
  EXPECT_EQ(got.migrations, want.migrations) << what;
  EXPECT_EQ(got.local_weight, want.local_weight) << what;
}

/// Compares the library scan against the reference with and without its
/// dense cutover, and checks the scan leaves freq and the bitmap zero.
/// When k <= 256 the scan also runs over a one-byte copy of the labels,
/// which must give identical outputs. Returns how many migration
/// candidates the scan chose.
int64_t CheckAgainstReference(const ScanCase& c, const std::string& what) {
  ShardScratch sc;
  const ScanOutput got = RunScan(
      c,
      [](const ScanCase& c, std::span<PartitionId> candidate,
         std::span<double> block_score, std::span<int32_t> block_candidates,
         ShardScratch* sc) {
        BlocksComputeScores(c.config, c.shard, c.begin, c.end, c.labels,
                            c.superstep, candidate, block_score,
                            block_candidates, sc, c.index_base);
      },
      &sc);
  EXPECT_TRUE(std::all_of(sc.freq.begin(), sc.freq.end(),
                          [](int64_t f) { return f == 0; }))
      << what;
  EXPECT_TRUE(std::all_of(sc.present.begin(), sc.present.end(),
                          [](uint64_t w) { return w == 0; }))
      << what;
  if (UsesByteLabelView(c.config.num_partitions)) {
    const std::vector<uint8_t> view(c.labels.begin(), c.labels.end());
    ShardScratch byte_sc;
    const ScanOutput narrow = RunScan(
        c,
        [&](const ScanCase& c, std::span<PartitionId> candidate,
            std::span<double> block_score,
            std::span<int32_t> block_candidates, ShardScratch* sc) {
          BlocksComputeScores(c.config, c.shard, c.begin, c.end,
                              std::span<const uint8_t>(view), c.superstep,
                              candidate, block_score, block_candidates, sc,
                              c.index_base);
        },
        &byte_sc);
    ExpectSameOutput(narrow, got, what + " byte view");
    EXPECT_TRUE(std::all_of(byte_sc.freq.begin(), byte_sc.freq.end(),
                            [](int64_t f) { return f == 0; }))
        << what << " byte view";
  }
  for (const bool dense_cutover : {true, false}) {
    const ScanOutput want = RunScan(
        c, [&](const ScanCase& c, std::span<PartitionId> candidate,
               std::span<double> block_score,
               std::span<int32_t> block_candidates, ShardScratch* sc) {
          lpa_kernel_reference::BlocksComputeScores(
              c.config, c.shard, c.begin, c.end, c.labels, c.superstep,
              candidate, block_score, block_candidates, sc, c.index_base,
              dense_cutover);
        });
    ExpectSameOutput(got, want,
                     what + " dense_cutover=" + std::to_string(dense_cutover));
  }
  return std::count_if(got.candidate.begin(), got.candidate.end(),
                       [](PartitionId l) { return l >= 0; });
}

TEST(LpaKernelTest, BlocksComputeScoresMatchesTheReferenceScan) {
  Rng rng(2024);
  int64_t candidates = 0;
  int cases = 0;
  // k <= 256 runs each case over both label widths; 257 is the smallest
  // k left on the PartitionId array alone.
  for (const int k : {1, 2, 8, 32, 63, 64, 65, 128, 256, 257}) {
    for (int trial = 0; trial < 32; ++trial) {
      const bool async = trial % 2 == 0;
      const BalanceMode mode =
          trial % 4 < 2 ? BalanceMode::kEdges : BalanceMode::kVertices;
      const bool ties = trial % 8 >= 4;
      const bool remap = trial % 16 >= 8;
      const ScanCase c = RandomCase(rng, k, async, mode, ties, remap);
      candidates += CheckAgainstReference(
          c, "k=" + std::to_string(k) + " trial=" + std::to_string(trial));
      ++cases;
      if (HasFailure()) return;
    }
  }
  EXPECT_EQ(cases, 10 * 32);
  // Moves were chosen, so the comparison is not vacuous.
  EXPECT_GT(candidates, 0);
}

TEST(LpaKernelTest, SparseAndDenseScansAgreeOnRandomInputs) {
  // One vertex per trial: up to k weighted arcs over random labels, its
  // current label drawn independently (in or out of the neighbourhood),
  // at a random id so the tie keys vary. The reference sparse and dense
  // picks must agree, and the library's bitmap scan must pick the same.
  std::mt19937_64 rng(1234);
  int64_t moves = 0;
  for (const bool force_ties : {false, true}) {
    for (int trial = 0; trial < 2000; ++trial) {
      const int k = 2 + static_cast<int>(rng() % 15);
      ScanCase c;
      c.config.num_partitions = k;
      c.config.seed = rng();
      c.superstep = 1 + static_cast<int64_t>(rng() % 9);
      // Vertices 0 .. v-1 are isolated; v is scored; its arcs go to v + 1 …
      const auto v = static_cast<VertexId>(rng() % (2 * kBlock));
      std::vector<int64_t> freq(static_cast<size_t>(k), 0);
      std::vector<PartitionId> touched;
      std::vector<PartitionId> arc_labels;
      std::vector<int64_t> arc_weights;
      const int arcs = 1 + static_cast<int>(rng() % k);
      for (int i = 0; i < arcs; ++i) {
        const auto l = static_cast<PartitionId>(rng() % k);
        if (freq[l] == 0) touched.push_back(l);
        const int64_t w = 1 + static_cast<int64_t>(rng() % 5);
        freq[l] += w;
        arc_labels.push_back(l);
        arc_weights.push_back(w);
      }
      if (force_ties) {
        // Equal frequencies and zero penalties make every touched label
        // an exact-score tie, exercising the TieKey resolution path.
        // One weight-3 arc per touched label.
        for (const PartitionId l : touched) freq[l] = 3;
        arc_labels = touched;
        arc_weights.assign(touched.size(), 3);
      }
      const auto current = static_cast<PartitionId>(rng() % k);

      Shard& shard = c.shard;
      shard.begin = 0;
      shard.end = v + 1;
      shard.offsets.assign(static_cast<size_t>(v) + 1, 0);
      shard.weighted_degree.assign(static_cast<size_t>(v), 0);
      int64_t weighted = 0;
      for (size_t i = 0; i < arc_labels.size(); ++i) {
        shard.targets.push_back(
            static_cast<ShardedGraphStore::Target>(v + 1 + i));
        shard.weights.push_back(
            static_cast<ShardedGraphStore::Weight>(arc_weights[i]));
        weighted += arc_weights[i];
      }
      shard.offsets.push_back(static_cast<int64_t>(shard.targets.size()));
      shard.weighted_degree.push_back(weighted);
      shard.RebuildInvDegrees();
      c.labels.assign(static_cast<size_t>(v) + 1 + arc_labels.size(), 0);
      c.labels[v] = current;
      for (size_t i = 0; i < arc_labels.size(); ++i) {
        c.labels[v + 1 + i] = arc_labels[i];
      }
      c.num_blocks = (static_cast<int64_t>(c.labels.size()) + kBlock - 1) /
                     kBlock;
      c.begin = v - v % kBlock;
      c.end = v + 1;
      // Penalties load / capacity in [0, 0.5), or all zero for ties.
      c.loads.assign(static_cast<size_t>(k), 0);
      c.capacities.assign(static_cast<size_t>(k), 1000.0);
      if (!force_ties) {
        for (int64_t& load : c.loads) load = static_cast<int64_t>(rng() % 500);
      }
      std::vector<double> penalty(static_cast<size_t>(k));
      lpa::FillPenalties(c.loads, c.capacities, penalty);

      const double inv_degree = shard.InvWeightedDegreeOf(v);
      const double current_score =
          lpa::Score(freq[current], inv_degree, penalty[current]);
      std::vector<double> score_buf(static_cast<size_t>(k), 0.0);
      const lpa::LabelChoice sparse = lpa_kernel_reference::PickLabelSparse(
          freq, touched, current, current_score, inv_degree, penalty,
          score_buf, c.config.seed, c.superstep, v);
      const lpa::LabelChoice dense = lpa_kernel_reference::PickLabelDense(
          freq, current, current_score, inv_degree, penalty, score_buf,
          c.config.seed, c.superstep, v);
      const std::string what = "k=" + std::to_string(k) +
                               " trial=" + std::to_string(trial) +
                               " ties=" + std::to_string(force_ties);
      ASSERT_EQ(sparse.better, dense.better) << what;
      ASSERT_EQ(sparse.label, dense.label) << what;

      const ScanOutput got = RunScan(
          c, [](const ScanCase& c, std::span<PartitionId> candidate,
                std::span<double> block_score,
                std::span<int32_t> block_candidates, ShardScratch* sc) {
            BlocksComputeScores(c.config, c.shard, c.begin, c.end, c.labels,
                                c.superstep, candidate, block_score,
                                block_candidates, sc, c.index_base);
          });
      ASSERT_EQ(got.candidate[v], sparse.better ? sparse.label : kNoPartition)
          << what;
      moves += sparse.better;
    }
  }
  // Moves were chosen, so the comparison is not vacuous.
  EXPECT_GT(moves, 0);
}

TEST(LpaKernelTest, BlocksComputeScoresMatchesASparseOnlyRun) {
  // Out-degrees span k/2 … 2k, so the reference's dense cutover would
  // fire for some vertices of every block and not for others; unit
  // weights make exact-score ties common. ShardComputeScores must match
  // the reference run with every vertex on the sparse scan.
  constexpr int k = 16;
  constexpr int64_t n = 3 * kBlock + 17;
  std::mt19937_64 rng(2024);
  EdgeList edges;
  std::vector<EdgeWeight> weights;
  int64_t below = 0;
  int64_t at_or_above = 0;
  for (VertexId v = 0; v < n; ++v) {
    const int deg = k / 2 + static_cast<int>(rng() % (3 * k / 2 + 1));
    (deg >= k ? at_or_above : below) += 1;
    for (int j = 0; j < deg; ++j) {
      edges.push_back({v, static_cast<VertexId>(rng() % n)});
      weights.push_back(rng() % 4 == 0 ? 2 : 1);
    }
  }
  ASSERT_GT(below, 0);
  ASSERT_GT(at_or_above, 0);
  auto g = CsrGraph::FromEdges(n, edges, weights);
  ASSERT_TRUE(g.ok()) << g.status();
  auto store = ShardedGraphStore::Build(*g, 1);
  ASSERT_TRUE(store.ok()) << store.status();

  ScanCase c;
  c.shard = store->shard(0);
  c.config.num_partitions = k;
  c.config.seed = 31;
  c.superstep = 5;
  c.num_blocks = store->NumBlocks();
  c.begin = c.shard.begin;
  c.end = c.shard.end;
  // Skewed labels: a few labels dominate, so vertices touch anywhere from
  // a handful to all k labels.
  c.labels.resize(n);
  c.loads.assign(k, 0);
  int64_t total = 0;
  for (VertexId v = 0; v < n; ++v) {
    const auto a = static_cast<PartitionId>(rng() % k);
    const auto b = static_cast<PartitionId>(rng() % k);
    c.labels[v] = a * b / k;
    c.loads[c.labels[v]] += c.shard.WeightedDegreeOf(v);
    total += c.shard.WeightedDegreeOf(v);
  }
  c.capacities.assign(k, 1.05 * static_cast<double>(total) / k);

  for (const bool async : {true, false}) {
    c.config.per_worker_async = async;
    const ScanOutput want = RunScan(
        c, [](const ScanCase& c, std::span<PartitionId> candidate,
              std::span<double> block_score,
              std::span<int32_t> block_candidates, ShardScratch* sc) {
          lpa_kernel_reference::BlocksComputeScores(
              c.config, c.shard, c.begin, c.end, c.labels, c.superstep,
              candidate, block_score, block_candidates, sc, c.index_base,
              /*dense_cutover=*/false);
        });
    ASSERT_GT(std::count_if(want.candidate.begin(), want.candidate.end(),
                            [](PartitionId l) { return l != kNoPartition; }),
              0);

    ShardScratch sc;
    sc.Prepare(k);
    std::vector<PartitionId> candidate(n, kNoPartition);
    std::vector<double> block_score(c.num_blocks, 0.0);
    std::vector<int32_t> block_candidates(c.num_blocks, 0);
    ShardComputeScores(c.config, store->shard(0), c.labels, c.loads,
                       c.capacities, c.superstep, candidate, block_score,
                       block_candidates, &sc);
    ScanOutput got;
    got.candidate = std::move(candidate);
    for (const double s : block_score) {
      got.block_score_bits.push_back(std::bit_cast<uint64_t>(s));
    }
    got.block_candidates = std::move(block_candidates);
    got.migrations = sc.migrations;
    got.local_weight = sc.local_weight;
    ExpectSameOutput(got, want, "async=" + std::to_string(async));
  }
}

TEST(LpaKernelTest, LabelWritesKeepTheByteViewInStep) {
  // Initialize and ComputeMigrations write every label into the one-byte
  // view too, so over a run the view stays the labels' low byte and the
  // byte-view scan keeps choosing what the PartitionId scan chooses. At
  // k = 256 every byte value is a label.
  constexpr int k = kMaxByteViewPartitions;
  constexpr int64_t n = 3 * kBlock + 17;
  std::mt19937_64 rng(99);
  EdgeList edges;
  for (VertexId v = 0; v < n; ++v) {
    const int deg = 1 + static_cast<int>(rng() % 24);
    for (int j = 0; j < deg; ++j) {
      edges.push_back({v, static_cast<VertexId>(rng() % n)});
    }
  }
  auto g = CsrGraph::FromEdges(n, edges);
  ASSERT_TRUE(g.ok()) << g.status();
  auto store = ShardedGraphStore::Build(*g, 1);
  ASSERT_TRUE(store.ok()) << store.status();
  ShardedGraphStore::Shard& shard = store->mutable_shard(0);

  SpinnerConfig config;
  config.num_partitions = k;
  config.seed = 17;
  // Fixed restart labels at both ends of the byte range, hashed elsewhere.
  std::vector<PartitionId> initial(n, kNoPartition);
  for (VertexId v = 0; v < n; v += 3) {
    initial[v] = v % 2 == 0 ? k - 1 : 0;
  }
  std::vector<PartitionId> labels(n, kNoPartition);
  std::vector<uint8_t> view(n, 0);
  ShardInitialize(config, &shard, labels, initial, 0, view);
  const auto expect_in_step = [&](const std::string& what) {
    for (VertexId v = 0; v < n; ++v) {
      ASSERT_EQ(view[v], static_cast<uint8_t>(labels[v])) << what << " v=" << v;
    }
  };
  expect_in_step("after Initialize");

  std::vector<double> capacities(k, 1.02 * static_cast<double>(n) / k);
  int64_t migrated = 0;
  for (int64_t step = 1; step <= 9; step += 2) {
    const std::vector<int64_t> loads = shard.loads;
    ScanOutput wide;
    ScanOutput narrow;
    ShardScratch sc;
    sc.Prepare(k);
    for (const bool byte_view : {false, true}) {
      std::vector<PartitionId> candidate(n, kNoPartition);
      std::vector<double> block_score(store->NumBlocks(), 0.0);
      std::vector<int32_t> block_candidates(store->NumBlocks(), 0);
      if (byte_view) {
        ShardComputeScores(config, shard, std::span<const uint8_t>(view),
                           loads, capacities, step, candidate, block_score,
                           block_candidates, &sc);
      } else {
        ShardComputeScores(config, shard, labels, loads, capacities, step,
                           candidate, block_score, block_candidates, &sc);
      }
      ScanOutput& out = byte_view ? narrow : wide;
      out.candidate = std::move(candidate);
      for (const double s : block_score) {
        out.block_score_bits.push_back(std::bit_cast<uint64_t>(s));
      }
      out.block_candidates = std::move(block_candidates);
      out.migrations = sc.migrations;
      out.local_weight = sc.local_weight;
    }
    ExpectSameOutput(narrow, wide, "step=" + std::to_string(step));
    ShardComputeMigrations(config, &shard, labels, loads, capacities,
                           narrow.migrations, step + 1, narrow.candidate,
                           narrow.block_candidates, /*moves=*/nullptr, &sc,
                           0, view);
    migrated += sc.migrated;
    expect_in_step("after step " + std::to_string(step + 1));
    if (HasFailure()) return;
  }
  // Labels moved, so the view was rewritten, not merely initialized.
  EXPECT_GT(migrated, 0);
}

TEST(LpaKernelTest, VertexTouchingEveryLabelFillsEveryWalkSlot) {
  // A vertex whose 3k arcs cycle through all k labels walks k labels: it
  // fills the scratch's k-slot touched and score buffers to the last slot
  // (the bound the sanitizer lanes check), on both sides of the one-word
  // bitmap.
  for (const int k : {63, 64, 65, 128}) {
    ScanCase c;
    c.config.num_partitions = k;
    c.config.seed = 9;
    c.superstep = 2;
    const int64_t arcs = 3 * k;
    c.shard.begin = 0;
    c.shard.end = 1;
    c.shard.offsets = {0, arcs};
    int64_t weighted = 0;
    for (int64_t i = 0; i < arcs; ++i) {
      c.shard.targets.push_back(static_cast<ShardedGraphStore::Target>(1 + i));
      c.shard.weights.push_back(static_cast<ShardedGraphStore::Weight>(
          1 + i % 2));
      weighted += 1 + i % 2;
    }
    c.shard.weighted_degree = {weighted};
    c.shard.RebuildInvDegrees();
    c.labels.resize(static_cast<size_t>(1 + arcs));
    for (int64_t i = 0; i < arcs; ++i) {
      c.labels[1 + i] = static_cast<PartitionId>((5 * i) % k);
    }
    c.num_blocks = 1;
    c.begin = 0;
    c.end = 1;
    c.loads.assign(k, 0);
    c.capacities.assign(k, 100.0);
    for (int l = 0; l < k; ++l) c.loads[l] = (37 * l) % 23;
    ShardScratch sc;
    sc.Prepare(k);
    ASSERT_EQ(sc.touched.size(), static_cast<size_t>(k));
    ASSERT_EQ(sc.score_buf.size(), static_cast<size_t>(k));
    for (PartitionId current = 0; current < k; ++current) {
      c.labels[0] = current;
      CheckAgainstReference(c, "k=" + std::to_string(k) +
                                   " current=" + std::to_string(current));
    }
  }
}

TEST(LpaKernelTest, FillPenaltiesMatchesDirectComputation) {
  const std::vector<int64_t> loads = {10, 0, 7, 123456789, 3};
  const std::vector<double> capacities = {100.0, 50.0, 0.0, 1e9, -1.0};
  std::vector<double> penalty(loads.size(), -1.0);
  lpa::FillPenalties(loads, capacities, penalty);
  for (size_t l = 0; l < loads.size(); ++l) {
    const double want =
        capacities[l] > 0
            ? static_cast<double>(loads[l]) / capacities[l]
            : 0.0;
    EXPECT_EQ(penalty[l], want) << "l=" << l;
  }
}

TEST(LpaKernelTest, FillMigrationProbabilitiesMatchesDirectComputation) {
  const std::vector<int64_t> loads = {10, 90, 100, 7};
  const std::vector<double> capacities = {100.0, 100.0, 100.0, 0.0};
  const std::vector<int64_t> wanting = {45, 20, 5, 9};
  std::vector<double> p(loads.size(), -1.0);
  lpa::FillMigrationProbabilities(loads, capacities, wanting, p);
  for (size_t l = 0; l < loads.size(); ++l) {
    const double want = lpa::MigrationProbability(
        capacities[l] - static_cast<double>(loads[l]),
        static_cast<double>(wanting[l]));
    EXPECT_EQ(p[l], want) << "l=" << l;
  }
}

TEST(LpaKernelTest, ScoreHoistsTheDivisionWithoutChangingEq8) {
  // Score(freq, 1/deg, load/cap) is Eq. 8 with both divisions hoisted;
  // spot-check against the longhand form on benign values where the
  // reassociation is exact.
  EXPECT_EQ(lpa::Score(4, 1.0 / 8.0, 0.25), 4.0 / 8.0 - 0.25);
  EXPECT_EQ(lpa::Score(0, 1.0 / 2.0, 0.0), 0.0);
}

}  // namespace
}  // namespace spinner
