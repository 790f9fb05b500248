// The LPA kernel's two label scans must be interchangeable per vertex:
// PickLabelSparse (touched-list walk) and PickLabelDense (all-k masked
// max) score the same candidate set with the same expressions and an
// order-independent tie break, so they must agree bit-for-bit on every
// input — including exact-score ties and any permutation of the touched
// list — and BlocksComputeScores, which takes the dense scan only for
// vertices with at least k arcs, must match a sparse-only run. The
// table-fill helpers must match the direct per-label computation exactly.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <vector>

#include "graph/csr_graph.h"
#include "graph/sharded_store.h"
#include "graph/types.h"
#include "spinner/config.h"
#include "spinner/lpa_kernel.h"
#include "spinner/shard_superstep.h"

namespace spinner {
namespace {

struct KernelInput {
  std::vector<int64_t> freq;
  std::vector<PartitionId> touched;  // labels with freq > 0
  PartitionId current = 0;
  double inv_degree = 0.0;
  std::vector<double> penalty;
};

KernelInput RandomInput(std::mt19937_64& rng, int k, bool force_ties) {
  KernelInput in;
  in.freq.assign(static_cast<size_t>(k), 0);
  in.penalty.assign(static_cast<size_t>(k), 0.0);
  std::uniform_int_distribution<int> label_dist(0, k - 1);
  std::uniform_int_distribution<int64_t> weight_dist(1, 5);
  const int touched_count = 1 + static_cast<int>(rng() % k);
  for (int i = 0; i < touched_count; ++i) {
    const PartitionId l = label_dist(rng);
    if (in.freq[l] == 0) in.touched.push_back(l);
    in.freq[l] += weight_dist(rng);
  }
  if (force_ties) {
    // Equal frequencies + zero penalties make every touched label an
    // exact-score tie, exercising the TieKey resolution path.
    for (const PartitionId l : in.touched) in.freq[l] = 3;
  } else {
    std::uniform_real_distribution<double> pen_dist(0.0, 0.5);
    for (int l = 0; l < k; ++l) in.penalty[l] = pen_dist(rng);
  }
  int64_t deg = 0;
  for (const int64_t f : in.freq) deg += f;
  in.inv_degree = 1.0 / static_cast<double>(deg);
  // current may or may not appear in the neighborhood.
  in.current = label_dist(rng);
  return in;
}

TEST(LpaKernelTest, SparseAndDenseScansAgreeOnRandomInputs) {
  std::mt19937_64 rng(1234);
  for (const bool force_ties : {false, true}) {
    for (int trial = 0; trial < 2000; ++trial) {
      const int k = 2 + static_cast<int>(rng() % 15);
      const KernelInput in = RandomInput(rng, k, force_ties);
      const uint64_t seed = rng();
      const int64_t superstep = 1 + static_cast<int64_t>(rng() % 9);
      const VertexId v = static_cast<VertexId>(rng() % 100000);
      const double current_score = lpa::Score(
          in.freq[in.current], in.inv_degree, in.penalty[in.current]);

      std::vector<double> score_buf(static_cast<size_t>(k), 0.0);
      const lpa::LabelChoice sparse = lpa::PickLabelSparse(
          in.freq, in.touched, in.current, current_score, in.inv_degree,
          in.penalty, score_buf, seed, superstep, v);
      const lpa::LabelChoice dense = lpa::PickLabelDense(
          in.freq, in.current, current_score, in.inv_degree, in.penalty,
          score_buf, seed, superstep, v);

      ASSERT_EQ(sparse.better, dense.better)
          << "k=" << k << " trial=" << trial << " ties=" << force_ties;
      ASSERT_EQ(sparse.label, dense.label)
          << "k=" << k << " trial=" << trial << " ties=" << force_ties;
    }
  }
}

TEST(LpaKernelTest, SparseScanIsTouchedOrderIndependent) {
  std::mt19937_64 rng(77);
  for (int trial = 0; trial < 500; ++trial) {
    const int k = 3 + static_cast<int>(rng() % 12);
    KernelInput in = RandomInput(rng, k, trial % 2 == 0);
    const uint64_t seed = rng();
    const VertexId v = static_cast<VertexId>(trial);
    const double current_score = lpa::Score(in.freq[in.current],
                                            in.inv_degree,
                                            in.penalty[in.current]);
    std::vector<double> score_buf(static_cast<size_t>(k), 0.0);
    const lpa::LabelChoice reference = lpa::PickLabelSparse(
        in.freq, in.touched, in.current, current_score, in.inv_degree,
        in.penalty, score_buf, seed, /*superstep=*/3, v);
    for (int shuffle = 0; shuffle < 5; ++shuffle) {
      std::shuffle(in.touched.begin(), in.touched.end(), rng);
      const lpa::LabelChoice got = lpa::PickLabelSparse(
          in.freq, in.touched, in.current, current_score, in.inv_degree,
          in.penalty, score_buf, seed, /*superstep=*/3, v);
      ASSERT_EQ(got.better, reference.better);
      ASSERT_EQ(got.label, reference.label);
    }
  }
}

TEST(LpaKernelTest, GatherTouchingEveryLabelFillsTheLastSlot) {
  // 3k arcs cycling through all k labels: once the k distinct labels are
  // listed, every further arc writes the spare slot k of the scratch's
  // (k + 1)-slot buffer — the bound the sanitizer lanes check.
  constexpr int k = 8;
  ShardScratch sc;
  sc.Prepare(k);
  ASSERT_EQ(sc.touched.size(), static_cast<size_t>(k + 1));
  std::vector<PartitionId> labels(3 * k);
  std::vector<ShardedGraphStore::Target> neighbors(3 * k);
  std::vector<ShardedGraphStore::Weight> weights(3 * k);
  for (int i = 0; i < 3 * k; ++i) {
    labels[i] = static_cast<PartitionId>((5 * i) % k);
    neighbors[i] = static_cast<ShardedGraphStore::Target>(i);
    weights[i] = static_cast<ShardedGraphStore::Weight>(1 + i % 2);
  }
  const size_t n = lpa::GatherTouched(neighbors, weights, labels.data(),
                                      sc.freq.data(), sc.touched);
  ASSERT_EQ(n, static_cast<size_t>(k));
  std::vector<PartitionId> listed(sc.touched.begin(), sc.touched.begin() + k);
  std::sort(listed.begin(), listed.end());
  for (int l = 0; l < k; ++l) EXPECT_EQ(listed[l], l);
  int64_t deg = 0;
  for (const int64_t f : sc.freq) {
    EXPECT_GT(f, 0);
    deg += f;
  }
  const std::vector<double> penalty = {0.30, 0.10, 0.25, 0.05,
                                       0.20, 0.15, 0.35, 0.00};
  const double inv_degree = 1.0 / static_cast<double>(deg);
  for (PartitionId current = 0; current < k; ++current) {
    const double current_score =
        lpa::Score(sc.freq[current], inv_degree, penalty[current]);
    const lpa::LabelChoice sparse = lpa::PickLabelSparse(
        sc.freq, std::span<const PartitionId>(sc.touched.data(), n), current,
        current_score, inv_degree, penalty, sc.score_buf, 9, 2, 77);
    std::vector<double> dense_buf(k, 0.0);
    const lpa::LabelChoice dense =
        lpa::PickLabelDense(sc.freq, current, current_score, inv_degree,
                            penalty, dense_buf, 9, 2, 77);
    EXPECT_EQ(sparse.better, dense.better) << "current=" << current;
    EXPECT_EQ(sparse.label, dense.label) << "current=" << current;
  }
}

/// BlocksComputeScores' outputs for one whole-shard call.
struct ScoresOutput {
  std::vector<PartitionId> candidate;
  std::vector<double> block_score;
  std::vector<int32_t> block_candidates;
  std::vector<int64_t> migrations;
  int64_t local_weight = 0;
};

/// A sparse-scan-only restatement of BlocksComputeScores over a whole
/// shard with index base 0, the §IV.A.4 asynchronous view included.
ScoresOutput SparseOnlyScores(const SpinnerConfig& config,
                              const ShardedGraphStore::Shard& shard,
                              const std::vector<PartitionId>& labels,
                              const std::vector<int64_t>& loads,
                              const std::vector<double>& capacities,
                              int64_t superstep) {
  const int k = config.num_partitions;
  constexpr int64_t kBlock = ShardedGraphStore::kBlockSize;
  std::vector<double> penalty_base(k);
  lpa::FillPenalties(loads, capacities, penalty_base);
  std::vector<double> penalty = penalty_base;
  std::vector<int64_t> projected = loads;
  std::vector<int64_t> freq(k, 0);
  std::vector<PartitionId> touched(k + 1);
  std::vector<double> score_buf(k);
  ScoresOutput out;
  out.candidate.assign(labels.size(), kNoPartition);
  out.migrations.assign(k, 0);
  for (VertexId b = shard.begin; b < shard.end; b += kBlock) {
    double score_sum = 0.0;
    int32_t candidates = 0;
    for (VertexId v = b; v < std::min<VertexId>(b + kBlock, shard.end);
         ++v) {
      const int64_t deg_w = shard.WeightedDegreeOf(v);
      if (deg_w == 0) continue;
      const size_t n = lpa::GatherTouched(
          shard.Neighbors(v), shard.WeightsOf(v), labels.data(), freq.data(),
          touched);
      const PartitionId current = labels[v];
      const int64_t freq_current = freq[current];
      const double inv_deg = shard.InvWeightedDegreeOf(v);
      const lpa::LabelChoice choice = lpa::PickLabelSparse(
          freq, std::span<const PartitionId>(touched.data(), n), current,
          lpa::Score(freq_current, inv_deg, penalty[current]), inv_deg,
          penalty, score_buf, config.seed, superstep, v);
      for (size_t i = 0; i < n; ++i) freq[touched[i]] = 0;
      score_sum += lpa::Score(freq_current, inv_deg, penalty_base[current]);
      out.local_weight += freq_current;
      if (!choice.better) continue;
      out.candidate[v] = choice.label;
      ++candidates;
      const int64_t units = LoadUnitsOf(config, deg_w);
      out.migrations[choice.label] += units;
      if (config.per_worker_async) {
        projected[choice.label] += units;
        projected[current] -= units;
        for (const PartitionId l : {choice.label, current}) {
          penalty[l] = capacities[l] > 0
                           ? static_cast<double>(projected[l]) / capacities[l]
                           : 0.0;
        }
      }
    }
    penalty = penalty_base;
    projected = loads;
    out.block_score.push_back(score_sum);
    out.block_candidates.push_back(candidates);
  }
  return out;
}

TEST(LpaKernelTest, BlocksComputeScoresMatchesASparseOnlyRun) {
  // Out-degrees span k/2 … 2k, so under SPINNER_SIMD both sides of the
  // deg >= k cutover run in every block; unit weights make exact-score
  // ties common.
  constexpr int k = 16;
  constexpr int64_t n = 3 * ShardedGraphStore::kBlockSize + 17;
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
  const ShardedGraphStore::Shard& shard = store->shard(0);

  // Skewed labels: a few labels dominate, so vertices touch anywhere from
  // a handful to all k labels.
  std::vector<PartitionId> labels(n);
  std::vector<int64_t> loads(k, 0);
  int64_t total = 0;
  for (VertexId v = 0; v < n; ++v) {
    const auto a = static_cast<PartitionId>(rng() % k);
    const auto b = static_cast<PartitionId>(rng() % k);
    labels[v] = a * b / k;
    loads[labels[v]] += shard.WeightedDegreeOf(v);
    total += shard.WeightedDegreeOf(v);
  }
  const std::vector<double> capacities(
      k, 1.05 * static_cast<double>(total) / k);

  for (const bool async : {true, false}) {
    SpinnerConfig config;
    config.num_partitions = k;
    config.seed = 31;
    config.per_worker_async = async;
    const ScoresOutput want =
        SparseOnlyScores(config, shard, labels, loads, capacities, 5);
    ASSERT_GT(std::count_if(want.candidate.begin(), want.candidate.end(),
                            [](PartitionId l) { return l != kNoPartition; }),
              0);

    ShardScratch sc;
    sc.Prepare(k);
    ScoresOutput got;
    got.candidate.assign(n, kNoPartition);
    got.block_score.assign(store->NumBlocks(), 0.0);
    got.block_candidates.assign(store->NumBlocks(), 0);
    ShardComputeScores(config, shard, labels, loads, capacities, 5,
                       got.candidate, got.block_score, got.block_candidates,
                       &sc);
    EXPECT_EQ(got.candidate, want.candidate) << "async=" << async;
    EXPECT_EQ(got.block_score, want.block_score) << "async=" << async;
    EXPECT_EQ(got.block_candidates, want.block_candidates)
        << "async=" << async;
    EXPECT_EQ(sc.migrations, want.migrations) << "async=" << async;
    EXPECT_EQ(sc.local_weight, want.local_weight) << "async=" << async;
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
