// ShardedGraphStore: slicing correctness for any shard count, block-aligned
// boundaries, merged views, owning-shard-only updates — and the substrate's
// central guarantee: partitioning results are bit-identical for every
// shard/thread count.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <thread>
#include <utility>
#include <vector>

#include "common/threadpool.h"
#include "graph/conversion.h"
#include "graph/delta.h"
#include "graph/generators.h"
#include "graph/sharded_store.h"
#include "spinner/partitioner.h"
#include "spinner/sharded_program.h"

namespace spinner {
namespace {

CsrGraph SmallWorldConverted(int64_t n, uint64_t seed = 11) {
  auto ws = WattsStrogatz(n, 3, 0.3, seed);
  SPINNER_CHECK(ws.ok());
  auto converted = BuildSymmetric(ws->num_vertices, ws->edges);
  SPINNER_CHECK(converted.ok());
  return std::move(converted).value();
}

/// An undirected power-law graph: hubs sit at low vertex ids, so equal
/// vertex counts per shard would give very unequal arc counts.
CsrGraph PowerLawConverted(int64_t n, uint64_t seed = 5) {
  auto ba = BarabasiAlbert(n, 4, 4, seed);
  SPINNER_CHECK(ba.ok());
  auto converted = BuildSymmetric(ba->num_vertices, ba->edges);
  SPINNER_CHECK(converted.ok());
  return std::move(converted).value();
}

/// The cut cost of vertices [begin, end): arcs plus kVertexCost each.
int64_t CutCost(const CsrGraph& g, VertexId begin, VertexId end) {
  int64_t cost = 0;
  for (VertexId v = begin; v < end; ++v) {
    cost += g.OutDegree(v) + ShardedGraphStore::kVertexCost;
  }
  return cost;
}

void ExpectSlicesMatch(const ShardedGraphStore& store, const CsrGraph& g) {
  ASSERT_EQ(store.NumVertices(), g.NumVertices());
  EXPECT_EQ(store.NumArcs(), g.NumArcs());
  EXPECT_EQ(store.TotalArcWeight(), g.TotalArcWeight());
  int64_t covered = 0;
  VertexId expected_begin = 0;
  for (int s = 0; s < store.num_shards(); ++s) {
    const auto& shard = store.shard(s);
    // Ranges are contiguous, ordered, and block-aligned, and every one
    // begins inside the graph (a worker's range must start on a block).
    EXPECT_EQ(shard.begin, expected_begin);
    EXPECT_EQ(shard.begin % ShardedGraphStore::kBlockSize, 0) << "s=" << s;
    if (g.NumVertices() > 0) {
      EXPECT_LT(shard.begin, g.NumVertices());
    }
    if (shard.end < g.NumVertices()) {
      EXPECT_EQ(shard.end % ShardedGraphStore::kBlockSize, 0);
    }
    expected_begin = shard.end;
    covered += shard.NumOwnedVertices();
    for (VertexId v = shard.begin; v < shard.end; ++v) {
      ASSERT_EQ(store.ShardOf(v), s) << "v=" << v;
      ASSERT_EQ(shard.WeightedDegreeOf(v), g.WeightedDegree(v));
      ASSERT_EQ(shard.InvWeightedDegreeOf(v),
                g.WeightedDegree(v) > 0
                    ? 1.0 / static_cast<double>(g.WeightedDegree(v))
                    : 0.0);
      const auto got_n = shard.Neighbors(v);
      const auto want_n = g.Neighbors(v);
      ASSERT_EQ(got_n.size(), want_n.size());
      for (size_t j = 0; j < got_n.size(); ++j) {
        ASSERT_EQ(got_n[j], want_n[j]);
        ASSERT_EQ(shard.WeightsOf(v)[j], g.Weights(v)[j]);
      }
    }
  }
  EXPECT_EQ(expected_begin, g.NumVertices());
  EXPECT_EQ(covered, g.NumVertices());
}

TEST(ShardedGraphStoreTest, SingleShardOwnsEverything) {
  const CsrGraph g = SmallWorldConverted(600);
  auto store = ShardedGraphStore::Build(g, 1);
  ASSERT_TRUE(store.ok());
  EXPECT_EQ(store->num_shards(), 1);
  ExpectSlicesMatch(*store, g);
}

TEST(ShardedGraphStoreTest, SlicesMatchGlobalGraphForVariousShardCounts) {
  const CsrGraph g = SmallWorldConverted(1100);
  for (const int shards : {2, 3, 7}) {
    auto store = ShardedGraphStore::Build(g, shards);
    ASSERT_TRUE(store.ok()) << "S=" << shards;
    EXPECT_EQ(store->num_shards(), shards);
    ExpectSlicesMatch(*store, g);
  }
}

TEST(ShardedGraphStoreTest, MoreShardsThanBlocksLeavesEmptyShards) {
  // 300 vertices = 2 blocks; 7 shards means most own nothing, which must
  // be harmless (and is what keeps results independent of S).
  const CsrGraph g = SmallWorldConverted(300);
  auto store = ShardedGraphStore::Build(g, 7);
  ASSERT_TRUE(store.ok());
  ExpectSlicesMatch(*store, g);
  int nonempty = 0;
  for (int s = 0; s < 7; ++s) {
    if (store->shard(s).NumOwnedVertices() > 0) ++nonempty;
  }
  EXPECT_EQ(nonempty, store->NumBlocks());
}

/// Checks Build's cut rule on `g` with `shards` shards: shard s begins at
/// the first block boundary whose prefix cost reaches s·T/S, capped at the
/// last block's start (exact integer comparisons), so every shard's cost
/// is within one block's cost of T/S.
void ExpectCostBalancedCuts(const CsrGraph& g, int shards) {
  const int64_t n = g.NumVertices();
  const int64_t block = ShardedGraphStore::kBlockSize;
  const int64_t last_block_begin = (n - 1) / block * block;
  const int64_t total = CutCost(g, 0, n);
  int64_t max_block_cost = 0;
  for (VertexId b = 0; b < n; b += block) {
    max_block_cost =
        std::max(max_block_cost, CutCost(g, b, std::min(b + block, n)));
  }
  auto store = ShardedGraphStore::Build(g, shards);
  ASSERT_TRUE(store.ok()) << "S=" << shards;
  ExpectSlicesMatch(*store, g);  // contiguous and block-aligned
  for (int s = 0; s < shards; ++s) {
    const auto& shard = store->shard(s);
    if (shard.begin < last_block_begin) {
      EXPECT_GE(CutCost(g, 0, shard.begin) * shards, total * s)
          << "S=" << shards << " s=" << s;
    }
    if (shard.begin > 0) {
      EXPECT_LT(CutCost(g, 0, shard.begin - block) * shards, total * s)
          << "S=" << shards << " s=" << s;
    }
    const int64_t cost = CutCost(g, shard.begin, shard.end);
    EXPECT_LE(std::abs(cost * shards - total), max_block_cost * shards)
        << "S=" << shards << " s=" << s;
  }
}

TEST(ShardedGraphStoreTest, CutsBalanceCostOnSkewedGraph) {
  const CsrGraph g = PowerLawConverted(20000);
  for (const int shards : {2, 3, 5, 9, 16}) {
    ExpectCostBalancedCuts(g, shards);
    // Hubs concentrate at low ids: the first shard owns fewer vertices
    // than the last, unlike an equal-vertex cut.
    auto store = ShardedGraphStore::Build(g, shards);
    ASSERT_TRUE(store.ok());
    EXPECT_LT(store->shard(0).NumOwnedVertices(),
              store->shard(shards - 1).NumOwnedVertices())
        << "S=" << shards;
  }
}

TEST(ShardedGraphStoreTest, HeavyLastBlockCapsCutsAtItsStart) {
  // A star whose hub is the last vertex of a partial block: that block
  // outweighs a shard's share, so a cut that would land at n is capped at
  // the block's start (768) and the shard before it is left empty.
  const int64_t n = 1000;
  EdgeList edges;
  for (VertexId v = 0; v + 1 < n; ++v) edges.push_back({v, n - 1});
  auto g = BuildSymmetric(n, edges);
  ASSERT_TRUE(g.ok());
  for (const int shards : {2, 3, 4, 5, 8}) ExpectCostBalancedCuts(*g, shards);
  auto store = ShardedGraphStore::Build(*g, 4);
  ASSERT_TRUE(store.ok());
  const std::vector<std::pair<VertexId, VertexId>> want = {
      {0, 512}, {512, 768}, {768, 768}, {768, 1000}};
  for (int s = 0; s < 4; ++s) {
    EXPECT_EQ(store->shard(s).begin, want[s].first) << s;
    EXPECT_EQ(store->shard(s).end, want[s].second) << s;
  }
}

TEST(ShardedGraphStoreTest, UpdateKeepsTheExistingCuts) {
  auto ba = BarabasiAlbert(5000, 4, 4, 9);
  ASSERT_TRUE(ba.ok());
  auto store = ShardedGraphStore::FromEdgeMultiset(ba->num_vertices,
                                                   ba->edges, false, 4);
  ASSERT_TRUE(store.ok());
  std::vector<std::pair<VertexId, VertexId>> cuts;
  for (int s = 0; s < 4; ++s) {
    cuts.emplace_back(store->shard(s).begin, store->shard(s).end);
  }
  // Turn the last ten vertices into hubs of the tail: a fresh Build would
  // cut differently, a patch must not move any boundary.
  const VertexId n = ba->num_vertices;
  EdgeList edges = ba->edges;
  GraphDelta delta;
  for (VertexId hub = n - 10; hub < n; ++hub) {
    for (VertexId v = n - 1000; v < n - 10; ++v) {
      edges.push_back({hub, v});
      delta.AddEdge(hub, v);
    }
  }
  ASSERT_TRUE(store->ApplyDelta(delta).ok());
  for (int s = 0; s < 4; ++s) {
    EXPECT_EQ(store->shard(s).begin, cuts[s].first) << s;
    EXPECT_EQ(store->shard(s).end, cuts[s].second) << s;
  }
  auto after = BuildSymmetric(ba->num_vertices, edges);
  ASSERT_TRUE(after.ok());
  ExpectSlicesMatch(*store, *after);
  auto rebuilt = ShardedGraphStore::Build(*after, 4);
  ASSERT_TRUE(rebuilt.ok());
  EXPECT_NE(rebuilt->shard(3).begin, cuts[3].first);
}

TEST(ShardedGraphStoreTest, RejectsInvalidShardCount) {
  const CsrGraph g = SmallWorldConverted(300);
  EXPECT_FALSE(ShardedGraphStore::Build(g, 0).ok());
  EXPECT_FALSE(ShardedGraphStore::Build(g, -2).ok());
}

TEST(ShardedGraphStoreTest, RejectsArcWeightsAShardCannotStore) {
  // Shard weights are 8-bit: 256 does not fit, 255 does.
  const EdgeList edges = {{0, 1}, {1, 0}};
  const std::vector<EdgeWeight> too_heavy = {256, 256};
  auto heavy = CsrGraph::FromEdges(2, edges, too_heavy);
  ASSERT_TRUE(heavy.ok()) << heavy.status();
  auto rejected = ShardedGraphStore::Build(*heavy, 1);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument);

  const std::vector<EdgeWeight> heaviest = {255, 255};
  auto fits = CsrGraph::FromEdges(2, edges, heaviest);
  ASSERT_TRUE(fits.ok()) << fits.status();
  auto store = ShardedGraphStore::Build(*fits, 1);
  ASSERT_TRUE(store.ok()) << store.status();
  EXPECT_EQ(store->shard(0).WeightsOf(0)[0], 255);
  EXPECT_EQ(store->shard(0).WeightedDegreeOf(1), 255);
}

TEST(ShardedGraphStoreTest, RejectsMoreVerticesThan32BitIds) {
  // Checked before the conversion allocates anything per vertex.
  auto store = ShardedGraphStore::FromEdgeMultiset(
      ShardedGraphStore::kMaxVertices + 1, EdgeList{}, true, 1);
  ASSERT_FALSE(store.ok());
  EXPECT_EQ(store.status().code(), StatusCode::kInvalidArgument);
}

TEST(ShardedGraphStoreTest, MergedLoadsReducesAcrossShards) {
  const CsrGraph g = SmallWorldConverted(1100);
  auto store = ShardedGraphStore::Build(g, 3);
  ASSERT_TRUE(store.ok());
  store->ResetLoads(4);
  store->mutable_shard(0).loads[1] = 5;
  store->mutable_shard(1).loads[1] = 7;
  store->mutable_shard(2).loads[3] = 2;
  const std::vector<int64_t> merged = store->MergedLoads();
  EXPECT_EQ(merged, (std::vector<int64_t>{0, 12, 0, 2}));
}

TEST(ShardedGraphStoreTest, UpdateRebuildsOnlyOwningShards) {
  auto ws = WattsStrogatz(1100, 3, 0.3, 11);
  ASSERT_TRUE(ws.ok());
  auto store = ShardedGraphStore::FromEdgeMultiset(ws->num_vertices,
                                                   ws->edges, false, 3);
  ASSERT_TRUE(store.ok());
  for (int s = 0; s < 3; ++s) EXPECT_EQ(store->rebuild_count(s), 1);

  // Add one edge between two vertices of the first shard: only that
  // shard's CSR slice is stale.
  EdgeList new_edges = ws->edges;
  new_edges.push_back({1, 5});
  ASSERT_TRUE(store->ApplyDelta(GraphDelta{}.AddEdge(1, 5)).ok());
  EXPECT_EQ(store->rebuild_count(0), 2);
  EXPECT_EQ(store->rebuild_count(1), 1);
  EXPECT_EQ(store->rebuild_count(2), 1);
  auto after = BuildSymmetric(ws->num_vertices, new_edges);
  ASSERT_TRUE(after.ok());
  ExpectSlicesMatch(*store, *after);
}

/// Everything a store holds per shard, for before/after comparisons.
struct ShardArrays {
  VertexId begin, end;
  std::vector<int64_t> offsets;
  std::vector<ShardedGraphStore::Target> targets;
  std::vector<ShardedGraphStore::Weight> weights;
  std::vector<int64_t> weighted_degree;
  std::vector<double> inv_weighted_degree;
  std::vector<int64_t> loads;
  std::vector<uint32_t> copies, self_loops;
  int64_t rebuild_count;
  bool operator==(const ShardArrays&) const = default;
};

std::vector<ShardArrays> ArraysOf(const ShardedGraphStore& store) {
  std::vector<ShardArrays> out;
  for (int s = 0; s < store.num_shards(); ++s) {
    const auto& sh = store.shard(s);
    out.push_back({sh.begin, sh.end, sh.offsets, sh.targets, sh.weights,
                   sh.weighted_degree, sh.inv_weighted_degree, sh.loads,
                   sh.copies, sh.self_loops, store.rebuild_count(s)});
  }
  return out;
}

TEST(ShardedGraphStoreTest, ApplyDeltaRejectsBadDeltasLeavingStoreUntouched) {
  auto ws = WattsStrogatz(520, 3, 0.3, 11);
  ASSERT_TRUE(ws.ok());
  auto store = ShardedGraphStore::FromEdgeMultiset(ws->num_vertices,
                                                   ws->edges, true, 2);
  ASSERT_TRUE(store.ok());
  store->ResetLoads(3);
  const std::vector<ShardArrays> before = ArraysOf(*store);
  const Edge e = ws->edges.front();
  ASSERT_EQ(store->Copies(e.src, e.dst), 1);
  ASSERT_EQ(store->Copies(e.dst, e.src), 0);

  const std::vector<GraphDelta> bad = {
      GraphDelta{}.AddEdge(0, 520),                      // outside range
      GraphDelta{}.AddVertex(1).AddEdge(-1, 3),          // negative id
      GraphDelta{}.AddVertex(-1),                        // shrink
      GraphDelta{}.AddEdge(1, 2).RemoveEdge(e.dst, e.src),  // reverse only
      GraphDelta{}.RemoveEdge(e.src, e.dst).RemoveEdge(e.src, e.dst),
      GraphDelta{}.RemoveEdge(7, 7),                     // no self-loop
      GraphDelta{}.RemoveEdge(600, 1),                   // outside range
  };
  for (size_t i = 0; i < bad.size(); ++i) {
    EXPECT_FALSE(store->ApplyDelta(bad[i]).ok()) << "delta " << i;
    EXPECT_EQ(ArraysOf(*store), before) << "delta " << i;
    EXPECT_EQ(store->NumVertices(), 520);
    EXPECT_EQ(store->NumEdges(), static_cast<int64_t>(ws->edges.size()));
  }

  // A store sliced from a bare CSR keeps no multiset to patch.
  auto bare = ShardedGraphStore::Build(SmallWorldConverted(520), 2);
  ASSERT_TRUE(bare.ok());
  EXPECT_EQ(bare->ApplyDelta(GraphDelta{}.AddEdge(1, 2)).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(ShardedGraphStoreTest, ApplyDeltaRejectsAnEndpointPast32BitIds) {
  auto ws = WattsStrogatz(300, 3, 0.3, 4);
  ASSERT_TRUE(ws.ok());
  auto store = ShardedGraphStore::FromEdgeMultiset(ws->num_vertices,
                                                   ws->edges, true, 2);
  ASSERT_TRUE(store.ok());
  store->ResetLoads(3);
  const std::vector<ShardArrays> before = ArraysOf(*store);
  // Vertex 2^32 would be in range of the grown graph, but no shard can
  // name it; the rejection comes before the label array grows.
  const VertexId past = ShardedGraphStore::kMaxVertices;
  const GraphDelta delta =
      GraphDelta{}.AddVertex(past).AddEdge(0, past).AddEdge(1, 2);
  auto applied = store->ApplyDelta(delta);
  ASSERT_FALSE(applied.ok());
  EXPECT_EQ(applied.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(ArraysOf(*store), before);
  EXPECT_EQ(store->NumVertices(), 300);
  EXPECT_EQ(store->labels().size(), 300u);
  EXPECT_EQ(store->NumEdges(), static_cast<int64_t>(ws->edges.size()));
}

TEST(ShardedGraphStoreTest, EdgesRoundTripTheMultisetInCanonicalOrder) {
  // Duplicates, a reciprocal pair and self-loops: the CSR drops all of
  // them but the multiset keeps them.
  const EdgeList edges = {{3, 1}, {0, 2}, {1, 3}, {2, 2}, {0, 2},
                          {4, 0}, {2, 2}, {0, 2}, {1, 0}, {600, 2}};
  for (const bool directed : {true, false}) {
    auto store = ShardedGraphStore::FromEdgeMultiset(700, edges, directed, 3);
    ASSERT_TRUE(store.ok());
    EdgeList sorted = edges;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(store->Edges(), sorted);
    EXPECT_EQ(store->NumEdges(), 10);
    EXPECT_EQ(store->Copies(0, 2), 3);
    EXPECT_EQ(store->Copies(2, 0), 0);
    EXPECT_EQ(store->Copies(2, 2), 2);
    EXPECT_EQ(store->Copies(1, 3), 1);
    EXPECT_EQ(store->Copies(700, 1), 0);
    auto converted = directed ? ConvertToWeightedUndirected(700, edges)
                              : BuildSymmetric(700, edges);
    ASSERT_TRUE(converted.ok());
    ExpectSlicesMatch(*store, *converted);
    // An input already grouped by source counts the same.
    auto from_sorted =
        ShardedGraphStore::FromEdgeMultiset(700, sorted, directed, 3);
    ASSERT_TRUE(from_sorted.ok());
    EXPECT_EQ(from_sorted->Edges(), sorted);
  }
}

TEST(ShardedGraphStoreTest, ApplyDeltaGrowsOnlyTheLastShard) {
  auto ws = WattsStrogatz(1100, 3, 0.3, 11);
  ASSERT_TRUE(ws.ok());
  auto store = ShardedGraphStore::FromEdgeMultiset(ws->num_vertices,
                                                   ws->edges, true, 3);
  ASSERT_TRUE(store.ok());
  const VertexId n = ws->num_vertices;
  const VertexId cut0 = store->shard(0).end;
  const VertexId cut1 = store->shard(1).end;
  const VertexId in_shard1 = cut0;
  ASSERT_LT(in_shard1, cut1);
  // 300 new vertices, all but one isolated; one reciprocal pair between a
  // new vertex and shard 1.
  const GraphDelta delta = GraphDelta{}
                               .AddVertex(300)
                               .AddEdge(n, in_shard1)
                               .AddEdge(in_shard1, n);
  ASSERT_TRUE(store->ApplyDelta(delta).ok());
  EXPECT_EQ(store->NumVertices(), n + 300);
  EXPECT_EQ(store->labels().size(), static_cast<size_t>(n + 300));
  EXPECT_EQ(store->shard(0).end, cut0);
  EXPECT_EQ(store->shard(1).end, cut1);
  EXPECT_EQ(store->shard(2).end, n + 300);
  EXPECT_EQ(store->rebuild_count(0), 1);
  EXPECT_EQ(store->rebuild_count(1), 2);
  EXPECT_EQ(store->rebuild_count(2), 2);
  EdgeList edges = ws->edges;
  edges.push_back({n, in_shard1});
  edges.push_back({in_shard1, n});
  auto converted = ConvertToWeightedUndirected(n + 300, edges);
  ASSERT_TRUE(converted.ok());
  ExpectSlicesMatch(*store, *converted);
  EXPECT_EQ(store->shard(2).WeightsOf(n)[0], 2u);  // Eq. 3: both ways
}

TEST(ShardedGraphStoreTest, RevertRestoresThePreviousStore) {
  auto ws = WattsStrogatz(1100, 3, 0.3, 11);
  ASSERT_TRUE(ws.ok());
  auto store = ShardedGraphStore::FromEdgeMultiset(ws->num_vertices,
                                                   ws->edges, true, 3);
  ASSERT_TRUE(store.ok());
  store->ResetLoads(4);
  store->mutable_shard(1).loads[2] = 9;
  const std::vector<ShardArrays> before = ArraysOf(*store);
  const int64_t arcs = store->NumArcs();
  const int64_t weight = store->TotalArcWeight();
  const Edge e = ws->edges[7];
  auto undo = store->ApplyDelta(GraphDelta{}
                                    .AddVertex(5)
                                    .AddEdge(3, 1101)
                                    .AddEdge(e.dst, e.src)
                                    .RemoveEdge(e.src, e.dst)
                                    .AddEdge(9, 9));
  ASSERT_TRUE(undo.ok());
  store->ResetLoads(4);  // a label propagation run would
  store->Revert(std::move(undo).value());
  EXPECT_EQ(ArraysOf(*store), before);
  EXPECT_EQ(store->NumVertices(), ws->num_vertices);
  EXPECT_EQ(store->labels().size(), static_cast<size_t>(ws->num_vertices));
  EXPECT_EQ(store->NumArcs(), arcs);
  EXPECT_EQ(store->TotalArcWeight(), weight);
  EXPECT_EQ(store->NumEdges(), static_cast<int64_t>(ws->edges.size()));
}

// --- The substrate guarantee: results don't depend on S or threads -------

TEST(ShardedSpinnerTest, AssignmentIsBitIdenticalAcrossShardAndThreadCounts) {
  const CsrGraph g = SmallWorldConverted(1100, 21);
  SpinnerConfig config;
  config.num_partitions = 6;
  config.seed = 7;

  std::vector<PartitionId> reference;
  int reference_iterations = 0;
  const struct {
    int shards;
    int threads;
  } shapes[] = {{1, 1}, {2, 1}, {7, 4}, {3, 8}, {0, 0}};
  for (const auto& shape : shapes) {
    SpinnerConfig run_config = config;
    run_config.execution.num_shards = shape.shards;
    run_config.execution.num_threads = shape.threads;
    SpinnerPartitioner partitioner(run_config);
    auto result = partitioner.Partition(g);
    ASSERT_TRUE(result.ok()) << "S=" << shape.shards;
    if (reference.empty()) {
      reference = result->assignment;
      reference_iterations = result->iterations;
    } else {
      EXPECT_EQ(result->assignment, reference)
          << "S=" << shape.shards << " threads=" << shape.threads;
      EXPECT_EQ(result->iterations, reference_iterations);
    }
  }
}

TEST(ShardedSpinnerTest, SkewedGraphResultsAreShardCountInvariant) {
  // Uneven cost-balanced cuts must not perturb anything: assignment and
  // the float history match bit-for-bit for every S.
  const CsrGraph g = PowerLawConverted(4000, 13);
  SpinnerConfig config;
  config.num_partitions = 6;
  config.seed = 3;
  config.max_iterations = 15;
  config.use_halting = false;

  std::vector<PartitionResult> results;
  for (const int shards : {1, 3, 9}) {
    SpinnerConfig run_config = config;
    run_config.execution.num_shards = shards;
    run_config.execution.num_threads = shards == 1 ? 1 : 3;
    auto result = SpinnerPartitioner(run_config).Partition(g);
    ASSERT_TRUE(result.ok()) << "S=" << shards;
    results.push_back(std::move(result).value());
  }
  for (size_t r = 1; r < results.size(); ++r) {
    EXPECT_EQ(results[r].assignment, results[0].assignment) << r;
    ASSERT_EQ(results[r].history.size(), results[0].history.size()) << r;
    for (size_t i = 0; i < results[0].history.size(); ++i) {
      EXPECT_EQ(results[r].history[i].score, results[0].history[i].score);
      EXPECT_EQ(results[r].history[i].phi, results[0].history[i].phi);
      EXPECT_EQ(results[r].history[i].rho, results[0].history[i].rho);
      EXPECT_EQ(results[r].history[i].loads, results[0].history[i].loads);
    }
  }
}

TEST(ShardedSpinnerTest, HistoryAndScoresAreShardCountInvariant) {
  // Even the floating-point convergence curve must match bit-for-bit:
  // the per-block score reduction never depends on S.
  const CsrGraph g = SmallWorldConverted(900, 3);
  SpinnerConfig config;
  config.num_partitions = 4;
  config.max_iterations = 12;
  config.use_halting = false;

  config.execution.num_shards = 1;
  auto one = SpinnerPartitioner(config).Partition(g);
  config.execution.num_shards = 5;
  config.execution.num_threads = 4;
  auto five = SpinnerPartitioner(config).Partition(g);
  ASSERT_TRUE(one.ok() && five.ok());
  ASSERT_EQ(one->history.size(), five->history.size());
  for (size_t i = 0; i < one->history.size(); ++i) {
    EXPECT_EQ(one->history[i].score, five->history[i].score) << i;
    EXPECT_EQ(one->history[i].phi, five->history[i].phi) << i;
    EXPECT_EQ(one->history[i].rho, five->history[i].rho) << i;
    EXPECT_EQ(one->history[i].loads, five->history[i].loads) << i;
  }
}

TEST(ShardedSpinnerTest, StoreLoadsStayConsistentWithAssignment) {
  const CsrGraph g = SmallWorldConverted(700, 9);
  SpinnerConfig config;
  config.num_partitions = 5;
  auto store = ShardedGraphStore::Build(g, 4);
  ASSERT_TRUE(store.ok());
  ThreadPool pool(2);
  std::vector<PartitionId> no_labels(g.NumVertices(), kNoPartition);
  auto run = RunShardedSpinner(config, &*store, no_labels, &pool,
                               /*observer=*/nullptr);
  ASSERT_TRUE(run.ok());

  // The merged per-shard counters must equal loads recomputed from the
  // final labels.
  std::vector<int64_t> expected(5, 0);
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    expected[store->labels()[v]] += g.WeightedDegree(v);
  }
  EXPECT_EQ(store->MergedLoads(), expected);
}

TEST(ShardedSpinnerTest, RejectsInitialLabelsOutsideTheRange) {
  // Every per-label table has k slots, so a fixed restart label must be
  // kNoPartition or in [0, k); anything else is refused before Initialize.
  const CsrGraph g = SmallWorldConverted(300, 4);
  SpinnerConfig config;
  config.num_partitions = 4;
  config.max_iterations = 2;
  ThreadPool pool(1);
  for (const PartitionId bad : {4, 300, -2}) {
    auto store = ShardedGraphStore::Build(g, 2);
    ASSERT_TRUE(store.ok());
    std::vector<PartitionId> initial(g.NumVertices(), kNoPartition);
    initial[17] = bad;
    auto run = RunShardedSpinner(config, &*store, initial, &pool,
                                 /*observer=*/nullptr);
    ASSERT_FALSE(run.ok()) << "label " << bad;
    EXPECT_EQ(run.status().code(), StatusCode::kInvalidArgument)
        << run.status();
  }
  auto store = ShardedGraphStore::Build(g, 2);
  ASSERT_TRUE(store.ok());
  std::vector<PartitionId> initial(g.NumVertices(), kNoPartition);
  initial[17] = 3;
  auto run = RunShardedSpinner(config, &*store, initial, &pool,
                               /*observer=*/nullptr);
  ASSERT_TRUE(run.ok()) << run.status();
}

TEST(ShardedSpinnerTest, ResolveHelpersHonorExplicitConfig) {
  SpinnerConfig config;
  config.execution.num_shards = 9;
  config.execution.num_threads = 3;
  EXPECT_EQ(ResolveNumShards(config, 100000), 9);
  EXPECT_EQ(ResolveNumThreads(config), 3);

  config.execution.num_shards = 0;
  config.execution.num_threads = 0;
  const int hardware =
      static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  // Auto: one shard per hardware thread, capped by the block count.
  const int64_t blocks = (100000 + ShardedGraphStore::kBlockSize - 1) /
                         ShardedGraphStore::kBlockSize;
  EXPECT_EQ(ResolveNumShards(config, 100000),
            static_cast<int>(std::min<int64_t>(hardware, blocks)));
  // Block stealing decouples threads from shards: the default is the
  // hardware concurrency whatever the shard count.
  EXPECT_GE(ResolveNumThreads(config), 1);
  EXPECT_EQ(ResolveNumThreads(config), hardware);

  // Tiny graphs never get more shards than blocks.
  EXPECT_EQ(ResolveNumShards(config, 10), 1);
}

}  // namespace
}  // namespace spinner
