#include "graph/csr_graph.h"

#include <gtest/gtest.h>

#include "graph/edge_list.h"

namespace spinner {
namespace {

TEST(EdgeListTest, MaxVertexId) {
  EXPECT_EQ(MaxVertexId({}), -1);
  EXPECT_EQ(MaxVertexId({{0, 5}, {3, 1}}), 5);
  EXPECT_EQ(MaxVertexId({{7, 2}}), 7);
}

TEST(EdgeListTest, SortAndDedup) {
  EdgeList edges = {{1, 2}, {0, 1}, {1, 2}, {0, 1}, {2, 0}};
  SortAndDedup(&edges);
  EdgeList expected = {{0, 1}, {1, 2}, {2, 0}};
  EXPECT_EQ(edges, expected);
}

TEST(EdgeListTest, RemoveSelfLoops) {
  EdgeList edges = {{0, 0}, {0, 1}, {1, 1}, {1, 2}};
  RemoveSelfLoops(&edges);
  EdgeList expected = {{0, 1}, {1, 2}};
  EXPECT_EQ(edges, expected);
}

TEST(EdgeListTest, OutDegrees) {
  auto deg = OutDegrees({{0, 1}, {0, 2}, {2, 0}}, 3);
  EXPECT_EQ(deg, (std::vector<int64_t>{2, 0, 1}));
}

TEST(EdgeListTest, EdgesInRange) {
  EXPECT_TRUE(EdgesInRange({{0, 1}}, 2));
  EXPECT_FALSE(EdgesInRange({{0, 2}}, 2));
  EXPECT_FALSE(EdgesInRange({{-1, 0}}, 2));
  EXPECT_TRUE(EdgesInRange({}, 0));
}

TEST(CsrGraphTest, EmptyGraph) {
  auto g = CsrGraph::FromEdges(0, {});
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->NumVertices(), 0);
  EXPECT_EQ(g->NumArcs(), 0);
  EXPECT_EQ(g->TotalArcWeight(), 0);
}

TEST(CsrGraphTest, VerticesWithoutEdges) {
  auto g = CsrGraph::FromEdges(3, {});
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->NumVertices(), 3);
  EXPECT_EQ(g->OutDegree(1), 0);
  EXPECT_TRUE(g->Neighbors(1).empty());
}

TEST(CsrGraphTest, AdjacencySortedByTarget) {
  auto g = CsrGraph::FromEdges(4, {{1, 3}, {1, 0}, {1, 2}, {0, 2}});
  ASSERT_TRUE(g.ok());
  auto nbrs = g->Neighbors(1);
  ASSERT_EQ(nbrs.size(), 3u);
  EXPECT_EQ(nbrs[0], 0);
  EXPECT_EQ(nbrs[1], 2);
  EXPECT_EQ(nbrs[2], 3);
  EXPECT_EQ(g->OutDegree(0), 1);
  EXPECT_EQ(g->OutDegree(2), 0);
}

TEST(CsrGraphTest, WeightsFollowEdges) {
  const EdgeList edges = {{0, 1}, {0, 2}, {1, 0}};
  const std::vector<EdgeWeight> weights = {2, 1, 2};
  auto g = CsrGraph::FromEdges(3, edges, weights);
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->WeightedDegree(0), 3);
  EXPECT_EQ(g->WeightedDegree(1), 2);
  EXPECT_EQ(g->TotalArcWeight(), 5);
  auto w0 = g->Weights(0);
  ASSERT_EQ(w0.size(), 2u);
  EXPECT_EQ(w0[0], 2u);  // arc to 1
  EXPECT_EQ(w0[1], 1u);  // arc to 2
}

TEST(CsrGraphTest, DefaultWeightIsOne) {
  auto g = CsrGraph::FromEdges(2, {{0, 1}});
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->TotalArcWeight(), 1);
  EXPECT_EQ(g->Weights(0)[0], 1u);
}

TEST(CsrGraphTest, RejectsOutOfRangeEdge) {
  EXPECT_FALSE(CsrGraph::FromEdges(2, {{0, 2}}).ok());
  EXPECT_FALSE(CsrGraph::FromEdges(2, {{-1, 0}}).ok());
  EXPECT_FALSE(CsrGraph::FromEdges(-1, {}).ok());
}

TEST(CsrGraphTest, RejectsWeightLengthMismatch) {
  const std::vector<EdgeWeight> weights = {1};
  EXPECT_FALSE(CsrGraph::FromEdges(2, {{0, 1}, {1, 0}}, weights).ok());
}

TEST(CsrGraphTest, RejectsZeroWeight) {
  // The LPA label pick needs every arc weight >= 1 (spinner/lpa_kernel.h).
  const std::vector<EdgeWeight> weights = {1, 0};
  auto g = CsrGraph::FromEdges(2, {{0, 1}, {1, 0}}, weights);
  ASSERT_FALSE(g.ok());
  EXPECT_EQ(g.status().code(), StatusCode::kInvalidArgument);
}

TEST(CsrGraphTest, KeepsParallelArcs) {
  auto g = CsrGraph::FromEdges(2, {{0, 1}, {0, 1}});
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->OutDegree(0), 2);
  EXPECT_EQ(g->NumArcs(), 2);
}

TEST(CsrGraphTest, HasArc) {
  auto g = CsrGraph::FromEdges(3, {{0, 1}, {1, 2}});
  ASSERT_TRUE(g.ok());
  EXPECT_TRUE(g->HasArc(0, 1));
  EXPECT_FALSE(g->HasArc(1, 0));
  EXPECT_TRUE(g->HasArc(1, 2));
  EXPECT_FALSE(g->HasArc(0, 2));
}

TEST(CsrGraphTest, IsSymmetricDetectsAsymmetry) {
  auto sym = CsrGraph::FromEdges(2, {{0, 1}, {1, 0}});
  ASSERT_TRUE(sym.ok());
  EXPECT_TRUE(sym->IsSymmetric());

  auto asym = CsrGraph::FromEdges(2, {{0, 1}});
  ASSERT_TRUE(asym.ok());
  EXPECT_FALSE(asym->IsSymmetric());
}

TEST(CsrGraphTest, IsSymmetricChecksWeights) {
  const std::vector<EdgeWeight> mismatched = {2, 1};
  auto g = CsrGraph::FromEdges(2, {{0, 1}, {1, 0}}, mismatched);
  ASSERT_TRUE(g.ok());
  EXPECT_FALSE(g->IsSymmetric());
}

TEST(CsrGraphTest, ToEdgeListRoundTrips) {
  const EdgeList edges = {{0, 1}, {1, 2}, {2, 0}};
  auto g = CsrGraph::FromEdges(3, edges);
  ASSERT_TRUE(g.ok());
  EdgeList out = g->ToEdgeList();
  SortAndDedup(&out);
  EdgeList expected = edges;
  SortAndDedup(&expected);
  EXPECT_EQ(out, expected);
}

TEST(CsrGraphTest, ArcBeginConsistentWithDegrees) {
  auto g = CsrGraph::FromEdges(3, {{0, 1}, {0, 2}, {1, 2}});
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->ArcBegin(0), 0);
  EXPECT_EQ(g->ArcBegin(1), 2);
  EXPECT_EQ(g->ArcBegin(2), 3);
}

}  // namespace
}  // namespace spinner
