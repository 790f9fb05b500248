// Analytics programs (the §V.F workloads) validated against sequential
// references: PageRank vs power iteration, SSSP vs BFS, WCC vs union-find.
#include <gtest/gtest.h>

#include "apps/pagerank.h"
#include "apps/sssp.h"
#include "apps/wcc.h"
#include "graph/conversion.h"
#include "graph/generators.h"
#include "pregel/topology.h"

namespace spinner::apps {
namespace {

CsrGraph MakeSymmetric(const GeneratedGraph& g) {
  auto converted = BuildSymmetric(g.num_vertices, g.edges);
  SPINNER_CHECK(converted.ok());
  return std::move(converted).value();
}

// --- PageRank --------------------------------------------------------------

TEST(PageRankTest, MatchesReferenceOnSmallWorldGraph) {
  auto ws = WattsStrogatz(300, 4, 0.3, 12);
  ASSERT_TRUE(ws.ok());
  CsrGraph g = MakeSymmetric(*ws);

  pregel::EngineConfig config;
  config.num_workers = 4;
  PageRankEngine engine(
      g, config, pregel::HashPlacement(4),
      [](VertexId) { return PageRankVertex{}; });
  PageRankProgram program(20);
  const pregel::RunStats stats = engine.Run(program);
  // edges() is the graph's CSR adjacency: every superstep scans each arc
  // once and, with no dangling vertex, sends one message along it.
  ASSERT_EQ(stats.per_superstep.size(), 20u);
  for (const pregel::SuperstepStats& step : stats.per_superstep) {
    int64_t scanned = 0;
    for (const int64_t edges : step.worker_edges_scanned) scanned += edges;
    EXPECT_EQ(scanned, g.NumArcs()) << "superstep " << step.superstep;
    EXPECT_EQ(step.messages_sent, g.NumArcs())
        << "superstep " << step.superstep;
  }

  auto reference = PageRankReference(g, 20);
  engine.ForEachVertex([&](VertexId v, const PageRankVertex& val) {
    EXPECT_NEAR(val.rank, reference[v], 1e-9) << "vertex " << v;
  });
}

TEST(PageRankTest, HandlesDanglingVertices) {
  // Directed path 0 -> 1 -> 2; vertex 2 dangles.
  auto g = CsrGraph::FromEdges(3, {{0, 1}, {1, 2}});
  ASSERT_TRUE(g.ok());
  pregel::EngineConfig config;
  config.num_workers = 2;
  PageRankEngine engine(
      *g, config, pregel::HashPlacement(2),
      [](VertexId) { return PageRankVertex{}; });
  PageRankProgram program(30);
  engine.Run(program);

  auto reference = PageRankReference(*g, 30);
  double engine_total = 0;
  engine.ForEachVertex([&](VertexId v, const PageRankVertex& val) {
    EXPECT_NEAR(val.rank, reference[v], 1e-9);
    engine_total += val.rank;
  });
  // Dangling redistribution keeps total mass ≈ |V|.
  EXPECT_NEAR(engine_total, 3.0, 1e-6);
}

TEST(PageRankTest, HubAccumulatesRank) {
  auto star = Star(20);
  CsrGraph g = MakeSymmetric(star);
  pregel::EngineConfig config;
  config.num_workers = 3;
  PageRankEngine engine(
      g, config, pregel::HashPlacement(3),
      [](VertexId) { return PageRankVertex{}; });
  PageRankProgram program(25);
  engine.Run(program);
  const double hub = engine.Value(0).rank;
  const double leaf = engine.Value(1).rank;
  EXPECT_GT(hub, 5.0 * leaf);
}

TEST(PageRankTest, RunsExactlyRequestedSupersteps) {
  CsrGraph g = MakeSymmetric(Ring(10));
  pregel::EngineConfig config;
  config.num_workers = 2;
  PageRankEngine engine(
      g, config, pregel::HashPlacement(2),
      [](VertexId) { return PageRankVertex{}; });
  PageRankProgram program(20);
  auto stats = engine.Run(program);
  EXPECT_EQ(stats.supersteps, 20);
}

// --- SSSP -------------------------------------------------------------------

TEST(SsspTest, MatchesBfsReference) {
  auto ws = WattsStrogatz(400, 3, 0.2, 8);
  ASSERT_TRUE(ws.ok());
  CsrGraph g = MakeSymmetric(*ws);
  pregel::EngineConfig config;
  config.num_workers = 4;
  SsspEngine engine(
      g, config, pregel::HashPlacement(4),
      [](VertexId) { return SsspVertex{}; });
  SsspProgram program(/*source=*/0);
  engine.Run(program);
  auto reference = BfsReference(g, 0);
  engine.ForEachVertex([&](VertexId v, const SsspVertex& val) {
    EXPECT_EQ(val.distance, reference[v]) << "vertex " << v;
  });
}

TEST(SsspTest, UnreachableVerticesStayInfinite) {
  // Two disjoint edges: 0-1, 2-3.
  auto g = BuildSymmetric(4, {{0, 1}, {2, 3}});
  ASSERT_TRUE(g.ok());
  pregel::EngineConfig config;
  config.num_workers = 2;
  SsspEngine engine(
      *g, config, pregel::HashPlacement(2),
      [](VertexId) { return SsspVertex{}; });
  SsspProgram program(0);
  engine.Run(program);
  EXPECT_EQ(engine.Value(0).distance, 0);
  EXPECT_EQ(engine.Value(1).distance, 1);
  EXPECT_EQ(engine.Value(2).distance, kInfDistance);
  EXPECT_EQ(engine.Value(3).distance, kInfDistance);
}

TEST(SsspTest, FrontierTerminatesInDiameterSupersteps) {
  CsrGraph g = MakeSymmetric(Path(30));
  pregel::EngineConfig config;
  config.num_workers = 2;
  SsspEngine engine(
      g, config, pregel::HashPlacement(2),
      [](VertexId) { return SsspVertex{}; });
  SsspProgram program(0);
  auto stats = engine.Run(program);
  // 29 hops + 1 quiescent superstep (plus slack for halting mechanics).
  EXPECT_LE(stats.supersteps, 32);
  EXPECT_EQ(engine.Value(29).distance, 29);
}

// --- WCC --------------------------------------------------------------------

TEST(WccTest, MatchesUnionFindReference) {
  // Erdős-Rényi below the connectivity threshold: many components.
  auto er = ErdosRenyi(300, 150, 44);
  ASSERT_TRUE(er.ok());
  CsrGraph g = MakeSymmetric(*er);
  pregel::EngineConfig config;
  config.num_workers = 4;
  WccEngine engine(
      g, config, pregel::HashPlacement(4),
      [](VertexId) { return WccVertex{}; });
  WccProgram program;
  engine.Run(program);
  auto reference = WccReference(g);
  engine.ForEachVertex([&](VertexId v, const WccVertex& val) {
    EXPECT_EQ(val.component, reference[v]) << "vertex " << v;
  });
}

TEST(WccTest, SingleComponentGetsMinimumId) {
  CsrGraph g = MakeSymmetric(Ring(64));
  pregel::EngineConfig config;
  config.num_workers = 3;
  WccEngine engine(
      g, config, pregel::HashPlacement(3),
      [](VertexId) { return WccVertex{}; });
  WccProgram program;
  engine.Run(program);
  engine.ForEachVertex([](VertexId, const WccVertex& val) {
    EXPECT_EQ(val.component, 0);
  });
}

TEST(WccTest, IsolatedVerticesAreOwnComponents) {
  auto g = BuildSymmetric(5, {{0, 1}});
  ASSERT_TRUE(g.ok());
  pregel::EngineConfig config;
  config.num_workers = 2;
  WccEngine engine(
      *g, config, pregel::HashPlacement(2),
      [](VertexId) { return WccVertex{}; });
  WccProgram program;
  engine.Run(program);
  EXPECT_EQ(engine.Value(0).component, 0);
  EXPECT_EQ(engine.Value(1).component, 0);
  EXPECT_EQ(engine.Value(2).component, 2);
  EXPECT_EQ(engine.Value(3).component, 3);
  EXPECT_EQ(engine.Value(4).component, 4);
}

}  // namespace
}  // namespace spinner::apps
