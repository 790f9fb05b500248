// Engine semantics tests: superstep-delayed message delivery, vote-to-halt
// with reactivation, combiners, aggregator visibility, placement-dependent
// local/remote statistics, and determinism across worker counts.
#include "pregel/engine.h"

#include <gtest/gtest.h>

#include <set>

#include "graph/conversion.h"
#include "graph/generators.h"
#include "pregel/topology.h"

namespace spinner::pregel {
namespace {

CsrGraph RingGraph(int64_t n) {
  auto ring = Ring(n);
  auto g = BuildSymmetric(ring.num_vertices, ring.edges);
  SPINNER_CHECK(g.ok());
  return std::move(g).value();
}

template <typename V, typename M>
PregelEngine<V, M> MakeEngine(const CsrGraph& graph, int workers,
                              V init_value = V{}) {
  EngineConfig config;
  config.num_workers = workers;
  return PregelEngine<V, M>(graph, config, HashPlacement(workers),
                            [init_value](VertexId) { return init_value; });
}

// --- Message timing ---------------------------------------------------

/// Each vertex records the superstep at which it receives its neighbor's
/// message; sends happen only at superstep 0.
struct RecvVertex {
  int64_t received_at = -1;
};

class SendOnceProgram : public VertexProgram<RecvVertex, int64_t> {
 public:
  void Compute(VertexHandle<RecvVertex, int64_t>& v,
               std::span<const int64_t> messages) override {
    if (v.superstep() == 0) {
      v.SendMessageToAllEdges(1);
    }
    if (!messages.empty() && v.value().received_at < 0) {
      v.value().received_at = v.superstep();
    }
    if (v.superstep() > 0) v.VoteToHalt();
  }
};

TEST(PregelEngineTest, MessagesArriveExactlyOneSuperstepLater) {
  CsrGraph g = RingGraph(10);
  auto engine = MakeEngine<RecvVertex, int64_t>(g, 3);
  SendOnceProgram program;
  engine.Run(program);
  engine.ForEachVertex([](VertexId, const RecvVertex& v) {
    EXPECT_EQ(v.received_at, 1);
  });
}

// --- Vote-to-halt & reactivation ---------------------------------------

/// Vertex 0 sends a wake-up to its successor at superstep equal to the
/// successor's id; all vertices halt immediately otherwise. Checks that a
/// halted vertex is reactivated by an incoming message.
struct WakeVertex {
  int64_t woken_at = -1;
};

class ChainWakeProgram : public VertexProgram<WakeVertex, int64_t> {
 public:
  void Compute(VertexHandle<WakeVertex, int64_t>& v,
               std::span<const int64_t> messages) override {
    if (v.superstep() == 0 && v.id() == 0) {
      v.value().woken_at = 0;
      v.SendMessage(1, 0);
      v.VoteToHalt();
      return;
    }
    if (!messages.empty()) {
      v.value().woken_at = v.superstep();
      if (v.id() + 1 < v.total_num_vertices()) {
        v.SendMessage(v.id() + 1, 0);
      }
    }
    v.VoteToHalt();
  }
};

TEST(PregelEngineTest, HaltedVerticesReactivateOnMessage) {
  auto path = Path(6);
  auto g = BuildSymmetric(path.num_vertices, path.edges);
  ASSERT_TRUE(g.ok());
  auto engine = MakeEngine<WakeVertex, int64_t>(*g, 2);
  ChainWakeProgram program;
  RunStats stats = engine.Run(program);
  engine.ForEachVertex([](VertexId id, const WakeVertex& v) {
    EXPECT_EQ(v.woken_at, id) << "vertex " << id;
  });
  // The chain takes n supersteps, then one more with no messages to halt.
  EXPECT_LE(stats.supersteps, 7);
}

TEST(PregelEngineTest, TerminatesWhenAllHaltAndNoMessages) {
  CsrGraph g = RingGraph(5);
  auto engine = MakeEngine<RecvVertex, int64_t>(g, 2);

  class HaltNow : public VertexProgram<RecvVertex, int64_t> {
   public:
    void Compute(VertexHandle<RecvVertex, int64_t>& v,
                 std::span<const int64_t>) override {
      v.VoteToHalt();
    }
  } program;
  RunStats stats = engine.Run(program);
  EXPECT_EQ(stats.supersteps, 1);
  EXPECT_EQ(stats.per_superstep[0].active_vertices, 5);
}

// --- Combiner -----------------------------------------------------------

struct SumVertex {
  int64_t sum = 0;
  int64_t message_count = 0;
};

class CombinerProgram : public VertexProgram<SumVertex, int64_t> {
 public:
  void Compute(VertexHandle<SumVertex, int64_t>& v,
               std::span<const int64_t> messages) override {
    if (v.superstep() == 0) {
      // Everyone sends its id to vertex 0, twice.
      v.SendMessage(0, v.id());
      v.SendMessage(0, v.id());
      return;
    }
    v.value().message_count = static_cast<int64_t>(messages.size());
    for (int64_t m : messages) v.value().sum += m;
    v.VoteToHalt();
  }
  bool HasCombiner() const override { return true; }
  void Combine(int64_t* acc, const int64_t& in) const override { *acc += in; }
};

TEST(PregelEngineTest, CombinerReducesToSingleMessagePerVertex) {
  CsrGraph g = RingGraph(8);
  auto engine = MakeEngine<SumVertex, int64_t>(g, 3);
  CombinerProgram program;
  engine.Run(program);
  const SumVertex& v0 = engine.Value(0);
  EXPECT_EQ(v0.message_count, 1);          // all 16 messages combined
  EXPECT_EQ(v0.sum, 2 * (0 + 1 + 2 + 3 + 4 + 5 + 6 + 7));
}

// --- Aggregators ---------------------------------------------------------

struct AggVertex {
  double observed = -1;
};

class AggregatorProgram : public VertexProgram<AggVertex, char> {
 public:
  void RegisterAggregators(AggregatorRegistry* registry) override {
    registry->Register("count", std::make_unique<DoubleSumAggregator>());
  }
  void Compute(VertexHandle<AggVertex, char>& v,
               std::span<const char>) override {
    if (v.superstep() == 0) {
      // Value aggregated at superstep 0 must be invisible now...
      EXPECT_EQ(v.Aggregated<DoubleSumAggregator>("count")->value(), 0);
      v.AggregatePartial<DoubleSumAggregator>("count")->Add(1);
    } else if (v.superstep() == 1) {
      // ...and visible at superstep 1.
      v.value().observed =
          v.Aggregated<DoubleSumAggregator>("count")->value();
      v.VoteToHalt();
    }
  }
  bool MasterCompute(MasterContext& ctx) override {
    return ctx.superstep() < 1;  // run exactly 2 supersteps
  }
};

TEST(PregelEngineTest, AggregatedValuesVisibleNextSuperstep) {
  CsrGraph g = RingGraph(12);
  auto engine = MakeEngine<AggVertex, char>(g, 4);
  AggregatorProgram program;
  engine.Run(program);
  engine.ForEachVertex([](VertexId, const AggVertex& v) {
    EXPECT_EQ(v.observed, 12);
  });
}

// --- Statistics ------------------------------------------------------------

class BroadcastProgram : public VertexProgram<RecvVertex, int64_t> {
 public:
  void Compute(VertexHandle<RecvVertex, int64_t>& v,
               std::span<const int64_t>) override {
    if (v.superstep() == 0) {
      v.SendMessageToAllEdges(7);
    } else {
      v.VoteToHalt();
    }
  }
};

TEST(PregelEngineTest, SingleWorkerMakesAllMessagesLocal) {
  CsrGraph g = RingGraph(16);
  auto engine = MakeEngine<RecvVertex, int64_t>(g, 1);
  BroadcastProgram program;
  RunStats stats = engine.Run(program);
  const auto& s0 = stats.per_superstep[0];
  EXPECT_EQ(s0.messages_sent, 32);  // ring: 2 arcs per vertex
  EXPECT_EQ(s0.messages_local, 32);
  EXPECT_EQ(s0.messages_remote, 0);
}

TEST(PregelEngineTest, LocalRemoteSplitMatchesPlacement) {
  CsrGraph g = RingGraph(16);
  EngineConfig config;
  config.num_workers = 4;
  // Block placement: only ring edges crossing block boundaries are remote:
  // 4 boundaries × 2 directions × 2 arcs = 8... each boundary edge carries
  // one arc per direction: 4 boundaries × 2 arcs = 8 remote messages.
  PregelEngine<RecvVertex, int64_t> engine(
      g, config, BlockPlacement(16, 4),
      [](VertexId) { return RecvVertex{}; });
  BroadcastProgram program;
  RunStats stats = engine.Run(program);
  const auto& s0 = stats.per_superstep[0];
  EXPECT_EQ(s0.messages_sent, 32);
  EXPECT_EQ(s0.messages_remote, 8);
  EXPECT_EQ(s0.messages_local, 24);
  // Per-worker ingest sums match the global count.
  int64_t in_sum = 0;
  for (int64_t x : s0.worker_messages_in) in_sum += x;
  EXPECT_EQ(in_sum, 32);
}

// --- Determinism across worker counts -----------------------------------

TEST(PregelEngineTest, ResultsIdenticalAcrossWorkerCounts) {
  auto ws = WattsStrogatz(300, 3, 0.3, 4);
  ASSERT_TRUE(ws.ok());
  auto g = BuildSymmetric(ws->num_vertices, ws->edges);
  ASSERT_TRUE(g.ok());

  auto run = [&](int workers) {
    auto engine = MakeEngine<SumVertex, int64_t>(*g, workers);
    class DegreeSum : public VertexProgram<SumVertex, int64_t> {
     public:
      void Compute(VertexHandle<SumVertex, int64_t>& v,
                   std::span<const int64_t> messages) override {
        if (v.superstep() == 0) {
          v.SendMessageToAllEdges(v.id());
          return;
        }
        for (int64_t m : messages) v.value().sum += m;
        v.VoteToHalt();
      }
    } program;
    engine.Run(program);
    std::vector<int64_t> sums;
    engine.ForEachVertex([&sums](VertexId, const SumVertex& v) {
      sums.push_back(v.sum);
    });
    return sums;
  };

  const auto one = run(1);
  const auto four = run(4);
  const auto eleven = run(11);
  EXPECT_EQ(one, four);
  EXPECT_EQ(one, eleven);
}

TEST(PregelEngineTest, MaxSuperstepsCapStopsRun) {
  CsrGraph g = RingGraph(4);
  EngineConfig config;
  config.num_workers = 1;
  config.max_supersteps = 3;
  PregelEngine<RecvVertex, int64_t> engine(
      g, config, HashPlacement(1), [](VertexId) { return RecvVertex{}; });
  class Forever : public VertexProgram<RecvVertex, int64_t> {
   public:
    void Compute(VertexHandle<RecvVertex, int64_t>& v,
                 std::span<const int64_t>) override {
      v.SendMessageToAllEdges(1);
    }
  } program;
  RunStats stats = engine.Run(program);
  EXPECT_EQ(stats.supersteps, 3);
}

TEST(PregelEngineDeathTest, SecondRunAborts) {
  CsrGraph g = RingGraph(4);
  auto engine = MakeEngine<RecvVertex, int64_t>(g, 1);
  SendOnceProgram program;
  engine.Run(program);
  SendOnceProgram program2;
  EXPECT_DEATH(engine.Run(program2), "Run called twice");
}

TEST(PregelEngineDeathTest, PlacementOutOfRangeAborts) {
  CsrGraph g = RingGraph(4);
  EngineConfig config;
  config.num_workers = 2;
  EXPECT_DEATH(
      (PregelEngine<RecvVertex, int64_t>(
          g, config, [](VertexId) { return 5; },
          [](VertexId) { return RecvVertex{}; })),
      "placement");
}

}  // namespace
}  // namespace spinner::pregel
