// Engine edge cases beyond the core-semantics suite: self-messages,
// message conservation across stats, empty graphs, and more workers than
// vertices.
#include <gtest/gtest.h>

#include "graph/conversion.h"
#include "graph/generators.h"
#include "pregel/engine.h"
#include "pregel/topology.h"

namespace spinner::pregel {
namespace {

struct CounterVertex {
  int64_t received = 0;
};

TEST(EngineEdgeCaseTest, SelfMessagesDeliverNextSuperstep) {
  auto g = BuildSymmetric(3, {{0, 1}, {1, 2}});
  ASSERT_TRUE(g.ok());
  class SelfPing : public VertexProgram<CounterVertex, int64_t> {
   public:
    void Compute(VertexHandle<CounterVertex, int64_t>& v,
                 std::span<const int64_t> messages) override {
      if (v.superstep() == 0) {
        v.SendMessage(v.id(), 7);  // message to self
        return;
      }
      for (int64_t m : messages) {
        EXPECT_EQ(m, 7);
        ++v.value().received;
      }
      v.VoteToHalt();
    }
  } program;
  EngineConfig config;
  config.num_workers = 2;
  PregelEngine<CounterVertex, int64_t> engine(
      *g, config, HashPlacement(2),
      [](VertexId) { return CounterVertex{}; });
  engine.Run(program);
  engine.ForEachVertex([](VertexId, const CounterVertex& v) {
    EXPECT_EQ(v.received, 1);
  });
}

TEST(EngineEdgeCaseTest, MessageAccountingIsConserved) {
  auto ws = WattsStrogatz(200, 4, 0.3, 11);
  ASSERT_TRUE(ws.ok());
  auto g = BuildSymmetric(ws->num_vertices, ws->edges);
  ASSERT_TRUE(g.ok());

  class Broadcast : public VertexProgram<CounterVertex, int64_t> {
   public:
    void Compute(VertexHandle<CounterVertex, int64_t>& v,
                 std::span<const int64_t>) override {
      if (v.superstep() < 2) {
        v.SendMessageToAllEdges(1);
      } else {
        v.VoteToHalt();
      }
    }
  } program;
  EngineConfig config;
  config.num_workers = 5;
  PregelEngine<CounterVertex, int64_t> engine(
      *g, config, HashPlacement(5),
      [](VertexId) { return CounterVertex{}; });
  RunStats stats = engine.Run(program);

  for (const auto& step : stats.per_superstep) {
    // sent = local + remote; received per worker sums to sent.
    EXPECT_EQ(step.messages_sent,
              step.messages_local + step.messages_remote);
    int64_t received = 0;
    int64_t remote_received = 0;
    for (size_t w = 0; w < step.worker_messages_in.size(); ++w) {
      received += step.worker_messages_in[w];
      remote_received += step.worker_remote_messages_in[w];
    }
    EXPECT_EQ(received, step.messages_sent);
    EXPECT_EQ(remote_received, step.messages_remote);
    // per-worker outs sum to sent.
    int64_t sent = 0;
    for (int64_t out : step.worker_messages_out) sent += out;
    EXPECT_EQ(sent, step.messages_sent);
  }
}

TEST(EngineEdgeCaseTest, EmptyGraphTerminatesImmediately) {
  auto g = CsrGraph::FromEdges(0, {});
  ASSERT_TRUE(g.ok());
  class Nop : public VertexProgram<CounterVertex, int64_t> {
   public:
    void Compute(VertexHandle<CounterVertex, int64_t>& v,
                 std::span<const int64_t>) override {
      v.VoteToHalt();
    }
  } program;
  EngineConfig config;
  config.num_workers = 4;
  PregelEngine<CounterVertex, int64_t> engine(
      *g, config, HashPlacement(4),
      [](VertexId) { return CounterVertex{}; });
  RunStats stats = engine.Run(program);
  EXPECT_EQ(stats.supersteps, 1);
  EXPECT_EQ(stats.per_superstep[0].active_vertices, 0);
}

TEST(EngineEdgeCaseTest, MoreWorkersThanVertices) {
  auto g = BuildSymmetric(3, {{0, 1}, {1, 2}});
  ASSERT_TRUE(g.ok());
  class Echo : public VertexProgram<CounterVertex, int64_t> {
   public:
    void Compute(VertexHandle<CounterVertex, int64_t>& v,
                 std::span<const int64_t> messages) override {
      if (v.superstep() == 0) {
        v.SendMessageToAllEdges(1);
        return;
      }
      v.value().received += static_cast<int64_t>(messages.size());
      v.VoteToHalt();
    }
  } program;
  EngineConfig config;
  config.num_workers = 16;  // > |V|
  PregelEngine<CounterVertex, int64_t> engine(
      *g, config, HashPlacement(16),
      [](VertexId) { return CounterVertex{}; });
  engine.Run(program);
  EXPECT_EQ(engine.Value(1).received, 2);
  EXPECT_EQ(engine.Value(0).received, 1);
}

}  // namespace
}  // namespace spinner::pregel
