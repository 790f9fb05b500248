// PartitioningSession::ApplyDelta patches its store in place. These tests
// run seeded random delta sequences through the session and through the
// full-rebuild reference (session_reference.h) and compare, after every
// step, the store's per-shard CSR arrays, the assignment, the metrics and
// the edge multiset — in-process, over forked workers and over dial-in TCP
// workers — and check that a failed delta leaves the store as it was.
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <functional>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "dist/worker.h"
#include "dist/transport.h"
#include "graph/delta.h"
#include "graph/generators.h"
#include "session_reference.h"
#include "spinner/session.h"

namespace spinner {
namespace {

using session_reference::FullRebuildSession;

constexpr int kShards = 3;

SpinnerConfig DeltaConfig(int k) {
  SpinnerConfig config;
  config.num_partitions = k;
  config.seed = 5;
  config.max_iterations = 30;
  return config;
}

/// A small-world graph plus duplicate edges, reciprocal pairs and
/// self-loops, so Open() counts a real multiset.
GeneratedGraph MultisetGraph(int64_t n, uint64_t seed) {
  auto ws = WattsStrogatz(n, 3, 0.3, seed);
  SPINNER_CHECK(ws.ok());
  GeneratedGraph g = std::move(ws).value();
  const size_t m = g.edges.size();
  for (size_t i = 0; i < m; i += 37) g.edges.push_back(g.edges[i]);
  for (size_t i = 5; i < m; i += 41) {
    g.edges.push_back({g.edges[i].dst, g.edges[i].src});
  }
  for (VertexId v = 3; v < n; v += 97) g.edges.push_back({v, v});
  return g;
}

/// A random delta over the current multiset `edges` of `n` vertices:
/// fresh edges (some to new vertices), duplicate adds, re-adds of present
/// edges, reverse pairs, self-loops, and removals that include one copy of
/// a duplicated edge. Every removal is present, so the delta is valid.
GraphDelta RandomDelta(const EdgeList& edges, int64_t n, int step,
                       std::mt19937_64* rng) {
  GraphDelta delta;
  if (step % 3 == 2) delta.AddVertex(1 + static_cast<int64_t>((*rng)() % 4));
  const int64_t new_n = n + delta.num_new_vertices;
  const auto pick = [&](int64_t bound) {
    return static_cast<VertexId>((*rng)() % static_cast<uint64_t>(bound));
  };
  const auto m = static_cast<int64_t>(edges.size());
  const auto present = [&] { return edges[pick(m)]; };
  for (int i = 0; i < 12; ++i) delta.AddEdge(pick(new_n), pick(new_n));
  for (VertexId v = n; v < new_n; ++v) delta.AddEdge(pick(n), v);
  const Edge twice = {pick(n), pick(n)};
  delta.AddEdge(twice.src, twice.dst).AddEdge(twice.src, twice.dst);
  const Edge again = present();
  delta.AddEdge(again.src, again.dst);
  for (int i = 0; i < 3; ++i) {
    const Edge e = present();
    delta.AddEdge(e.dst, e.src);
  }
  const VertexId loop = pick(new_n);
  delta.AddEdge(loop, loop);

  // Removals: distinct positions of the multiset, so each removes one copy.
  std::vector<VertexId> positions;
  for (int i = 0; i < 6; ++i) positions.push_back(pick(m));
  EdgeList sorted = edges;
  std::sort(sorted.begin(), sorted.end());
  const auto dup = std::adjacent_find(sorted.begin(), sorted.end());
  if (dup != sorted.end()) delta.RemoveEdge(dup->src, dup->dst);
  std::sort(positions.begin(), positions.end());
  positions.erase(std::unique(positions.begin(), positions.end()),
                  positions.end());
  for (const VertexId p : positions) {
    const Edge& e = edges[p];
    // The duplicate above already took one copy of its edge.
    if (dup != sorted.end() && e == *dup) continue;
    delta.RemoveEdge(e.src, e.dst);
  }
  return delta;
}

/// The session's store against the reference's converted graph, shard by
/// shard, under the session's own cuts.
void ExpectStoreMatches(const ShardedGraphStore& store, const CsrGraph& g) {
  ASSERT_EQ(store.NumVertices(), g.NumVertices());
  EXPECT_EQ(store.NumArcs(), g.NumArcs());
  EXPECT_EQ(store.TotalArcWeight(), g.TotalArcWeight());
  VertexId begin = 0;
  for (int s = 0; s < store.num_shards(); ++s) {
    const ShardedGraphStore::Shard& shard = store.shard(s);
    ASSERT_EQ(shard.begin, begin) << "s=" << s;
    begin = shard.end;
    std::vector<int64_t> offsets = {0};
    std::vector<ShardedGraphStore::Target> targets;
    std::vector<ShardedGraphStore::Weight> weights;
    std::vector<int64_t> weighted_degree;
    std::vector<double> inv;
    for (VertexId v = shard.begin; v < shard.end; ++v) {
      const auto n = g.Neighbors(v);
      const auto w = g.Weights(v);
      targets.insert(targets.end(), n.begin(), n.end());
      weights.insert(weights.end(), w.begin(), w.end());
      offsets.push_back(static_cast<int64_t>(targets.size()));
      weighted_degree.push_back(g.WeightedDegree(v));
      inv.push_back(g.WeightedDegree(v) > 0
                        ? 1.0 / static_cast<double>(g.WeightedDegree(v))
                        : 0.0);
    }
    EXPECT_EQ(shard.offsets, offsets) << "s=" << s;
    EXPECT_EQ(shard.targets, targets) << "s=" << s;
    EXPECT_EQ(shard.weights, weights) << "s=" << s;
    EXPECT_EQ(shard.weighted_degree, weighted_degree) << "s=" << s;
    EXPECT_EQ(shard.inv_weighted_degree, inv) << "s=" << s;
  }
  EXPECT_EQ(begin, g.NumVertices());
}

void ExpectMetricsEqual(const PartitionMetrics& got,
                        const PartitionMetrics& want) {
  EXPECT_EQ(got.phi, want.phi);
  EXPECT_EQ(got.rho, want.rho);
  EXPECT_EQ(got.score, want.score);
  EXPECT_EQ(got.loads, want.loads);
  EXPECT_EQ(got.cut_weight, want.cut_weight);
  EXPECT_EQ(got.total_weight, want.total_weight);
}

/// Everything the session and the reference must agree on.
void ExpectSameState(const PartitioningSession& session,
                     const FullRebuildSession& reference) {
  ExpectStoreMatches(session.store(), reference.converted());
  EXPECT_EQ(session.assignment(), reference.assignment());
  EXPECT_EQ(session.store().labels(), session.assignment());
  EXPECT_EQ(session.last_result().iterations, reference.iterations());
  ExpectMetricsEqual(session.last_result().metrics, reference.metrics());
  auto metrics = session.Metrics();
  ASSERT_TRUE(metrics.ok()) << metrics.status();
  ExpectMetricsEqual(*metrics, reference.metrics());
  EdgeList want = reference.edges();
  std::sort(want.begin(), want.end());
  EXPECT_EQ(session.edges(), want);  // canonical order is sorted
  EXPECT_EQ(session.num_edges(), static_cast<int64_t>(want.size()));
}

/// Opens `session` and the reference on the same multiset graph, then
/// applies `steps` random deltas to both and compares after every step.
void RunDifferential(PartitioningSession* session, bool directed, int k,
                     int steps, uint64_t seed) {
  const GeneratedGraph g = MultisetGraph(700, seed);
  FullRebuildSession reference(DeltaConfig(k), kShards);
  ASSERT_TRUE(reference.Open(g.num_vertices, g.edges, directed).ok());
  const Status opened = session->Open(g.num_vertices, g.edges, directed);
  ASSERT_TRUE(opened.ok()) << opened;
  ExpectSameState(*session, reference);

  std::mt19937_64 rng(seed);
  for (int step = 0; step < steps; ++step) {
    SCOPED_TRACE("step " + std::to_string(step));
    const GraphDelta delta =
        RandomDelta(reference.edges(), reference.num_vertices(), step, &rng);
    ASSERT_TRUE(reference.ApplyDelta(delta).ok());
    const Status applied = session->ApplyDelta(delta);
    ASSERT_TRUE(applied.ok()) << applied;
    ExpectSameState(*session, reference);
  }
}

struct Case {
  bool directed;
  int k;
};
constexpr Case kCases[] = {{true, 4}, {true, 32}, {false, 4}, {false, 32}};

std::string Name(const Case& c) {
  return std::string(c.directed ? "directed" : "undirected") +
         " k=" + std::to_string(c.k);
}

TEST(SessionDeltaDifferentialTest, RandomDeltasMatchFullRebuild) {
  for (const Case& c : kCases) {
    SCOPED_TRACE(Name(c));
    SessionOptions options;
    options.execution.num_shards = kShards;
    options.execution.num_threads = 2;
    PartitioningSession session(DeltaConfig(c.k), options);
    RunDifferential(&session, c.directed, c.k, /*steps=*/9, /*seed=*/c.k);
  }
}

TEST(MultiProcessSessionDeltaDifferentialTest, RandomDeltasMatchFullRebuild) {
  for (const Case& c : kCases) {
    SCOPED_TRACE(Name(c));
    SessionOptions options;
    options.execution.mode = ExecutionMode::kMultiProcess;
    options.execution.num_shards = kShards;
    options.execution.num_workers = 2;
    PartitioningSession session(DeltaConfig(c.k), options);
    RunDifferential(&session, c.directed, c.k, /*steps=*/4, /*seed=*/c.k);
  }
}

TEST(TcpSessionDeltaDifferentialTest, RandomDeltasMatchFullRebuild) {
  for (const Case& c : kCases) {
    SCOPED_TRACE(Name(c));
    std::vector<pid_t> workers;
    {
      SessionOptions options;
      options.execution.mode = ExecutionMode::kTcp;
      options.execution.num_shards = kShards;
      options.execution.num_workers = 2;
      options.execution.listen_address = "127.0.0.1:0";
      PartitioningSession session(DeltaConfig(c.k), options);
      auto address = session.TcpAddress();
      ASSERT_TRUE(address.ok()) << address.status();
      for (int w = 0; w < 2; ++w) {
        const pid_t pid = fork();
        ASSERT_GE(pid, 0);
        if (pid == 0) {
          _exit(dist::RunTcpWorker(*address, dist::TransportOptions{}, {}));
        }
        workers.push_back(pid);
      }
      RunDifferential(&session, c.directed, c.k, /*steps=*/4, /*seed=*/c.k);
    }
    // Session teardown closed the pooled connections; the workers exit 0.
    for (const pid_t pid : workers) {
      int status = 0;
      ASSERT_EQ(::waitpid(pid, &status, 0), pid);
      EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
          << "worker pid " << pid << " status " << status;
    }
  }
}

/// Every array of every shard, the multiset included.
struct StoreImage {
  std::vector<std::vector<int64_t>> offsets, weighted_degree, loads;
  std::vector<std::vector<ShardedGraphStore::Target>> targets;
  std::vector<std::vector<ShardedGraphStore::Weight>> weights;
  std::vector<std::vector<uint32_t>> copies, self_loops;
  std::vector<VertexId> ends;
  std::vector<int64_t> rebuild_counts;
  int64_t arcs = 0, weight = 0, edges = 0;
  bool operator==(const StoreImage&) const = default;
};

StoreImage ImageOf(const ShardedGraphStore& store) {
  StoreImage image;
  for (int s = 0; s < store.num_shards(); ++s) {
    const ShardedGraphStore::Shard& shard = store.shard(s);
    image.offsets.push_back(shard.offsets);
    image.weighted_degree.push_back(shard.weighted_degree);
    image.targets.push_back(shard.targets);
    image.weights.push_back(shard.weights);
    image.copies.push_back(shard.copies);
    image.self_loops.push_back(shard.self_loops);
    image.loads.push_back(shard.loads);
    image.ends.push_back(shard.end);
    image.rebuild_counts.push_back(store.rebuild_count(s));
  }
  image.arcs = store.NumArcs();
  image.weight = store.TotalArcWeight();
  image.edges = store.NumEdges();
  return image;
}

TEST(MultiProcessSessionTest, FailedApplyDeltaRestoresTheStore) {
  const GeneratedGraph g = MultisetGraph(700, 3);
  SessionOptions options;
  options.execution.mode = ExecutionMode::kMultiProcess;
  options.execution.num_shards = kShards;
  options.execution.num_workers = 2;
  PartitioningSession session(DeltaConfig(4), options);
  ASSERT_TRUE(session.Open(g.num_vertices, g.edges, true).ok());
  const StoreImage before = ImageOf(session.store());
  const std::vector<PartitionId> assignment = session.assignment();
  const EdgeList edges = session.edges();

  std::mt19937_64 rng(11);
  const GraphDelta delta = RandomDelta(edges, g.num_vertices, 2, &rng);
  ASSERT_GT(delta.num_new_vertices, 0);
  // Every worker connection dies on its 10th reply frame, a few supersteps
  // in, when labels have already migrated; recovery is off
  // (max_recovery_attempts = 0), so label propagation fails after the
  // store was patched.
  ASSERT_EQ(::setenv("SPINNER_FAULT_PLAN", "close:dir=w2c:frame=9", 1), 0);
  const Status failed = session.ApplyDelta(delta);
  ASSERT_EQ(::unsetenv("SPINNER_FAULT_PLAN"), 0);
  ASSERT_FALSE(failed.ok());

  EXPECT_EQ(ImageOf(session.store()), before);
  EXPECT_EQ(session.store().labels(), session.assignment());
  EXPECT_EQ(session.assignment(), assignment);
  EXPECT_EQ(session.edges(), edges);
  EXPECT_EQ(session.num_vertices(), g.num_vertices);

  // The restored session applies the same delta like one that never
  // failed.
  FullRebuildSession reference(DeltaConfig(4), kShards);
  ASSERT_TRUE(reference.Open(g.num_vertices, g.edges, true).ok());
  ASSERT_TRUE(reference.ApplyDelta(delta).ok());
  const Status applied = session.ApplyDelta(delta);
  ASSERT_TRUE(applied.ok()) << applied;
  ExpectSameState(session, reference);
}

/// Opens a forked-worker session and makes `call` fail on it: every
/// worker connection dies on its 10th reply frame, after labels have
/// migrated, with recovery off. Nothing observable may change. Then
/// `call` is retried and must match an in-process session that ran it
/// without failing.
void ExpectFailedCallLeavesSessionUntouched(
    const std::function<Status(PartitioningSession*)>& call) {
  const GeneratedGraph g = MultisetGraph(700, 3);
  SessionOptions options;
  options.execution.mode = ExecutionMode::kMultiProcess;
  options.execution.num_shards = kShards;
  options.execution.num_workers = 2;
  PartitioningSession session(DeltaConfig(4), options);
  ASSERT_TRUE(session.Open(g.num_vertices, g.edges, true).ok());
  const std::vector<PartitionId> assignment = session.assignment();
  const int iterations = session.last_result().iterations;

  ASSERT_EQ(::setenv("SPINNER_FAULT_PLAN", "close:dir=w2c:frame=9", 1), 0);
  const Status failed = call(&session);
  ASSERT_EQ(::unsetenv("SPINNER_FAULT_PLAN"), 0);
  ASSERT_FALSE(failed.ok());

  EXPECT_EQ(session.num_partitions(), 4);
  EXPECT_EQ(session.config().num_partitions, 4);
  EXPECT_EQ(session.assignment(), assignment);
  EXPECT_EQ(session.last_result().iterations, iterations);
  EXPECT_EQ(session.store().labels(), session.assignment());

  SessionOptions in_process;
  in_process.execution.num_shards = kShards;
  PartitioningSession reference(DeltaConfig(4), in_process);
  ASSERT_TRUE(reference.Open(g.num_vertices, g.edges, true).ok());
  ASSERT_TRUE(call(&reference).ok());
  const Status retried = call(&session);
  ASSERT_TRUE(retried.ok()) << retried;
  EXPECT_EQ(session.num_partitions(), reference.num_partitions());
  EXPECT_EQ(session.config().num_partitions, reference.num_partitions());
  EXPECT_EQ(session.assignment(), reference.assignment());
  EXPECT_EQ(session.store().labels(), session.assignment());
  EXPECT_EQ(session.last_result().iterations,
            reference.last_result().iterations);
  ExpectMetricsEqual(session.last_result().metrics,
                     reference.last_result().metrics);
}

TEST(MultiProcessSessionTest, FailedRescaleLeavesTheSessionUntouched) {
  for (const int new_k : {6, 2}) {
    SCOPED_TRACE("new_k " + std::to_string(new_k));
    ExpectFailedCallLeavesSessionUntouched(
        [new_k](PartitioningSession* session) {
          return session->Rescale(new_k);
        });
  }
}

TEST(MultiProcessSessionTest, FailedRefineLeavesTheSessionUntouched) {
  ExpectFailedCallLeavesSessionUntouched(
      [](PartitioningSession* session) { return session->Refine(); });
}

}  // namespace
}  // namespace spinner
