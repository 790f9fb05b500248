// PartitioningSession: the full adapt/rescale lifecycle, equivalence with
// the low-level entry points, snapshot/restore round-trips, and observer
// cancellation.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "graph/conversion.h"
#include "graph/delta.h"
#include "graph/generators.h"
#include "spinner/partitioner.h"
#include "spinner/session.h"

namespace spinner {
namespace {

SpinnerConfig SmallConfig(int k = 4) {
  SpinnerConfig config;
  config.num_partitions = k;
  config.execution.num_shards = 2;
  return config;
}

/// In-process session options with `shards` store shards and `threads`
/// OS threads (0 = auto).
SessionOptions ShapeOptions(int shards, int threads = 0) {
  SessionOptions options;
  options.execution.num_shards = shards;
  options.execution.num_threads = threads;
  return options;
}

/// Multi-process session options: `shards` store shards over `workers`
/// forked worker processes.
SessionOptions MultiProcessOptions(int shards, int workers) {
  SessionOptions options;
  options.execution.mode = ExecutionMode::kMultiProcess;
  options.execution.num_shards = shards;
  options.execution.num_workers = workers;
  return options;
}

GeneratedGraph SmallWorld(uint64_t seed = 9) {
  auto ws = WattsStrogatz(400, 3, 0.3, seed);
  SPINNER_CHECK(ws.ok());
  return std::move(ws).value();
}

/// RAII temp file path for snapshot tests.
struct TempPath {
  explicit TempPath(const std::string& name)
      : path(::testing::TempDir() + name) {}
  ~TempPath() { std::remove(path.c_str()); }
  const std::string path;
};

void ExpectValidAssignment(const PartitioningSession& session) {
  ASSERT_EQ(static_cast<int64_t>(session.assignment().size()),
            session.num_vertices());
  for (PartitionId l : session.assignment()) {
    ASSERT_GE(l, 0);
    ASSERT_LT(l, session.num_partitions());
  }
}

TEST(PartitioningSessionTest, OpenPartitionsFromScratch) {
  const GeneratedGraph g = SmallWorld();
  PartitioningSession session(SmallConfig());
  ASSERT_TRUE(session.Open(g.num_vertices, g.edges, g.directed).ok());
  EXPECT_TRUE(session.is_open());
  EXPECT_EQ(session.num_partitions(), 4);
  ExpectValidAssignment(session);
  EXPECT_GT(session.last_result().iterations, 0);

  // The session result matches a direct SpinnerPartitioner run.
  auto converted = BuildSymmetric(g.num_vertices, g.edges);
  ASSERT_TRUE(converted.ok());
  SpinnerPartitioner direct(SmallConfig());
  auto direct_result = direct.Partition(*converted);
  ASSERT_TRUE(direct_result.ok());
  EXPECT_EQ(session.assignment(), direct_result->assignment);
}

TEST(PartitioningSessionTest, DoubleOpenIsRejected) {
  const GeneratedGraph g = SmallWorld();
  PartitioningSession session(SmallConfig());
  ASSERT_TRUE(session.Open(g.num_vertices, g.edges, g.directed).ok());
  Status again = session.Open(g.num_vertices, g.edges, g.directed);
  ASSERT_FALSE(again.ok());
  EXPECT_EQ(again.code(), StatusCode::kFailedPrecondition);
}

TEST(PartitioningSessionTest, LifecycleCallsBeforeOpenFail) {
  PartitioningSession session(SmallConfig());
  EXPECT_EQ(session.ApplyDelta(GraphDelta{}).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(session.Rescale(8).code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(session.Refine().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(session.Snapshot("/tmp/never-written.spns").code(),
            StatusCode::kFailedPrecondition);
}

TEST(PartitioningSessionTest, ApplyDeltaGrowsGraphAndAdaptsIncrementally) {
  const GeneratedGraph g = SmallWorld();
  PartitioningSession session(SmallConfig());
  ASSERT_TRUE(session.Open(g.num_vertices, g.edges, g.directed).ok());
  const std::vector<PartitionId> before = session.assignment();

  GraphDelta delta = RandomEdgeAdditions(g.num_vertices, g.edges, 40, 77);
  delta.AddVertex(10);
  for (int64_t i = 0; i < 10; ++i) {
    delta.AddEdge(g.num_vertices + i, i * 7 % g.num_vertices);
  }
  ASSERT_TRUE(session.ApplyDelta(delta).ok());
  EXPECT_EQ(session.num_vertices(), g.num_vertices + 10);
  ExpectValidAssignment(session);

  // Incremental adaptation: the overwhelming majority of existing
  // vertices keep their partition.
  const std::span<const PartitionId> after(session.assignment().data(),
                                           before.size());
  auto moved = PartitioningDifference(before, after);
  ASSERT_TRUE(moved.ok());
  EXPECT_LT(*moved, 0.5);

  // Equivalence with the manual pipeline: ApplyDelta + convert +
  // Repartition by hand produces the same assignment.
  auto new_edges = ApplyDelta(g.num_vertices, g.edges, delta);
  ASSERT_TRUE(new_edges.ok());
  auto new_converted = BuildSymmetric(g.num_vertices + 10, *new_edges);
  ASSERT_TRUE(new_converted.ok());
  SpinnerPartitioner direct(SmallConfig());
  auto direct_result = direct.Repartition(*new_converted, before);
  ASSERT_TRUE(direct_result.ok());
  EXPECT_EQ(session.assignment(), direct_result->assignment);
}

TEST(PartitioningSessionTest, ApplyDeltaFailureLeavesStateUntouched) {
  const GeneratedGraph g = SmallWorld();
  PartitioningSession session(SmallConfig());
  ASSERT_TRUE(session.Open(g.num_vertices, g.edges, g.directed).ok());
  const std::vector<PartitionId> before = session.assignment();
  const size_t edges_before = session.edges().size();

  GraphDelta bad;
  bad.AddEdge(0, g.num_vertices + 100);  // outside the (un-grown) range
  ASSERT_FALSE(session.ApplyDelta(bad).ok());
  EXPECT_EQ(session.assignment(), before);
  EXPECT_EQ(session.edges().size(), edges_before);
  EXPECT_EQ(session.num_vertices(), g.num_vertices);
}

TEST(PartitioningSessionTest, RescaleTracksCurrentK) {
  const GeneratedGraph g = SmallWorld();
  PartitioningSession session(SmallConfig(4));
  ASSERT_TRUE(session.Open(g.num_vertices, g.edges, g.directed).ok());

  ASSERT_TRUE(session.Rescale(6).ok());
  EXPECT_EQ(session.num_partitions(), 6);
  ExpectValidAssignment(session);

  // Scale back in; the session knows the previous k was 6, not 4.
  ASSERT_TRUE(session.Rescale(3).ok());
  EXPECT_EQ(session.num_partitions(), 3);
  ExpectValidAssignment(session);

  EXPECT_FALSE(session.Rescale(0).ok());
  EXPECT_EQ(session.num_partitions(), 3);  // failed call changes nothing
}

TEST(PartitioningSessionTest, RescaleMatchesDirectEntryPoint) {
  const GeneratedGraph g = SmallWorld();
  PartitioningSession session(SmallConfig(4));
  ASSERT_TRUE(session.Open(g.num_vertices, g.edges, g.directed).ok());
  const std::vector<PartitionId> before = session.assignment();
  ASSERT_TRUE(session.Rescale(7).ok());

  auto converted = BuildSymmetric(g.num_vertices, g.edges);
  ASSERT_TRUE(converted.ok());
  SpinnerPartitioner direct(SmallConfig(4));
  auto direct_result = direct.Rescale(*converted, before, 7);
  ASSERT_TRUE(direct_result.ok());
  EXPECT_EQ(session.assignment(), direct_result->assignment);
}

TEST(PartitioningSessionTest, RefineImprovesOrKeepsQuality) {
  const GeneratedGraph g = SmallWorld();
  SpinnerConfig config = SmallConfig(4);
  config.max_iterations = 3;  // deliberately under-optimized
  config.use_halting = false;
  PartitioningSession session(config);
  ASSERT_TRUE(session.Open(g.num_vertices, g.edges, g.directed).ok());
  auto before = session.Metrics();
  ASSERT_TRUE(before.ok());
  ASSERT_TRUE(session.Refine().ok());
  auto after = session.Metrics();
  ASSERT_TRUE(after.ok());
  EXPECT_GE(after->phi, before->phi - 1e-9);
}

TEST(PartitioningSessionTest, SnapshotRestoreRoundTripsExactState) {
  const GeneratedGraph g = SmallWorld();
  TempPath snapshot("session_roundtrip.spns");
  PartitioningSession session(SmallConfig(4));
  ASSERT_TRUE(session.Open(g.num_vertices, g.edges, g.directed).ok());
  ASSERT_TRUE(session.Rescale(6).ok());
  ASSERT_TRUE(session.Snapshot(snapshot.path).ok());

  PartitioningSession restored(SmallConfig(4));
  ASSERT_TRUE(restored.Restore(snapshot.path).ok());
  EXPECT_TRUE(restored.is_open());
  EXPECT_EQ(restored.num_partitions(), 6);
  EXPECT_EQ(restored.num_vertices(), session.num_vertices());
  EXPECT_EQ(restored.edges(), session.edges());
  EXPECT_EQ(restored.assignment(), session.assignment());

  // The restored session continues the lifecycle: further operations see
  // the restored assignment, so a rescale from it matches one from the
  // original session.
  PartitioningSession continued(SmallConfig(4));
  ASSERT_TRUE(continued.Restore(snapshot.path).ok());
  ASSERT_TRUE(continued.Rescale(8).ok());
  ASSERT_TRUE(session.Rescale(8).ok());
  EXPECT_EQ(continued.assignment(), session.assignment());
}

TEST(PartitioningSessionTest, RestoreRejectsGarbageFiles) {
  PartitioningSession session(SmallConfig());
  EXPECT_FALSE(session.Restore("/definitely/not/here.spns").ok());
  EXPECT_FALSE(session.is_open());
}

TEST(PartitioningSessionTest, ObserverSeesEveryIteration) {
  const GeneratedGraph g = SmallWorld();
  PartitioningSession session(SmallConfig());
  std::vector<int> seen;
  ProgressObserver observer;
  observer.on_iteration = [&seen](const IterationPoint& pt) {
    seen.push_back(pt.iteration);
    EXPECT_GE(pt.phi, 0.0);
    EXPECT_LE(pt.phi, 1.0);
    EXPECT_GE(pt.rho, 1.0);
    return true;
  };
  session.SetProgressObserver(observer);
  ASSERT_TRUE(session.Open(g.num_vertices, g.edges, g.directed).ok());
  ASSERT_EQ(static_cast<int>(seen.size()),
            session.last_result().iterations);
  for (size_t i = 0; i < seen.size(); ++i) {
    EXPECT_EQ(seen[i], static_cast<int>(i) + 1);
  }
  EXPECT_FALSE(session.last_result().cancelled);
}

TEST(PartitioningSessionTest, ObserverCancellationStopsWithinOneIteration) {
  const GeneratedGraph g = SmallWorld();
  SpinnerConfig config = SmallConfig();
  config.max_iterations = 500;
  config.use_halting = false;  // would run all 500 without cancellation
  PartitioningSession session(config);
  int calls = 0;
  ProgressObserver observer;
  observer.on_iteration = [&calls](const IterationPoint&) {
    ++calls;
    return calls < 3;  // cancel on the third iteration
  };
  session.SetProgressObserver(observer);
  ASSERT_TRUE(session.Open(g.num_vertices, g.edges, g.directed).ok());
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(session.last_result().iterations, 3);
  EXPECT_TRUE(session.last_result().cancelled);
  EXPECT_FALSE(session.last_result().converged);
  ExpectValidAssignment(session);  // partial result is still complete
}

// --- Sharding: SessionOptions, invariance, owning-shards-only deltas -----

/// Drives one full lifecycle (Open → ApplyDelta → Rescale → Refine) under
/// the given execution shape and returns the assignment after every step.
std::vector<std::vector<PartitionId>> LifecycleAssignments(
    const GeneratedGraph& g, SessionOptions options) {
  PartitioningSession session(SmallConfig(4), options);
  SPINNER_CHECK(session.Open(g.num_vertices, g.edges, g.directed).ok());
  std::vector<std::vector<PartitionId>> out;
  out.push_back(session.assignment());

  GraphDelta delta = RandomEdgeAdditions(g.num_vertices, g.edges, 30, 5);
  delta.AddVertex(6);
  for (int64_t i = 0; i < 6; ++i) {
    delta.AddEdge(g.num_vertices + i, (i * 13) % g.num_vertices);
  }
  SPINNER_CHECK(session.ApplyDelta(delta).ok());
  out.push_back(session.assignment());

  SPINNER_CHECK(session.Rescale(6).ok());
  out.push_back(session.assignment());

  SPINNER_CHECK(session.Refine().ok());
  out.push_back(session.assignment());
  return out;
}

TEST(PartitioningSessionTest, LifecycleIsShardAndThreadCountInvariant) {
  // The issue's acceptance bar: same seed ⇒ identical assignment for
  // S ∈ {1, 2, 7} and 1 vs N threads, through the whole lifecycle.
  const GeneratedGraph g = SmallWorld(31);
  const auto reference =
      LifecycleAssignments(g, ShapeOptions(1, 1));
  for (const SessionOptions& options :
       {ShapeOptions(2, 1), ShapeOptions(7, 4), ShapeOptions(0, 0)}) {
    const auto got = LifecycleAssignments(g, options);
    ASSERT_EQ(got.size(), reference.size());
    for (size_t step = 0; step < reference.size(); ++step) {
      EXPECT_EQ(got[step], reference[step])
          << "step " << step << " S=" << options.execution.num_shards
          << " threads=" << options.execution.num_threads;
    }
  }
}

TEST(PartitioningSessionTest, SessionOptionsFixTheStoreShape) {
  const GeneratedGraph g = SmallWorld();
  PartitioningSession session(SmallConfig(), ShapeOptions(3, 2));
  EXPECT_EQ(session.options().execution.num_shards, 3);
  EXPECT_EQ(session.num_shards(), 0);  // no store before Open
  ASSERT_TRUE(session.Open(g.num_vertices, g.edges, g.directed).ok());
  EXPECT_EQ(session.num_shards(), 3);
  EXPECT_EQ(session.store().NumVertices(), g.num_vertices);
  // The store's label view is the session's assignment.
  EXPECT_EQ(session.store().labels(), session.assignment());
}

TEST(PartitioningSessionTest, EdgeDeltaRebuildsOnlyOwningShards) {
  // 1100 vertices = 5 blocks of 256 of near-equal cost; S=3 cuts at the
  // first block boundaries reaching T/3 and 2T/3, so shard 0 owns
  // [0, 512), shard 1 [512, 768) and shard 2 [768, 1100).
  auto ws = WattsStrogatz(1100, 3, 0.3, 17);
  ASSERT_TRUE(ws.ok());
  PartitioningSession session(SmallConfig(), ShapeOptions(3));
  ASSERT_TRUE(session.Open(ws->num_vertices, ws->edges, ws->directed).ok());
  for (int s = 0; s < 3; ++s) {
    EXPECT_EQ(session.store().rebuild_count(s), 1);
  }
  EXPECT_EQ(session.store().shard(0).end, 512);
  EXPECT_EQ(session.store().shard(1).end, 768);

  // An edge change entirely within shard 0 must not re-slice shards 1-2.
  GraphDelta delta;
  delta.AddEdge(2, 9);
  ASSERT_TRUE(session.ApplyDelta(delta).ok());
  EXPECT_EQ(session.store().rebuild_count(0), 2);
  EXPECT_EQ(session.store().rebuild_count(1), 1);
  EXPECT_EQ(session.store().rebuild_count(2), 1);

  // New vertices join the last shard, whose end is the only cut that
  // moves; the edge to vertex 3 also patches shard 0.
  GraphDelta grow;
  grow.AddVertex(4).AddEdge(ws->num_vertices, 3);
  ASSERT_TRUE(session.ApplyDelta(grow).ok());
  EXPECT_EQ(session.store().NumVertices(), ws->num_vertices + 4);
  EXPECT_EQ(session.store().shard(0).end, 512);
  EXPECT_EQ(session.store().shard(1).end, 768);
  EXPECT_EQ(session.store().shard(2).end, ws->num_vertices + 4);
  EXPECT_EQ(session.store().rebuild_count(0), 3);
  EXPECT_EQ(session.store().rebuild_count(1), 1);
  EXPECT_EQ(session.store().rebuild_count(2), 2);
}

TEST(PartitioningSessionTest, SnapshotRestoreRoundTripsAcrossShardShapes) {
  // A snapshot written by a single-shard session restores into a
  // many-shard one with the identical assignment and continued lifecycle.
  const GeneratedGraph g = SmallWorld(12);
  TempPath snapshot("session_shards.spns");
  PartitioningSession writer(SmallConfig(4), ShapeOptions(1));
  ASSERT_TRUE(writer.Open(g.num_vertices, g.edges, g.directed).ok());
  ASSERT_TRUE(writer.Snapshot(snapshot.path).ok());

  PartitioningSession reader(SmallConfig(4), ShapeOptions(5, 2));
  ASSERT_TRUE(reader.Restore(snapshot.path).ok());
  EXPECT_EQ(reader.assignment(), writer.assignment());
  EXPECT_EQ(reader.num_shards(), 5);
  ASSERT_TRUE(reader.Rescale(7).ok());
  ASSERT_TRUE(writer.Rescale(7).ok());
  EXPECT_EQ(reader.assignment(), writer.assignment());
}

TEST(PartitioningSessionTest, CancellationTokenStopsTheRun) {
  const GeneratedGraph g = SmallWorld();
  SpinnerConfig config = SmallConfig();
  config.max_iterations = 500;
  config.use_halting = false;
  PartitioningSession session(config);
  CancellationToken token;
  int calls = 0;
  ProgressObserver observer;
  observer.on_iteration = [&calls, &token](const IterationPoint&) {
    if (++calls == 2) token.Cancel();
    return true;  // the callback itself never asks to stop
  };
  observer.cancel = &token;
  session.SetProgressObserver(observer);
  ASSERT_TRUE(session.Open(g.num_vertices, g.edges, g.directed).ok());
  EXPECT_EQ(session.last_result().iterations, 2);
  EXPECT_TRUE(session.last_result().cancelled);
}

TEST(PartitioningSessionTest, LastResultCarriesSchedulerCounters) {
  // The session and SpinnerPartitioner assemble one PartitionResult, so
  // every in-process lifecycle call reports the work-stealing counters.
  // (stolen_tasks depends on thread timing and is not checked.)
  const GeneratedGraph g = SmallWorld();
  PartitioningSession session(SmallConfig(4));
  const auto expect_counted = [&](const char* call) {
    const ScheduleStats& schedule = session.last_result().schedule;
    EXPECT_GT(schedule.tasks, 0) << call;
    EXPECT_GT(schedule.phases, 0) << call;
    EXPECT_GE(schedule.tasks, schedule.phases) << call;
  };
  ASSERT_TRUE(session.Open(g.num_vertices, g.edges, g.directed).ok());
  expect_counted("Open");

  auto converted = BuildSymmetric(g.num_vertices, g.edges);
  ASSERT_TRUE(converted.ok());
  auto direct = SpinnerPartitioner(SmallConfig(4)).Partition(*converted);
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(session.last_result().schedule.tasks, direct->schedule.tasks);
  EXPECT_EQ(session.last_result().schedule.phases, direct->schedule.phases);

  GraphDelta delta = RandomEdgeAdditions(g.num_vertices, g.edges, 20, 5);
  delta.AddVertex(3).AddEdge(g.num_vertices, 0);
  ASSERT_TRUE(session.ApplyDelta(delta).ok());
  expect_counted("ApplyDelta");
  ASSERT_TRUE(session.Rescale(6).ok());
  expect_counted("Rescale");
  ASSERT_TRUE(session.Refine().ok());
  expect_counted("Refine");
}

// --- Cross-process execution: the same lifecycle over worker processes ---

TEST(MultiProcessSessionTest, LifecycleMatchesInProcessAcrossShapes) {
  // The full Open → ApplyDelta → Rescale → Refine lifecycle must produce
  // identical assignments whether the shards live on a ThreadPool or in
  // forked worker processes, for every {num_shards, num_workers}.
  const GeneratedGraph g = SmallWorld(31);
  const auto reference =
      LifecycleAssignments(g, ShapeOptions(1, 1));
  for (const int num_shards : {1, 2, 7}) {
    for (const int num_workers : {1, 3}) {
      const SessionOptions options =
          MultiProcessOptions(num_shards, num_workers);
      const auto got = LifecycleAssignments(g, options);
      ASSERT_EQ(got.size(), reference.size());
      for (size_t step = 0; step < reference.size(); ++step) {
        EXPECT_EQ(got[step], reference[step])
            << "step " << step << " S=" << num_shards
            << " W=" << num_workers;
      }
    }
  }
}

TEST(MultiProcessSessionTest, FloatHistoriesMatchInProcess) {
  const GeneratedGraph g = SmallWorld(23);
  SpinnerConfig config = SmallConfig();
  config.max_iterations = 8;
  config.use_halting = false;

  PartitioningSession in_process(config, ShapeOptions(3));
  ASSERT_TRUE(
      in_process.Open(g.num_vertices, g.edges, g.directed).ok());
  PartitioningSession multi_process(config, MultiProcessOptions(3, 2));
  ASSERT_TRUE(
      multi_process.Open(g.num_vertices, g.edges, g.directed).ok());

  const auto& a = in_process.last_result().history;
  const auto& b = multi_process.last_result().history;
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].score, b[i].score) << i;
    EXPECT_EQ(a[i].phi, b[i].phi) << i;
    EXPECT_EQ(a[i].rho, b[i].rho) << i;
    EXPECT_EQ(a[i].loads, b[i].loads) << i;
  }
  EXPECT_EQ(in_process.assignment(), multi_process.assignment());
}

TEST(MultiProcessSessionTest, WirePayloadKnobStreamsAndMatchesInProcess) {
  // Forcing a tiny frame payload through SessionOptions chunks every big
  // transfer (Setup slices, snapshot upload) without changing results.
  const GeneratedGraph g = SmallWorld(23);
  SpinnerConfig config = SmallConfig();
  config.max_iterations = 6;
  config.use_halting = false;

  PartitioningSession in_process(config, ShapeOptions(3));
  ASSERT_TRUE(in_process.Open(g.num_vertices, g.edges, g.directed).ok());
  SessionOptions tiny_frames = MultiProcessOptions(3, 2);
  tiny_frames.execution.wire_max_payload = 256;
  PartitioningSession chunked(config, tiny_frames);
  ASSERT_TRUE(chunked.Open(g.num_vertices, g.edges, g.directed).ok());

  EXPECT_EQ(in_process.assignment(), chunked.assignment());
  // The knob reached the transport: multi-frame messages were needed and
  // the traffic report surfaces through the session's last result.
  EXPECT_GT(chunked.last_result().wire.chunked_messages, 0);
  EXPECT_GT(chunked.last_result().wire.bytes_sent, 0);
  EXPECT_EQ(in_process.last_result().wire.bytes_sent, 0);
}

TEST(MultiProcessSessionTest, ExecutionModeIsIntrospectableAndConfigDriven) {
  PartitioningSession defaulted(SmallConfig());
  EXPECT_EQ(defaulted.execution_mode(), ExecutionMode::kInProcess);

  // num_workers is documented as ignored in-process: it must not flip an
  // explicitly-in-process session into forking workers.
  SessionOptions workers_only_options;
  workers_only_options.execution.num_workers = 2;
  PartitioningSession workers_only(SmallConfig(), workers_only_options);
  EXPECT_EQ(workers_only.execution_mode(), ExecutionMode::kInProcess);

  SessionOptions multi_options;
  multi_options.execution.mode = ExecutionMode::kMultiProcess;
  PartitioningSession by_options(SmallConfig(), multi_options);
  EXPECT_EQ(by_options.execution_mode(), ExecutionMode::kMultiProcess);

  // The config's execution options select multi-process execution too.
  SpinnerConfig config = SmallConfig();
  config.execution.mode = ExecutionMode::kMultiProcess;
  config.execution.num_workers = 2;
  PartitioningSession by_config(config);
  EXPECT_EQ(by_config.execution_mode(), ExecutionMode::kMultiProcess);

  const GeneratedGraph g = SmallWorld();
  ASSERT_TRUE(by_config.Open(g.num_vertices, g.edges, g.directed).ok());
  ExpectValidAssignment(by_config);
}

TEST(MultiProcessSessionTest, LastResultReportsNoSchedulerCounters) {
  // The coordinator schedules supersteps itself: no work-stealing claims.
  const GeneratedGraph g = SmallWorld();
  PartitioningSession session(SmallConfig(4), MultiProcessOptions(2, 2));
  const auto expect_zero = [&](const char* call) {
    const ScheduleStats& schedule = session.last_result().schedule;
    EXPECT_EQ(schedule.tasks, 0) << call;
    EXPECT_EQ(schedule.stolen_tasks, 0) << call;
    EXPECT_EQ(schedule.phases, 0) << call;
    EXPECT_GT(session.last_result().wire.bytes_sent, 0) << call;
  };
  ASSERT_TRUE(session.Open(g.num_vertices, g.edges, g.directed).ok());
  expect_zero("Open");
  ASSERT_TRUE(session.Rescale(5).ok());
  expect_zero("Rescale");
  ASSERT_TRUE(session.Refine().ok());
  expect_zero("Refine");
}

}  // namespace
}  // namespace spinner
