// IngestionService: lifecycle, trigger policies (with an injected
// ManualClock), drain-and-stop vs. hard cancellation mid-refine,
// backpressure at the service boundary, error surfacing, checkpoint
// wiring — and the determinism invariant: a drained ingestion run is
// bit-identical (assignments and float φ/ρ/score histories) to the
// equivalent blocking ApplyDelta sequence at every {num_shards,
// num_threads} shape.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "graph/delta.h"
#include "graph/generators.h"
#include "spinner/session.h"
#include "stream/clock.h"
#include "stream/ingestion_service.h"
#include "stream/trigger_policy.h"

namespace spinner::stream {
namespace {

using std::chrono::milliseconds;
using std::chrono::microseconds;

SpinnerConfig SmallConfig(int k = 4) {
  SpinnerConfig config;
  config.num_partitions = k;
  config.execution.num_shards = 2;
  return config;
}

SessionOptions ShapeOptions(int shards, int threads) {
  SessionOptions options;
  options.execution.num_shards = shards;
  options.execution.num_threads = threads;
  return options;
}

GeneratedGraph SmallWorld(uint64_t seed = 9) {
  auto ws = WattsStrogatz(400, 3, 0.3, seed);
  SPINNER_CHECK(ws.ok());
  return std::move(ws).value();
}

/// RAII temp file path for checkpoint tests.
struct TempPath {
  explicit TempPath(const std::string& name)
      : path(::testing::TempDir() + name) {}
  ~TempPath() {
    std::remove(path.c_str());
    std::remove((path + ".dlog").c_str());
  }
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

/// A deterministic event stream over the SmallWorld graph: fresh edges
/// (some submitted twice, as a producer retry would), a transient edge
/// that is removed within the stream, and a vertex grow with edges onto
/// the new ids.
std::vector<EdgeEvent> ScriptedEvents(const GeneratedGraph& g) {
  std::vector<EdgeEvent> events;
  const GraphDelta fresh =
      RandomEdgeAdditions(g.num_vertices, g.edges, 40, /*seed=*/7);
  for (size_t i = 0; i < fresh.added_edges.size(); ++i) {
    const Edge& e = fresh.added_edges[i];
    events.push_back(EdgeEvent::AddEdge(e.src, e.dst));
    if (i % 5 == 0) {  // duplicate submission: Coalesce eats it
      events.push_back(EdgeEvent::AddEdge(e.src, e.dst));
    }
    if (i % 7 == 0) {  // transient edge: added then removed in-stream
      events.push_back(EdgeEvent::AddEdge(e.dst, e.src));
      events.push_back(EdgeEvent::RemoveEdge(e.dst, e.src));
    }
  }
  events.push_back(EdgeEvent::AddVertices(5));
  for (int i = 0; i < 5; ++i) {
    events.push_back(EdgeEvent::AddEdge(i, g.num_vertices + i));
  }
  return events;
}

/// Collects (φ, ρ, score) per LPA iteration — the float histories the
/// determinism contract compares bitwise.
struct HistoryTrace {
  std::vector<double> values;
  ProgressObserver AsObserver() {
    ProgressObserver observer;
    observer.on_iteration = [this](const IterationPoint& point) {
      values.push_back(point.phi);
      values.push_back(point.rho);
      values.push_back(point.score);
      return true;
    };
    return observer;
  }
};

// --- Lifecycle ------------------------------------------------------------

TEST(IngestionServiceTest, StartRequiresAnOpenSession) {
  PartitioningSession session(SmallConfig());
  IngestionService service(&session, IngestionOptions{});
  Status status = service.Start();
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
}

TEST(IngestionServiceTest, SubmitAndStopBeforeStartFail) {
  const GeneratedGraph g = SmallWorld();
  PartitioningSession session(SmallConfig());
  ASSERT_TRUE(session.Open(g.num_vertices, g.edges, g.directed).ok());
  IngestionService service(&session, IngestionOptions{});
  EXPECT_EQ(service.Submit(EdgeEvent::AddEdge(0, 1)).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(service.Drain().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(service.Stop().code(), StatusCode::kFailedPrecondition);
}

TEST(IngestionServiceTest, DoubleStartIsRejectedAndStopIsIdempotent) {
  const GeneratedGraph g = SmallWorld();
  PartitioningSession session(SmallConfig());
  ASSERT_TRUE(session.Open(g.num_vertices, g.edges, g.directed).ok());
  IngestionService service(&session, IngestionOptions{});
  ASSERT_TRUE(service.Start().ok());
  EXPECT_EQ(service.Start().code(), StatusCode::kFailedPrecondition);
  EXPECT_TRUE(service.Stop().ok());
  EXPECT_TRUE(service.Stop().ok());  // idempotent
  EXPECT_FALSE(service.running());
  // A stopped service refuses new events.
  EXPECT_EQ(service.Submit(EdgeEvent::AddEdge(0, 1)).code(),
            StatusCode::kFailedPrecondition);
}

TEST(IngestionServiceTest, StopAppliesTheFinalPartialWindow) {
  const GeneratedGraph g = SmallWorld();
  PartitioningSession session(SmallConfig());
  ASSERT_TRUE(session.Open(g.num_vertices, g.edges, g.directed).ok());

  IngestionOptions options;
  options.policy = std::make_unique<EventCountPolicy>(1000);  // never fires
  IngestionService service(&session, std::move(options));
  ASSERT_TRUE(service.Start().ok());
  const GraphDelta fresh =
      RandomEdgeAdditions(g.num_vertices, g.edges, 7, /*seed=*/3);
  for (const Edge& e : fresh.added_edges) {
    ASSERT_TRUE(service.Submit(EdgeEvent::AddEdge(e.src, e.dst)).ok());
  }
  ASSERT_TRUE(service.Stop().ok());

  const IngestStats stats = service.stats();
  EXPECT_EQ(stats.events_submitted, 7);
  EXPECT_EQ(stats.events_ingested, 7);
  EXPECT_EQ(stats.windows_applied, 1);  // drain-and-stop forced the tail
  EXPECT_EQ(stats.queue_depth, 0);
  ExpectValidAssignment(session);
}

TEST(IngestionServiceTest, EventCountPolicyClosesWindowsAtTheWatermark) {
  const GeneratedGraph g = SmallWorld();
  PartitioningSession session(SmallConfig());
  ASSERT_TRUE(session.Open(g.num_vertices, g.edges, g.directed).ok());

  IngestionOptions options;
  options.policy = std::make_unique<EventCountPolicy>(4);
  IngestionService service(&session, std::move(options));
  ASSERT_TRUE(service.Start().ok());
  const GraphDelta fresh =
      RandomEdgeAdditions(g.num_vertices, g.edges, 10, /*seed=*/3);
  for (const Edge& e : fresh.added_edges) {
    ASSERT_TRUE(service.Submit(EdgeEvent::AddEdge(e.src, e.dst)).ok());
  }
  ASSERT_TRUE(service.Stop().ok());

  const IngestStats stats = service.stats();
  // 10 events at watermark 4: two full windows plus the 2-event tail.
  EXPECT_EQ(stats.windows_applied, 3);
  EXPECT_EQ(stats.events_ingested, 10);
  EXPECT_GT(stats.last_phi, 0.0);
  EXPECT_GT(stats.last_rho, 0.0);
}

TEST(IngestionServiceTest, DrainQuiescesTheSessionForInspection) {
  const GeneratedGraph g = SmallWorld();
  PartitioningSession session(SmallConfig());
  ASSERT_TRUE(session.Open(g.num_vertices, g.edges, g.directed).ok());
  const std::vector<PartitionId> initial = session.assignment();

  IngestionOptions options;
  options.policy = std::make_unique<EventCountPolicy>(1000);  // never fires
  IngestionService service(&session, std::move(options));
  ASSERT_TRUE(service.Start().ok());

  const GraphDelta fresh =
      RandomEdgeAdditions(g.num_vertices, g.edges, 20, /*seed=*/5);
  for (int i = 0; i < 10; ++i) {
    const Edge& e = fresh.added_edges[static_cast<size_t>(i)];
    ASSERT_TRUE(service.Submit(EdgeEvent::AddEdge(e.src, e.dst)).ok());
  }
  ASSERT_TRUE(service.Drain().ok());
  // Drained: every submitted event is applied, the session is safe to
  // inspect, and the service keeps running.
  EXPECT_TRUE(service.running());
  EXPECT_EQ(service.stats().events_ingested, 10);
  EXPECT_EQ(service.stats().windows_applied, 1);
  ExpectValidAssignment(session);

  // The stream continues after the drain.
  for (int i = 10; i < 20; ++i) {
    const Edge& e = fresh.added_edges[static_cast<size_t>(i)];
    ASSERT_TRUE(service.Submit(EdgeEvent::AddEdge(e.src, e.dst)).ok());
  }
  ASSERT_TRUE(service.Drain().ok());
  EXPECT_EQ(service.stats().events_ingested, 20);
  ASSERT_TRUE(service.Stop().ok());
  EXPECT_NE(session.assignment(), initial);  // the stream moved vertices
}

// --- Trigger policies against the injected clock --------------------------

TEST(IngestionServiceTest, StalenessSloPolicyFiresWhenTheClockAdvances) {
  const GeneratedGraph g = SmallWorld();
  PartitioningSession session(SmallConfig());
  ASSERT_TRUE(session.Open(g.num_vertices, g.edges, g.directed).ok());

  auto clock = std::make_shared<ManualClock>();
  IngestionOptions options;
  options.clock = clock;
  options.idle_poll = microseconds(200);
  options.policy = std::make_unique<StalenessSloPolicy>(/*micros=*/1000);
  IngestionService service(&session, std::move(options));
  ASSERT_TRUE(service.Start().ok());

  const GraphDelta fresh =
      RandomEdgeAdditions(g.num_vertices, g.edges, 3, /*seed=*/11);
  for (const Edge& e : fresh.added_edges) {
    ASSERT_TRUE(service.Submit(EdgeEvent::AddEdge(e.src, e.dst)).ok());
  }
  // The clock is frozen: the events sit in the open window, under the SLO.
  std::this_thread::sleep_for(milliseconds(20));
  EXPECT_EQ(service.stats().windows_applied, 0);

  // Breach the SLO; the idle-polling loop must now apply the window.
  clock->AdvanceMicros(2000);
  const auto deadline = std::chrono::steady_clock::now() + milliseconds(2000);
  while (service.stats().windows_applied == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(milliseconds(1));
  }
  const IngestStats stats = service.stats();
  EXPECT_EQ(stats.windows_applied, 1);
  EXPECT_EQ(stats.events_ingested, 3);
  EXPECT_GE(stats.last_staleness_micros, 2000);
  ASSERT_TRUE(service.Stop().ok());
}

TEST(IngestionServiceTest, WallClockWindowPolicyFiresOncePerWindow) {
  const GeneratedGraph g = SmallWorld();
  PartitioningSession session(SmallConfig());
  ASSERT_TRUE(session.Open(g.num_vertices, g.edges, g.directed).ok());

  auto clock = std::make_shared<ManualClock>();
  clock->SetMicros(1'000'000);
  IngestionOptions options;
  options.clock = clock;
  options.idle_poll = microseconds(200);
  options.policy = std::make_unique<WallClockWindowPolicy>(/*micros=*/5000);
  IngestionService service(&session, std::move(options));
  ASSERT_TRUE(service.Start().ok());

  ASSERT_TRUE(service.Submit(EdgeEvent::AddEdge(0, 7)).ok());
  std::this_thread::sleep_for(milliseconds(20));
  EXPECT_EQ(service.stats().windows_applied, 0);  // window still young

  clock->AdvanceMicros(6000);  // older than the window length
  const auto deadline = std::chrono::steady_clock::now() + milliseconds(2000);
  while (service.stats().windows_applied == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(milliseconds(1));
  }
  EXPECT_EQ(service.stats().windows_applied, 1);
  ASSERT_TRUE(service.Stop().ok());
}

// --- Backpressure at the service boundary ---------------------------------

TEST(IngestionServiceTest, ProducersSeeBackpressureWhileARefineIsInFlight) {
  const GeneratedGraph g = SmallWorld();
  PartitioningSession session(SmallConfig());
  ASSERT_TRUE(session.Open(g.num_vertices, g.edges, g.directed).ok());

  // Gate the first windowed apply inside the partitioner so the queue
  // backs up behind it.
  std::mutex gate_mutex;
  std::condition_variable gate_cv;
  bool in_refine = false;
  bool release = false;
  ProgressObserver observer;
  observer.on_iteration = [&](const IterationPoint&) {
    std::unique_lock<std::mutex> lock(gate_mutex);
    if (!in_refine) {
      in_refine = true;
      gate_cv.notify_all();
    }
    gate_cv.wait(lock, [&] { return release; });
    return true;
  };

  IngestionOptions options;
  options.queue_capacity = 2;
  options.policy = std::make_unique<EventCountPolicy>(1);
  IngestionService service(&session, std::move(options));
  service.SetProgressObserver(observer);
  ASSERT_TRUE(service.Start().ok());

  const GraphDelta fresh =
      RandomEdgeAdditions(g.num_vertices, g.edges, 8, /*seed=*/13);
  // First event starts an apply that parks inside the observer.
  ASSERT_TRUE(service
                  .Submit(EdgeEvent::AddEdge(fresh.added_edges[0].src,
                                             fresh.added_edges[0].dst))
                  .ok());
  {
    std::unique_lock<std::mutex> lock(gate_mutex);
    gate_cv.wait(lock, [&] { return in_refine; });
  }

  // The consumer is parked: the queue (capacity 2) fills and stays full.
  ASSERT_TRUE(service
                  .TrySubmit(EdgeEvent::AddEdge(fresh.added_edges[1].src,
                                                fresh.added_edges[1].dst))
                  .ok());
  ASSERT_TRUE(service
                  .TrySubmit(EdgeEvent::AddEdge(fresh.added_edges[2].src,
                                                fresh.added_edges[2].dst))
                  .ok());
  Status full = service.TrySubmit(EdgeEvent::AddEdge(
      fresh.added_edges[3].src, fresh.added_edges[3].dst));
  ASSERT_FALSE(full.ok());
  EXPECT_EQ(full.code(), StatusCode::kOutOfRange);

  Status timed_out = service.SubmitFor(
      EdgeEvent::AddEdge(fresh.added_edges[3].src, fresh.added_edges[3].dst),
      std::chrono::microseconds(milliseconds(20)));
  ASSERT_FALSE(timed_out.ok());
  EXPECT_EQ(timed_out.code(), StatusCode::kOutOfRange);

  {
    std::lock_guard<std::mutex> lock(gate_mutex);
    release = true;
  }
  gate_cv.notify_all();
  ASSERT_TRUE(service.Stop().ok());
  EXPECT_EQ(service.stats().events_ingested, 3);
  EXPECT_EQ(service.stats().queue_high_water, 2);
  ExpectValidAssignment(session);
}

// --- Cancellation ---------------------------------------------------------

TEST(IngestionServiceTest, CancelInterruptsMidRefineAndDiscardsTheQueue) {
  const GeneratedGraph g = SmallWorld();
  SpinnerConfig config = SmallConfig(8);
  config.halt_epsilon = 0.0;  // keep iterating: give Cancel a window
  PartitioningSession session(config);
  ASSERT_TRUE(session.Open(g.num_vertices, g.edges, g.directed).ok());
  const auto vertices_before = session.num_vertices();

  std::mutex gate_mutex;
  std::condition_variable gate_cv;
  bool in_refine = false;
  ProgressObserver observer;
  observer.on_iteration = [&](const IterationPoint&) {
    std::lock_guard<std::mutex> lock(gate_mutex);
    if (!in_refine) {
      in_refine = true;
      gate_cv.notify_all();
    }
    return true;
  };

  IngestionOptions options;
  options.policy = std::make_unique<EventCountPolicy>(1);
  IngestionService service(&session, std::move(options));
  service.SetProgressObserver(observer);
  ASSERT_TRUE(service.Start().ok());

  const GraphDelta fresh =
      RandomEdgeAdditions(g.num_vertices, g.edges, 60, /*seed=*/17);
  for (const Edge& e : fresh.added_edges) {
    ASSERT_TRUE(service.Submit(EdgeEvent::AddEdge(e.src, e.dst)).ok());
  }
  {
    // Wait until label propagation is demonstrably in flight, then yank.
    std::unique_lock<std::mutex> lock(gate_mutex);
    gate_cv.wait(lock, [&] { return in_refine; });
  }
  ASSERT_TRUE(service.Cancel().ok());
  EXPECT_FALSE(service.running());

  const IngestStats stats = service.stats();
  EXPECT_TRUE(stats.cancelled);
  // The cancel landed before the stream was consumed: unapplied events
  // were discarded, not silently applied.
  EXPECT_LT(stats.events_ingested, stats.events_submitted);
  // The session survives a mid-refine cancel with a valid (partially
  // refined) assignment — nothing is torn down or corrupted.
  EXPECT_EQ(session.num_vertices(), vertices_before);
  ExpectValidAssignment(session);
  // And the session remains usable for blocking calls afterwards.
  ASSERT_TRUE(session.Refine().ok());
}

// --- Error surfacing ------------------------------------------------------

TEST(IngestionServiceTest, BadEventSurfacesACleanErrorFromStop) {
  const GeneratedGraph g = SmallWorld();
  PartitioningSession session(SmallConfig());
  ASSERT_TRUE(session.Open(g.num_vertices, g.edges, g.directed).ok());
  const std::vector<PartitionId> before = session.assignment();

  IngestionOptions options;
  options.policy = std::make_unique<EventCountPolicy>(1);
  IngestionService service(&session, std::move(options));
  ASSERT_TRUE(service.Start().ok());
  // An edge onto a vertex that was never grown: ApplyDelta must reject it
  // and the service must carry that Status out.
  ASSERT_TRUE(
      service.Submit(EdgeEvent::AddEdge(0, g.num_vertices + 5)).ok());
  Status status = service.Stop();
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  // The failed window never touched the session.
  EXPECT_EQ(session.assignment(), before);

  // Drain on a service that died reports the same error.
  EXPECT_FALSE(service.running());
}

// --- on_apply callback ----------------------------------------------------

TEST(IngestionServiceTest, OnApplyCallbackObservesEveryWindowAndCanStop) {
  const GeneratedGraph g = SmallWorld();
  PartitioningSession session(SmallConfig());
  ASSERT_TRUE(session.Open(g.num_vertices, g.edges, g.directed).ok());

  std::atomic<int> applies{0};
  IngestionOptions options;
  options.policy = std::make_unique<EventCountPolicy>(2);
  options.on_apply = [&](const IngestStats& stats) {
    ++applies;
    EXPECT_GT(stats.windows_applied, 0);
    return stats.windows_applied < 2;  // request a stop after two windows
  };
  IngestionService service(&session, std::move(options));
  ASSERT_TRUE(service.Start().ok());

  const GraphDelta fresh =
      RandomEdgeAdditions(g.num_vertices, g.edges, 12, /*seed=*/19);
  for (const Edge& e : fresh.added_edges) {
    // The callback closes the queue mid-stream; later submits may fail.
    (void)service.Submit(EdgeEvent::AddEdge(e.src, e.dst));
  }
  (void)service.Stop();
  EXPECT_GE(applies.load(), 2);
  ExpectValidAssignment(session);
}

TEST(IngestionServiceTest, SubmitsAfterOnApplyStopsFailWithFailedPrecondition) {
  const GeneratedGraph g = SmallWorld();
  PartitioningSession session(SmallConfig());
  ASSERT_TRUE(session.Open(g.num_vertices, g.edges, g.directed).ok());

  IngestionOptions options;
  options.policy = std::make_unique<EventCountPolicy>(1);
  // Stop after the first window: the queue closes before Stop() is called.
  options.on_apply = [](const IngestStats&) { return false; };
  IngestionService service(&session, std::move(options));
  ASSERT_TRUE(service.Start().ok());

  const GraphDelta fresh =
      RandomEdgeAdditions(g.num_vertices, g.edges, 2, /*seed=*/23);
  ASSERT_TRUE(service
                  .Submit(EdgeEvent::AddEdge(fresh.added_edges[0].src,
                                             fresh.added_edges[0].dst))
                  .ok());
  // Quiescence comes after the window that closed the queue.
  ASSERT_TRUE(service.Drain().ok());

  // None of the three is backpressure a producer should retry.
  const EdgeEvent late = EdgeEvent::AddEdge(fresh.added_edges[1].src,
                                            fresh.added_edges[1].dst);
  EXPECT_EQ(service.Submit(late).code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(service.TrySubmit(late).code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(service.SubmitFor(late, microseconds(milliseconds(20))).code(),
            StatusCode::kFailedPrecondition);
  ASSERT_TRUE(service.Stop().ok());
  EXPECT_EQ(service.stats().events_submitted, 1);
  EXPECT_EQ(service.stats().events_ingested, 1);
}

/// Polls until the service's loop has exited on its own; false if it has
/// not within 30 s.
bool AwaitLoopExit(const IngestionService& service) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (service.running()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(milliseconds(1));
  }
  return true;
}

TEST(IngestionServiceTest, RunningTurnsFalseOnceAnOnApplyStopEndsTheLoop) {
  const GeneratedGraph g = SmallWorld();
  PartitioningSession session(SmallConfig());
  ASSERT_TRUE(session.Open(g.num_vertices, g.edges, g.directed).ok());

  IngestionOptions options;
  options.policy = std::make_unique<EventCountPolicy>(1);
  options.on_apply = [](const IngestStats&) { return false; };
  IngestionService service(&session, std::move(options));
  ASSERT_TRUE(service.Start().ok());
  EXPECT_TRUE(service.running());

  const GraphDelta fresh =
      RandomEdgeAdditions(g.num_vertices, g.edges, 1, /*seed=*/29);
  ASSERT_TRUE(service
                  .Submit(EdgeEvent::AddEdge(fresh.added_edges[0].src,
                                             fresh.added_edges[0].dst))
                  .ok());
  // No Stop(): the callback alone ends the loop, and running() says so.
  EXPECT_TRUE(AwaitLoopExit(service));
  EXPECT_EQ(service.stats().windows_applied, 1);
  ASSERT_TRUE(service.Stop().ok());
  EXPECT_FALSE(service.running());
}

TEST(IngestionServiceTest, DestructorAfterOnApplyStopRestoresCallersObserver) {
  const GeneratedGraph g = SmallWorld();
  SpinnerConfig config = SmallConfig();
  config.halt_epsilon = 0.0;  // keep iterating until cancelled
  PartitioningSession session(config);
  ASSERT_TRUE(session.Open(g.num_vertices, g.edges, g.directed).ok());

  // The caller's observer counts iterations and carries its own, already
  // cancelled, token: a refine under it stops after one iteration.
  std::atomic<int> iterations{0};
  CancellationToken callers_token;
  ProgressObserver observer;
  observer.on_iteration = [&](const IterationPoint&) {
    ++iterations;
    return true;
  };
  observer.cancel = &callers_token;
  {
    IngestionOptions options;
    options.policy = std::make_unique<EventCountPolicy>(1);
    options.on_apply = [](const IngestStats&) { return false; };
    IngestionService service(&session, std::move(options));
    service.SetProgressObserver(observer);
    ASSERT_TRUE(service.Start().ok());
    const GraphDelta fresh =
        RandomEdgeAdditions(g.num_vertices, g.edges, 1, /*seed=*/31);
    ASSERT_TRUE(service
                    .Submit(EdgeEvent::AddEdge(fresh.added_edges[0].src,
                                               fresh.added_edges[0].dst))
                    .ok());
    ASSERT_TRUE(AwaitLoopExit(service));
    EXPECT_FALSE(service.running());
  }  // destroyed without Stop()

  // The session holds the caller's observer again, not one that points
  // at the destroyed service's token.
  callers_token.Cancel();
  iterations = 0;
  ASSERT_TRUE(session.Refine().ok());
  EXPECT_EQ(iterations.load(), 1);
}

// --- Checkpoint wiring ----------------------------------------------------

TEST(IngestionServiceTest, CheckpointsEveryWindowAndRestoresIdentically) {
  const GeneratedGraph g = SmallWorld();
  TempPath base("ingest_ckpt.spns");
  PartitioningSession session(SmallConfig());
  ASSERT_TRUE(session.Open(g.num_vertices, g.edges, g.directed).ok());

  IngestionOptions options;
  options.policy = std::make_unique<EventCountPolicy>(8);
  options.checkpoint_base_path = base.path;
  IngestionService service(&session, std::move(options));
  ASSERT_TRUE(service.Start().ok());
  for (const EdgeEvent& event : ScriptedEvents(g)) {
    ASSERT_TRUE(service.Submit(event).ok());
  }
  ASSERT_TRUE(service.Stop().ok());
  const IngestStats stats = service.stats();
  EXPECT_GT(stats.windows_applied, 1);
  EXPECT_GT(stats.events_coalesced, 0);
  EXPECT_GE(stats.checkpoint_bases, 1);

  // A fresh session restored from base+log matches the live one exactly.
  PartitioningSession restored(SmallConfig());
  ASSERT_TRUE(
      IncrementalCheckpointer::RestoreSession(base.path, &restored).ok());
  EXPECT_EQ(restored.num_vertices(), session.num_vertices());
  EXPECT_EQ(restored.num_partitions(), session.num_partitions());
  EXPECT_EQ(restored.assignment(), session.assignment());
  EXPECT_EQ(restored.edges(), session.edges());
}

// --- The determinism invariant --------------------------------------------

/// Replays `events` through the blocking API exactly as the service
/// windows them under EventCountPolicy(watermark): fold events in order,
/// close the window at the watermark, Coalesce, ApplyDelta; the final
/// partial window applies at stream end (what Stop() does).
Status BlockingReplay(PartitioningSession* session,
                      const std::vector<EdgeEvent>& events, int watermark) {
  GraphDelta window;
  int64_t window_events = 0;
  auto flush = [&]() -> Status {
    if (window_events == 0) return Status::OK();
    GraphDelta delta = std::move(window);
    window = GraphDelta{};
    window_events = 0;
    return session->ApplyDelta(delta.Coalesce());
  };
  for (const EdgeEvent& event : events) {
    switch (event.kind) {
      case EdgeEvent::Kind::kAddEdge:
        window.AddEdge(event.src, event.dst);
        break;
      case EdgeEvent::Kind::kRemoveEdge:
        window.RemoveEdge(event.src, event.dst);
        break;
      case EdgeEvent::Kind::kAddVertices:
        window.AddVertex(event.count);
        break;
    }
    if (++window_events >= watermark) SPINNER_RETURN_IF_ERROR(flush());
  }
  return flush();
}

TEST(IngestionDeterminismTest, DrainedRunMatchesBlockingApplyDeltaExactly) {
  const GeneratedGraph g = SmallWorld();
  const std::vector<EdgeEvent> events = ScriptedEvents(g);
  constexpr int kWatermark = 16;

  // Reference: the blocking replay at the canonical {1 shard, 1 thread}.
  HistoryTrace reference_trace;
  PartitioningSession reference(SmallConfig(), ShapeOptions(1, 1));
  ASSERT_TRUE(reference.Open(g.num_vertices, g.edges, g.directed).ok());
  // Observer installed after Open: both paths trace only the streamed
  // applies (the service wraps its observer in at Start, past Open too).
  reference.SetProgressObserver(reference_trace.AsObserver());
  ASSERT_TRUE(BlockingReplay(&reference, events, kWatermark).ok());
  ASSERT_FALSE(reference_trace.values.empty());

  for (const auto& [shards, threads] :
       std::vector<std::pair<int, int>>{{1, 1}, {1, 4}, {2, 1}, {2, 4},
                                        {7, 1}, {7, 4}}) {
    SCOPED_TRACE("shards=" + std::to_string(shards) +
                 " threads=" + std::to_string(threads));
    HistoryTrace trace;
    PartitioningSession session(SmallConfig(), ShapeOptions(shards, threads));
    ASSERT_TRUE(session.Open(g.num_vertices, g.edges, g.directed).ok());

    IngestionOptions options;
    options.policy = std::make_unique<EventCountPolicy>(kWatermark);
    options.queue_capacity = 16;  // smaller than the stream: real draining
    IngestionService service(&session, std::move(options));
    service.SetProgressObserver(trace.AsObserver());
    ASSERT_TRUE(service.Start().ok());
    for (const EdgeEvent& event : events) {
      ASSERT_TRUE(service.Submit(event).ok());
    }
    ASSERT_TRUE(service.Stop().ok());

    // Bit-identical assignment AND bit-identical float φ/ρ/score history:
    // the queue, the thread and the clock leak nothing into partitioning.
    EXPECT_EQ(session.assignment(), reference.assignment());
    EXPECT_EQ(session.edges(), reference.edges());
    ASSERT_EQ(trace.values.size(), reference_trace.values.size());
    for (size_t i = 0; i < trace.values.size(); ++i) {
      ASSERT_EQ(trace.values[i], reference_trace.values[i]) << "at " << i;
    }
  }
}

TEST(IngestionDeterminismTest, MultiProducerDrainMatchesWhenWindowsAlign) {
  // Multi-producer runs interleave arbitrarily, so the *global* event
  // order is not reproducible — but with a watermark of 1 every event is
  // its own window, and the final edge multiset is order-independent. The
  // maintained graph must land in the same state as the blocking replay
  // of any serialization, and the run must be clean under TSan.
  const GeneratedGraph g = SmallWorld();
  PartitioningSession session(SmallConfig());
  ASSERT_TRUE(session.Open(g.num_vertices, g.edges, g.directed).ok());

  const GraphDelta fresh =
      RandomEdgeAdditions(g.num_vertices, g.edges, 24, /*seed=*/23);
  IngestionOptions options;
  options.policy = std::make_unique<EventCountPolicy>(1);
  options.queue_capacity = 4;  // contention: producers block on each other
  IngestionService service(&session, std::move(options));
  ASSERT_TRUE(service.Start().ok());

  constexpr int kProducers = 3;
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (size_t i = static_cast<size_t>(p); i < fresh.added_edges.size();
           i += kProducers) {
        const Edge& e = fresh.added_edges[i];
        ASSERT_TRUE(service.Submit(EdgeEvent::AddEdge(e.src, e.dst)).ok());
      }
    });
  }
  for (std::thread& t : producers) t.join();
  ASSERT_TRUE(service.Stop().ok());

  EXPECT_EQ(service.stats().events_ingested,
            static_cast<int64_t>(fresh.added_edges.size()));
  EXPECT_EQ(service.stats().windows_applied,
            static_cast<int64_t>(fresh.added_edges.size()));
  // Same final edge multiset as the blocking path (sorted compare: the
  // arrival order of single-event windows is the only nondeterminism).
  EdgeList got = session.edges();
  std::sort(got.begin(), got.end());
  PartitioningSession blocking(SmallConfig());
  ASSERT_TRUE(blocking.Open(g.num_vertices, g.edges, g.directed).ok());
  for (const Edge& e : fresh.added_edges) {
    ASSERT_TRUE(blocking.ApplyDelta(GraphDelta{}.AddEdge(e.src, e.dst)).ok());
  }
  EdgeList want = blocking.edges();
  std::sort(want.begin(), want.end());
  EXPECT_EQ(got, want);
  ExpectValidAssignment(session);
}

}  // namespace
}  // namespace spinner::stream
