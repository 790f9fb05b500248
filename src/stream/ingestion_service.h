// IngestionService: maintained partitioning over a *live* edge stream —
// the millions-of-users scenario the paper motivates (§I/§V) made
// operational. Producers on any thread submit EdgeEvents; a dedicated
// ingestion thread drains the bounded queue (backpressure, never unbounded
// growth), folds events into windowed GraphDeltas (GraphDelta::Coalesce:
// an edge added and removed within one window never reaches the
// partitioner), and applies each window through the session's incremental
// ApplyDelta when the TriggerPolicy fires — event-count watermark,
// wall-clock window, or staleness SLO, all timed against an injected
// Clock so tests are deterministic.
//
//   PartitioningSession session(config);
//   SPINNER_CHECK_OK(session.Open(n, edges));
//   IngestionOptions opts;
//   opts.policy = std::make_unique<EventCountPolicy>(1000);
//   IngestionService service(&session, std::move(opts));
//   SPINNER_CHECK_OK(service.Start());
//   ... producers: service.Submit(EdgeEvent::AddEdge(u, v)); ...
//   SPINNER_CHECK_OK(service.Stop());   // drain, apply the tail, join
//
// Determinism contract (the repo's core invariant, extended to the
// stream): a drained ingestion run produces assignments and float
// φ/ρ/score histories bit-identical to the equivalent sequence of
// blocking ApplyDelta calls — the same windows, coalesced the same way —
// at every {num_shards, num_threads} shape. Nothing about the queue, the
// thread, or the clock leaks into the partitioning; only window
// *boundaries* do, and with EventCountPolicy those are a pure function of
// the event sequence.
//
// Threading rules: Submit/TrySubmit/SubmitFor/stats()/Drain() are safe
// from any thread. The session belongs to the ingestion thread while the
// service is running — callers may inspect it only in the quiescent
// window between a returned Drain()/Stop() and the next Submit.
#ifndef SPINNER_STREAM_INGESTION_SERVICE_H_
#define SPINNER_STREAM_INGESTION_SERVICE_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/result.h"
#include "graph/delta.h"
#include "spinner/observer.h"
#include "spinner/session.h"
#include "stream/checkpoint_log.h"
#include "stream/clock.h"
#include "stream/event_queue.h"
#include "stream/trigger_policy.h"

namespace spinner::stream {

/// Live counters of an ingestion run. Snapshots are internally consistent
/// (taken under one lock) and safe to read from any thread.
struct IngestStats {
  /// Events currently queued (behind the open window).
  int64_t queue_depth = 0;
  /// Deepest the queue has ever been — how hard backpressure worked.
  int64_t queue_high_water = 0;
  /// Events accepted by Submit/TrySubmit/SubmitFor.
  int64_t events_submitted = 0;
  /// Events drained from the queue into windows.
  int64_t events_ingested = 0;
  /// Events eliminated by GraphDelta::Coalesce (duplicate adds,
  /// add-then-remove pairs) before ever reaching the partitioner.
  int64_t events_coalesced = 0;
  /// Windows applied through ApplyDelta.
  int64_t windows_applied = 0;
  /// ApplyDelta wall time of the most recent window.
  int64_t last_apply_micros = 0;
  int64_t max_apply_micros = 0;
  int64_t total_apply_micros = 0;
  /// Staleness of the oldest event in the most recent window at the
  /// moment it was applied, and the worst ever observed.
  int64_t last_staleness_micros = 0;
  int64_t max_staleness_micros = 0;
  /// Quality of the maintained partitioning after the last apply.
  double last_phi = 0.0;
  double last_rho = 0.0;
  /// Delta-log checkpoint activity (zero unless checkpoint_base_path set).
  int64_t checkpoint_records = 0;
  int64_t checkpoint_bases = 0;
  /// True once a hard Cancel() interrupted the run.
  bool cancelled = false;
};

/// Construction-time knobs of an IngestionService.
struct IngestionOptions {
  /// Capacity of the edge-event queue — the backpressure bound.
  size_t queue_capacity = 4096;
  /// When to apply the open window. Defaults to EventCountPolicy(256).
  std::unique_ptr<TriggerPolicy> policy;
  /// Time source for stamping, staleness and trigger evaluation.
  /// Defaults to SystemClock; tests inject a ManualClock.
  std::shared_ptr<Clock> clock;
  /// How long the ingestion thread sleeps on an empty queue before
  /// re-evaluating time-based policies.
  std::chrono::microseconds idle_poll = std::chrono::milliseconds(1);
  /// Non-empty: incremental-checkpoint every applied window to this base
  /// path (see stream/checkpoint_log.h).
  std::string checkpoint_base_path;
  /// Compaction threshold of the checkpoint delta log.
  int64_t checkpoint_compact_after = 64;
  /// Called on the ingestion thread after every applied window. Return
  /// false to request a graceful stop (like Stop(), but from inside).
  std::function<bool(const IngestStats&)> on_apply;
};

/// Long-lived ingestion daemon over one PartitioningSession.
class IngestionService {
 public:
  /// `session` must outlive the service and be Open(). The service owns
  /// the session's mutation rights while running.
  IngestionService(PartitioningSession* session, IngestionOptions options);

  /// Stops the service (hard-cancelling any in-flight apply) if the
  /// caller never did.
  ~IngestionService();

  IngestionService(const IngestionService&) = delete;
  IngestionService& operator=(const IngestionService&) = delete;

  // --- Lifecycle ----------------------------------------------------------

  /// Spawns the ingestion thread. Fails if the session is not open or the
  /// service already ran (one Start per service).
  Status Start();

  /// Graceful drain-and-stop: closes the queue, waits for the ingestion
  /// thread to drain it and apply the final (partial) window, joins.
  /// Returns the first ingestion error, or OK. Idempotent.
  Status Stop();

  /// Hard cancellation: interrupts an in-flight label-propagation run via
  /// the session's CancellationToken (it stops within one iteration and
  /// commits the partially-refined — still valid — assignment), discards
  /// every unapplied event, and joins. Idempotent.
  Status Cancel();

  /// Blocks until every event submitted before this call has been applied
  /// (the queue is empty and the window is closed), even if the trigger
  /// policy would have waited — the stream analogue of an fsync. After it
  /// returns the session is quiescent and safe to inspect until the next
  /// Submit. Fails if the service is not running.
  Status Drain();

  // --- Producers (any thread) --------------------------------------------

  // All three fail with FailedPrecondition once the service is stopping
  // (Stop(), Cancel(), or on_apply returned false) and differ only in
  // their backpressure when the queue is full.

  /// Blocks while the queue is full.
  Status Submit(EdgeEvent event);

  /// Never blocks: OutOfRange if the queue is full right now.
  Status TrySubmit(EdgeEvent event);

  /// Blocks up to `timeout`; OutOfRange on timeout.
  Status SubmitFor(EdgeEvent event, std::chrono::microseconds timeout);

  // --- Observation --------------------------------------------------------

  /// Installs the per-iteration φ/ρ/score observer forwarded to the
  /// session for every windowed apply. Call before Start(); the callback
  /// runs on the ingestion thread.
  void SetProgressObserver(ProgressObserver observer);

  /// Consistent snapshot of the live counters.
  IngestStats stats() const;

  /// True from Start() until the ingestion loop exits: by Stop() or
  /// Cancel(), after on_apply returned false and the queue drained, or on
  /// an ingestion error.
  bool running() const;

 private:
  enum class State { kIdle, kRunning, kStopped };

  /// The admission path of every producer call: stamps the event, pushes
  /// it with `push` (one of the queue's enqueue variants) and counts it.
  /// `when_full` is the OutOfRange message of a push refused on a full,
  /// open queue.
  template <typename Push>
  Status Admit(EdgeEvent event, const char* when_full, Push push);
  void RunLoop();
  /// Folds one event into window_delta_, updating window bookkeeping.
  void FoldIntoWindow(const EdgeEvent& event);
  /// The trigger policy's view of this moment (ingestion thread only).
  WindowState CurrentWindowState() const;
  /// Coalesces and applies the open window; updates stats and checkpoint.
  Status ApplyWindow();
  Status StopInternal(bool hard_cancel);

  PartitioningSession* session_;
  IngestionOptions options_;
  std::shared_ptr<Clock> clock_;
  EventQueue queue_;
  std::unique_ptr<IncrementalCheckpointer> checkpointer_;

  std::thread ingest_thread_;
  CancellationToken cancel_token_;
  ProgressObserver observer_;

  mutable std::mutex mutex_;
  std::condition_variable quiesced_;
  State state_ = State::kIdle;
  /// Set by the ingestion thread as RunLoop returns.
  bool loop_exited_ = false;
  bool cancel_requested_ = false;
  int drain_waiters_ = 0;
  /// True while the window is empty, the queue is drained and no apply is
  /// in flight — the condition Drain() waits on.
  bool quiescent_ = true;
  Status ingest_error_;
  IngestStats stats_;

  // Ingestion-thread-only window state (no lock needed).
  GraphDelta window_delta_;
  int64_t window_events_ = 0;
  int64_t window_opened_micros_ = -1;
  int64_t window_oldest_micros_ = -1;
};

}  // namespace spinner::stream

#endif  // SPINNER_STREAM_INGESTION_SERVICE_H_
