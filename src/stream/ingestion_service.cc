#include "stream/ingestion_service.h"

#include <algorithm>

#include "common/timer.h"

namespace spinner::stream {

IngestionService::IngestionService(PartitioningSession* session,
                                   IngestionOptions options)
    : session_(session),
      options_(std::move(options)),
      clock_(options_.clock ? options_.clock
                            : std::make_shared<SystemClock>()),
      queue_(options_.queue_capacity) {
  if (options_.policy == nullptr) {
    options_.policy = std::make_unique<EventCountPolicy>(256);
  }
  if (!options_.checkpoint_base_path.empty()) {
    IncrementalCheckpointer::Options ckpt;
    ckpt.compact_after_records = options_.checkpoint_compact_after;
    checkpointer_ = std::make_unique<IncrementalCheckpointer>(
        options_.checkpoint_base_path, ckpt);
  }
}

IngestionService::~IngestionService() {
  // Also after the loop exited on its own (running() is false then): the
  // stop hands the session back its caller's observer, which must not
  // keep pointing at this service's cancel token.
  bool started = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    started = state_ == State::kRunning;
  }
  if (started) (void)Cancel();  // best effort; errors have nowhere to go
  if (ingest_thread_.joinable()) ingest_thread_.join();
}

Status IngestionService::Start() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (state_ != State::kIdle) {
    return Status::FailedPrecondition(
        "ingestion service already started; one Start() per service");
  }
  if (session_ == nullptr || !session_->is_open()) {
    return Status::FailedPrecondition(
        "session must be Open() before starting ingestion");
  }
  // The session's observer is wrapped for the run: the user's callback is
  // forwarded, cancellation is the service's (Cancel() reaches into an
  // in-flight refine through it).
  ProgressObserver wrapped;
  wrapped.on_iteration = observer_.on_iteration;
  wrapped.cancel = &cancel_token_;
  session_->SetProgressObserver(wrapped);
  state_ = State::kRunning;
  quiescent_ = true;
  ingest_thread_ = std::thread([this] { RunLoop(); });
  return Status::OK();
}

Status IngestionService::StopInternal(bool hard_cancel) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (state_ == State::kIdle) {
      return Status::FailedPrecondition("ingestion service never started");
    }
    if (state_ == State::kStopped) return ingest_error_;
    if (hard_cancel) {
      cancel_requested_ = true;
      stats_.cancelled = true;
    }
  }
  if (hard_cancel) cancel_token_.Cancel();
  queue_.Close();
  if (ingest_thread_.joinable()) ingest_thread_.join();
  std::lock_guard<std::mutex> lock(mutex_);
  state_ = State::kStopped;
  quiesced_.notify_all();
  // Hand the session back with the caller's unwrapped observer.
  session_->SetProgressObserver(observer_);
  return ingest_error_;
}

Status IngestionService::Stop() { return StopInternal(false); }

Status IngestionService::Cancel() { return StopInternal(true); }

Status IngestionService::Drain() {
  std::unique_lock<std::mutex> lock(mutex_);
  if (state_ != State::kRunning) {
    return Status::FailedPrecondition("ingestion service is not running");
  }
  ++drain_waiters_;
  quiesced_.wait(lock, [&] {
    return quiescent_ || state_ != State::kRunning || !ingest_error_.ok() ||
           cancel_requested_;
  });
  --drain_waiters_;
  return ingest_error_;
}

template <typename Push>
Status IngestionService::Admit(EdgeEvent event, const char* when_full,
                               Push push) {
  if (event.timestamp_micros < 0) {
    event.timestamp_micros = clock_->NowMicros();
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (state_ != State::kRunning) {
      return Status::FailedPrecondition("ingestion service is not running");
    }
  }
  if (!push(event)) {
    // A closed queue is a stop (Stop(), Cancel() or on_apply returning
    // false), not backpressure: a retry can never succeed.
    if (queue_.closed()) {
      return Status::FailedPrecondition(
          "ingestion service stopped: its queue is closed");
    }
    return Status::OutOfRange(when_full);
  }
  std::lock_guard<std::mutex> lock(mutex_);
  ++stats_.events_submitted;
  quiescent_ = false;
  return Status::OK();
}

Status IngestionService::Submit(EdgeEvent event) {
  // Enqueue blocks until there is room, so it fails only when closed.
  return Admit(event, "",
               [this](const EdgeEvent& e) { return queue_.Enqueue(e); });
}

Status IngestionService::TrySubmit(EdgeEvent event) {
  return Admit(event, "event queue is full",
               [this](const EdgeEvent& e) { return queue_.TryEnqueue(e); });
}

Status IngestionService::SubmitFor(EdgeEvent event,
                                   std::chrono::microseconds timeout) {
  return Admit(event, "event queue stayed full past the submit timeout",
               [this, timeout](const EdgeEvent& e) {
                 return queue_.EnqueueFor(e, timeout);
               });
}

void IngestionService::SetProgressObserver(ProgressObserver observer) {
  observer_ = std::move(observer);
}

IngestStats IngestionService::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  IngestStats out = stats_;
  out.queue_depth = static_cast<int64_t>(queue_.size());
  out.queue_high_water = static_cast<int64_t>(queue_.high_water_mark());
  return out;
}

bool IngestionService::running() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return state_ == State::kRunning && !loop_exited_;
}

void IngestionService::FoldIntoWindow(const EdgeEvent& event) {
  switch (event.kind) {
    case EdgeEvent::Kind::kAddEdge:
      window_delta_.AddEdge(event.src, event.dst);
      break;
    case EdgeEvent::Kind::kRemoveEdge:
      window_delta_.RemoveEdge(event.src, event.dst);
      break;
    case EdgeEvent::Kind::kAddVertices:
      window_delta_.AddVertex(event.count);
      break;
  }
  ++window_events_;
  if (window_opened_micros_ < 0) {
    window_opened_micros_ = event.timestamp_micros;
  }
  if (window_oldest_micros_ < 0 ||
      event.timestamp_micros < window_oldest_micros_) {
    window_oldest_micros_ = event.timestamp_micros;
  }
}

WindowState IngestionService::CurrentWindowState() const {
  WindowState state;
  state.window_events = window_events_;
  state.queue_depth = static_cast<int64_t>(queue_.size());
  state.window_opened_micros = window_opened_micros_;
  state.oldest_event_micros = window_oldest_micros_;
  if (state.oldest_event_micros < 0) {
    state.oldest_event_micros = queue_.oldest_timestamp_micros();
  }
  state.now_micros = clock_->NowMicros();
  return state;
}

Status IngestionService::ApplyWindow() {
  GraphDelta delta = std::move(window_delta_);
  const int64_t raw_entries =
      static_cast<int64_t>(delta.added_edges.size()) +
      static_cast<int64_t>(delta.removed_edges.size());
  const int64_t window_events = window_events_;
  const int64_t oldest = window_oldest_micros_;
  window_delta_ = GraphDelta{};
  window_events_ = 0;
  window_opened_micros_ = -1;
  window_oldest_micros_ = -1;

  delta.Coalesce();
  const int64_t coalesced_away =
      raw_entries - static_cast<int64_t>(delta.added_edges.size()) -
      static_cast<int64_t>(delta.removed_edges.size());

  const int64_t staleness =
      oldest >= 0 ? clock_->NowMicros() - oldest : 0;
  WallTimer timer;
  SPINNER_RETURN_IF_ERROR(session_->ApplyDelta(delta));
  const int64_t apply_micros = timer.ElapsedMicros();

  if (checkpointer_ != nullptr) {
    SPINNER_RETURN_IF_ERROR(checkpointer_->Append(*session_, delta));
  }

  IngestStats snapshot;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stats_.events_ingested += window_events;
    stats_.events_coalesced += coalesced_away;
    ++stats_.windows_applied;
    stats_.last_apply_micros = apply_micros;
    stats_.max_apply_micros = std::max(stats_.max_apply_micros, apply_micros);
    stats_.total_apply_micros += apply_micros;
    stats_.last_staleness_micros = staleness;
    stats_.max_staleness_micros =
        std::max(stats_.max_staleness_micros, staleness);
    stats_.last_phi = session_->last_result().metrics.phi;
    stats_.last_rho = session_->last_result().metrics.rho;
    if (checkpointer_ != nullptr) {
      stats_.checkpoint_records = checkpointer_->records_since_base();
      stats_.checkpoint_bases = checkpointer_->bases_written();
    }
    snapshot = stats_;
    snapshot.queue_depth = static_cast<int64_t>(queue_.size());
    snapshot.queue_high_water =
        static_cast<int64_t>(queue_.high_water_mark());
  }
  if (options_.on_apply && !options_.on_apply(snapshot)) {
    // The callback asked for a graceful stop: closing the queue makes the
    // loop drain what remains and exit, exactly like Stop().
    queue_.Close();
  }
  return Status::OK();
}

void IngestionService::RunLoop() {
  std::vector<EdgeEvent> batch;
  Status error;
  for (;;) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (cancel_requested_) break;
    }
    batch.clear();
    const bool alive = queue_.DequeueAll(&batch, options_.idle_poll);

    // Events fold into the window ONE AT A TIME, with the trigger policy
    // consulted after each: window boundaries are a function of the event
    // sequence (plus the injected clock), never of how arrivals happened
    // to batch up in the queue. This is what makes a drained run
    // bit-identical to the equivalent blocking ApplyDelta sequence.
    for (const EdgeEvent& event : batch) {
      {
        std::lock_guard<std::mutex> lock(mutex_);
        if (cancel_requested_) break;
      }
      FoldIntoWindow(event);
      if (options_.policy->ShouldTrigger(CurrentWindowState())) {
        error = ApplyWindow();
        if (!error.ok()) break;
      }
    }
    if (!error.ok()) break;

    bool cancelled;
    bool drain_pending;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      cancelled = cancel_requested_;
      drain_pending = drain_waiters_ > 0;
    }
    if (cancelled) break;

    // Tail conditions that apply a partial window regardless of the
    // policy: the queue closed (drain-and-stop) or a Drain() is waiting —
    // plus any time-based trigger that fired while the queue was idle.
    const bool queue_empty = queue_.size() == 0;
    const bool force_tail = !alive || (drain_pending && queue_empty);
    if (window_events_ > 0 &&
        (force_tail ||
         options_.policy->ShouldTrigger(CurrentWindowState()))) {
      error = ApplyWindow();
      if (!error.ok()) break;
    }

    {
      std::lock_guard<std::mutex> lock(mutex_);
      stats_.queue_depth = static_cast<int64_t>(queue_.size());
      stats_.queue_high_water =
          static_cast<int64_t>(queue_.high_water_mark());
      quiescent_ = window_events_ == 0 && queue_.size() == 0;
      if (quiescent_) quiesced_.notify_all();
    }
    if (!alive && window_events_ == 0 && queue_.size() == 0) break;
  }

  std::lock_guard<std::mutex> lock(mutex_);
  if (!error.ok() && ingest_error_.ok()) ingest_error_ = error;
  loop_exited_ = true;
  // Whatever ended the loop, wake every waiter: nothing further will be
  // applied.
  quiescent_ = true;
  quiesced_.notify_all();
}

}  // namespace spinner::stream
