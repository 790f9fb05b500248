// Bounded, thread-safe MPSC queue of edge events — the front door of the
// streaming ingestion service. Producers (any number of threads) enqueue
// edge-stream events; one ingestion thread drains them in arrival order.
// The capacity bound is the backpressure contract: when the partitioner
// falls behind, producers block (or time out, or are refused) instead of
// the queue growing without bound. The loader-thread + bounded-queue
// idiom follows the parameter_server PARSA partitioner (SNIPPETS.md
// Snippet 1).
#ifndef SPINNER_STREAM_EVENT_QUEUE_H_
#define SPINNER_STREAM_EVENT_QUEUE_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <vector>

#include "graph/types.h"

namespace spinner::stream {

/// One event of a live edge stream. Events are the streaming analogue of
/// the GraphDelta builder calls: a window of events folds into one
/// coalesced GraphDelta (graph/delta.h).
struct EdgeEvent {
  enum class Kind : int32_t {
    kAddEdge = 0,
    kRemoveEdge = 1,
    /// Appends `count` vertices to the id range (GraphDelta::AddVertex).
    kAddVertices = 2,
  };

  Kind kind = Kind::kAddEdge;
  VertexId src = 0;
  VertexId dst = 0;
  /// Vertex count for kAddVertices events; ignored otherwise.
  int64_t count = 0;
  /// Event time in the service clock's domain. Negative means "unset":
  /// IngestionService::Submit stamps it on admission. Staleness of an
  /// unapplied event = now - timestamp.
  int64_t timestamp_micros = -1;

  static EdgeEvent AddEdge(VertexId src, VertexId dst,
                           int64_t timestamp_micros = -1) {
    return {Kind::kAddEdge, src, dst, 0, timestamp_micros};
  }
  static EdgeEvent RemoveEdge(VertexId src, VertexId dst,
                              int64_t timestamp_micros = -1) {
    return {Kind::kRemoveEdge, src, dst, 0, timestamp_micros};
  }
  static EdgeEvent AddVertices(int64_t count, int64_t timestamp_micros = -1) {
    return {Kind::kAddVertices, 0, 0, count, timestamp_micros};
  }
};

/// Bounded multi-producer single-consumer FIFO. All methods are
/// thread-safe; DequeueAll is intended for exactly one consumer thread
/// (several would each get disjoint batches, which is never what the
/// ingestion loop wants).
class EventQueue {
 public:
  /// `capacity` is clamped to at least 1.
  explicit EventQueue(size_t capacity);

  // --- Producers ---------------------------------------------------------

  /// Blocks while the queue is full. Returns false iff the queue was
  /// closed (the event is dropped).
  bool Enqueue(EdgeEvent event);

  /// Never blocks. Returns false if the queue is full or closed.
  bool TryEnqueue(EdgeEvent event);

  /// Blocks up to `timeout` for space. Returns false on timeout or close.
  bool EnqueueFor(EdgeEvent event, std::chrono::microseconds timeout);

  /// Closes the queue: subsequent enqueues fail, blocked producers wake
  /// with false, and the consumer drains what is already queued.
  void Close();

  // --- Consumer ----------------------------------------------------------

  /// Moves every queued event into `out` (appending), waiting up to
  /// `max_wait` for the first one. Returns true if the queue is still
  /// open OR events remain — i.e. false means "closed and fully drained",
  /// the consumer's termination signal.
  bool DequeueAll(std::vector<EdgeEvent>* out,
                  std::chrono::microseconds max_wait);

  // --- Introspection ------------------------------------------------------

  size_t size() const;
  /// Deepest the queue has ever been — the backpressure gauge.
  size_t high_water_mark() const;
  /// Events accepted over the queue's lifetime.
  int64_t total_enqueued() const;
  bool closed() const;
  /// Enqueue timestamp of the oldest queued event, or -1 when empty.
  int64_t oldest_timestamp_micros() const;

 private:
  bool HasRoomOrClosed() const;
  /// The push of every enqueue variant, under `mutex_`: false if the queue
  /// is closed or full.
  bool PushLocked(const EdgeEvent& event);

  const size_t capacity_;
  mutable std::mutex mutex_;
  std::condition_variable space_available_;
  std::condition_variable data_available_;
  std::deque<EdgeEvent> events_;
  size_t high_water_ = 0;
  int64_t total_enqueued_ = 0;
  bool closed_ = false;
};

}  // namespace spinner::stream

#endif  // SPINNER_STREAM_EVENT_QUEUE_H_
