#include "stream/event_queue.h"

#include <algorithm>
#include <utility>

namespace spinner::stream {

EventQueue::EventQueue(size_t capacity)
    : capacity_(std::max<size_t>(capacity, 1)) {}

bool EventQueue::Enqueue(EdgeEvent event) {
  std::unique_lock<std::mutex> lock(mutex_);
  space_available_.wait(lock, [&] { return HasRoomOrClosed(); });
  return PushLocked(event);
}

bool EventQueue::TryEnqueue(EdgeEvent event) {
  std::lock_guard<std::mutex> lock(mutex_);
  return PushLocked(event);
}

bool EventQueue::EnqueueFor(EdgeEvent event,
                            std::chrono::microseconds timeout) {
  std::unique_lock<std::mutex> lock(mutex_);
  space_available_.wait_for(lock, timeout, [&] { return HasRoomOrClosed(); });
  return PushLocked(event);
}

bool EventQueue::HasRoomOrClosed() const {
  return closed_ || events_.size() < capacity_;
}

bool EventQueue::PushLocked(const EdgeEvent& event) {
  if (closed_ || events_.size() >= capacity_) return false;
  events_.push_back(event);
  high_water_ = std::max(high_water_, events_.size());
  ++total_enqueued_;
  data_available_.notify_one();
  return true;
}

void EventQueue::Close() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    closed_ = true;
  }
  space_available_.notify_all();
  data_available_.notify_all();
}

bool EventQueue::DequeueAll(std::vector<EdgeEvent>* out,
                            std::chrono::microseconds max_wait) {
  std::unique_lock<std::mutex> lock(mutex_);
  data_available_.wait_for(lock, max_wait,
                           [&] { return closed_ || !events_.empty(); });
  const bool had_events = !events_.empty();
  out->insert(out->end(), events_.begin(), events_.end());
  events_.clear();
  if (had_events) space_available_.notify_all();
  return !closed_ || had_events;
}

size_t EventQueue::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return events_.size();
}

size_t EventQueue::high_water_mark() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return high_water_;
}

int64_t EventQueue::total_enqueued() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return total_enqueued_;
}

bool EventQueue::closed() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return closed_;
}

int64_t EventQueue::oldest_timestamp_micros() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return events_.empty() ? -1 : events_.front().timestamp_micros;
}

}  // namespace spinner::stream
