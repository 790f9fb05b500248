// Wall-clock timing helpers for benchmarks and engine statistics.
#ifndef SPINNER_COMMON_TIMER_H_
#define SPINNER_COMMON_TIMER_H_

#include <chrono>
#include <cstdint>

namespace spinner {

/// Monotonic wall-clock stopwatch.
class WallTimer {
 public:
  WallTimer() { Restart(); }

  /// Resets the start point to now.
  void Restart() { start_ = Clock::now(); }

  /// Seconds elapsed since construction or the last Restart().
  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  /// Nanoseconds elapsed since construction or the last Restart().
  int64_t ElapsedNanos() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - start_)
        .count();
  }

  /// Microseconds elapsed since construction or the last Restart().
  int64_t ElapsedMicros() const {
    return std::chrono::duration_cast<std::chrono::microseconds>(
               Clock::now() - start_)
        .count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace spinner

#endif  // SPINNER_COMMON_TIMER_H_
