// Recorded load traces for the elasticity policy lab: a trace is a
// timestamped sequence of edge-event *bursts* (the workload) interleaved
// with cluster *capacity changes* (the environment) — everything an
// autoscaling policy reacts to, in a form that can be replayed through
// the real IngestionService + ElasticController deterministically
// (simulator/policy_lab.h) and diffed as text in a PR.
//
// Text format, one directive per line ('#' comments and blank lines
// ignored):
//
//   capacity 8            # before any burst: initial cluster capacity
//   burst 1000000         # opens a burst at t = 1,000,000 us
//   add 12 840            # edge events of the open burst
//   remove 7 13
//   vertices 64           # append 64 vertices to the id range
//   capacity 12           # inside a burst: capacity advertised at its t
//   burst 2000000
//   ...
//
// Burst times must be non-decreasing — replay sets the lab's ManualClock
// to each burst's time, and time does not run backwards.
#ifndef SPINNER_SIMULATOR_TRACE_H_
#define SPINNER_SIMULATOR_TRACE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "stream/event_queue.h"

namespace spinner::sim {

/// One burst: every event carries the burst's timestamp, and the replay
/// drains the ingestion queue after submitting it — so window boundaries
/// are a pure function of the trace, never of scheduling.
struct TraceBurst {
  int64_t at_micros = 0;
  /// Cluster capacity advertised when this burst lands; -1 = unchanged.
  int capacity = -1;
  std::vector<stream::EdgeEvent> events;
};

/// A replayable workload recording.
struct LoadTrace {
  /// Capacity advertised before the first burst; 0 = unbounded.
  int initial_capacity = 0;
  std::vector<TraceBurst> bursts;

  int64_t num_events() const {
    int64_t n = 0;
    for (const TraceBurst& burst : bursts) {
      n += static_cast<int64_t>(burst.events.size());
    }
    return n;
  }
};

/// Parses the text format above. Strict: unknown directives, events
/// outside a burst, and time going backwards are errors.
Result<LoadTrace> ParseLoadTrace(std::string_view text);

/// Renders a trace in the text format (ParseLoadTrace round-trips it).
std::string FormatLoadTrace(const LoadTrace& trace);

/// File wrappers around the two above; the write replaces `path`
/// atomically (ReplaceFile, common/base_log.h).
Result<LoadTrace> ReadLoadTrace(const std::string& path);
Status WriteLoadTrace(const std::string& path, const LoadTrace& trace);

/// Knobs of the synthetic trace generator — a growth workload with an
/// optional hotspot (degrades φ by concentrating new edges on few
/// vertices) and an optional capacity change partway through.
struct SyntheticTraceOptions {
  /// Vertex-id range of the graph the trace will be applied to; new
  /// edges draw endpoints from [0, num_vertices + grown so far).
  int64_t num_vertices = 0;
  int num_bursts = 8;
  int events_per_burst = 256;
  /// > 0: each burst starts with a kAddVertices event growing the range —
  /// the "graph keeps growing" load that makes absolute-load watermarks
  /// meaningful.
  int64_t vertices_per_burst = 0;
  /// Fraction of edge events that remove a previously-added edge.
  double remove_fraction = 0.0;
  /// Fraction of added edges whose destination is drawn from the hot set
  /// [0, hotspot_span) — concentrated load that drags φ down.
  double hotspot_fraction = 0.0;
  int64_t hotspot_span = 64;
  int64_t first_burst_micros = 1'000'000;
  int64_t burst_gap_micros = 1'000'000;
  uint64_t seed = 1;
  int initial_capacity = 0;
  /// >= 0: the burst at this index advertises `changed_capacity`.
  int capacity_change_burst = -1;
  int changed_capacity = -1;
};

/// Deterministic generator (same options -> same trace, any platform).
LoadTrace SyntheticLoadTrace(const SyntheticTraceOptions& options);

}  // namespace spinner::sim

#endif  // SPINNER_SIMULATOR_TRACE_H_
