// Dynamic social network (paper §III.D / §V.C scenario), streamed: a
// friendship graph keeps gaining users and edges, but here the churn
// arrives as a *live event stream* instead of pre-batched deltas. A
// producer thread plays each day's events (timestamped edge additions,
// new-user signups, the occasional unfriend) into an IngestionService,
// which windows them behind an event-count watermark, coalesces
// duplicates and transient edges, and applies each window through the
// session's incremental ApplyDelta — the operator never builds a
// GraphDelta by hand. At each day boundary the main thread Drain()s the
// service (the stream analogue of an fsync) and reads the maintained
// φ/ρ plus the service's ingest stats.
//
//   ./dynamic_social_network [--days=5] [--k=16] [--daily-edges-pct=2]
//       [--watermark=256]
#include <cstdio>
#include <thread>
#include <vector>

#include "common/cli.h"
#include "graph/delta.h"
#include "graph/generators.h"
#include "spinner/session.h"
#include "stream/ingestion_service.h"

using namespace spinner;
using spinner::stream::EdgeEvent;
using spinner::stream::IngestionService;

int main(int argc, char** argv) {
  CommandLine cli;
  SPINNER_CHECK_OK(cli.Parse(argc, argv));
  const int days = static_cast<int>(cli.GetInt("days", 5));
  const int k = static_cast<int>(cli.GetInt("k", 16));
  const double daily_pct = cli.GetDouble("daily-edges-pct", 2.0);
  const int watermark = static_cast<int>(cli.GetInt("watermark", 256));

  // Day 0: the social network as it exists today.
  auto social = WattsStrogatz(10000, 8, 0.3, 7);
  SPINNER_CHECK_OK(social.status());

  SpinnerConfig config;
  config.num_partitions = k;
  PartitioningSession session(config);
  SPINNER_CHECK_OK(session.Open(social->num_vertices, social->edges,
                                social->directed));
  std::printf("day 0: |V|=%lld |E|=%lld phi=%.3f rho=%.3f (%d iterations "
              "from scratch)\n",
              static_cast<long long>(session.num_vertices()),
              static_cast<long long>(session.num_edges()),
              session.last_result().metrics.phi,
              session.last_result().metrics.rho,
              session.last_result().iterations);

  stream::IngestionOptions options;
  options.policy = std::make_unique<stream::EventCountPolicy>(watermark);
  options.queue_capacity = 1024;
  IngestionService service(&session, std::move(options));
  SPINNER_CHECK_OK(service.Start());

  for (int day = 1; day <= days; ++day) {
    // Today's churn, as individual events: new friendships (daily_pct% of
    // the current edge count, some submitted twice — clients retry), 200
    // new users who befriend existing ones, and a few friendships that
    // form and dissolve within the day (the service coalesces both the
    // retries and the transients away before they reach the partitioner).
    const int64_t n = session.num_vertices();
    const GraphDelta fresh = RandomEdgeAdditions(
        n, session.edges(),
        static_cast<int64_t>(
            static_cast<double>(session.num_edges()) * daily_pct / 100.0),
        1000 + static_cast<uint64_t>(day));
    const std::vector<PartitionId> before = session.assignment();

    std::thread producer([&service, &fresh, n, day] {
      for (size_t i = 0; i < fresh.added_edges.size(); ++i) {
        const Edge& e = fresh.added_edges[i];
        SPINNER_CHECK_OK(service.Submit(EdgeEvent::AddEdge(e.src, e.dst)));
        if (i % 50 == 0) {  // client retry: a duplicate submission
          SPINNER_CHECK_OK(service.Submit(EdgeEvent::AddEdge(e.src, e.dst)));
        }
        if (i % 97 == 0) {  // friendship that comes and goes within a day
          SPINNER_CHECK_OK(service.Submit(EdgeEvent::AddEdge(e.dst, e.src)));
          SPINNER_CHECK_OK(
              service.Submit(EdgeEvent::RemoveEdge(e.dst, e.src)));
        }
      }
      SPINNER_CHECK_OK(service.Submit(EdgeEvent::AddVertices(200)));
      for (int64_t i = 0; i < 200; ++i) {
        SPINNER_CHECK_OK(service.Submit(
            EdgeEvent::AddEdge(n + i, (i * 37 + day * 811) % n)));
      }
    });
    producer.join();

    // Day boundary: drain the stream so every submitted event is applied,
    // then inspect the quiescent session.
    SPINNER_CHECK_OK(service.Drain());
    const stream::IngestStats stats = service.stats();

    const std::span<const PartitionId> new_span(session.assignment().data(),
                                                before.size());
    auto moved = PartitioningDifference(before, new_span);
    SPINNER_CHECK_OK(moved.status());

    std::printf(
        "day %d: |V|=%lld |E|=%lld phi=%.3f rho=%.3f | %lld windows, "
        "%lld events (%lld coalesced away), max staleness %.1f ms, "
        "%.1f%% of existing vertices moved\n",
        day, static_cast<long long>(session.num_vertices()),
        static_cast<long long>(session.num_edges()), stats.last_phi,
        stats.last_rho,
        static_cast<long long>(stats.windows_applied),
        static_cast<long long>(stats.events_ingested),
        static_cast<long long>(stats.events_coalesced),
        static_cast<double>(stats.max_staleness_micros) / 1000.0,
        100.0 * *moved);
  }
  SPINNER_CHECK_OK(service.Stop());

  const stream::IngestStats final_stats = service.stats();
  std::printf(
      "\nstream totals: %lld events in %lld windows, queue high-water "
      "%lld, mean apply %.1f ms\n",
      static_cast<long long>(final_stats.events_ingested),
      static_cast<long long>(final_stats.windows_applied),
      static_cast<long long>(final_stats.queue_high_water),
      final_stats.windows_applied > 0
          ? static_cast<double>(final_stats.total_apply_micros) / 1000.0 /
                static_cast<double>(final_stats.windows_applied)
          : 0.0);
  std::printf("adaptation kept locality near the from-scratch level while "
              "moving only a small fraction of vertices each day.\n");
  return 0;
}
