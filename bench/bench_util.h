// Shared helpers for the reproduction benches: topology-matched stand-ins
// for the paper's proprietary/huge datasets (Table II), scaled to
// workstation size, plus small table-printing utilities.
//
// Stand-in rationale (DESIGN.md §2): the evaluation's shapes depend on
// topology class — hubs (Twitter), small-world social graphs (LiveJournal,
// Tuenti, Friendster), skewed web-like graphs (Google+, Yahoo!) — not on
// the exact datasets. Every bench prints the stand-in's stats next to its
// results so the mapping stays explicit.
#ifndef SPINNER_BENCH_BENCH_UTIL_H_
#define SPINNER_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/logging.h"
#include "common/random.h"
#include "graph/conversion.h"
#include "graph/generators.h"
#include "graph/stats.h"

namespace spinner::bench {

/// CI smoke mode: strips a `--smoke` flag from argv (also honored via the
/// SPINNER_BENCH_SMOKE environment variable) and returns whether it was
/// requested. Benches use it to shrink graph sizes and sweep ranges so the
/// bench-smoke CI job *executes* them in seconds instead of minutes; the
/// numbers it prints are meaningless as measurements.
inline bool ConsumeSmokeFlag(int* argc, char** argv) {
  bool smoke = std::getenv("SPINNER_BENCH_SMOKE") != nullptr;
  int out = 1;
  for (int i = 1; i < *argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      argv[out++] = argv[i];
    }
  }
  *argc = out;
  return smoke;
}

/// A named stand-in dataset.
struct StandIn {
  std::string name;        // paper dataset it stands in for
  std::string description; // generator recipe
  GeneratedGraph graph;
};

/// Builds the stand-in for a paper dataset key: "LJ", "G+", "TU", "TW",
/// "FR", "Y!". CHECK-fails on unknown keys.
inline StandIn MakeStandIn(const std::string& key, uint64_t seed = 42) {
  if (key == "LJ") {
    // LiveJournal: directed social graph, communities + moderate degree.
    auto g = WattsStrogatz(20000, 8, 0.3, seed);
    SPINNER_CHECK(g.ok());
    return {"LJ", "WattsStrogatz(n=20k, deg=16, beta=0.3)",
            std::move(g).value()};
  }
  if (key == "G+") {
    // Google+: directed, skewed follower graph.
    auto g = RMat(14, 6, 0.55, 0.2, 0.15, seed);
    SPINNER_CHECK(g.ok());
    return {"G+", "RMat(scale=14, ef=6, a=.55 b=.2 c=.15) directed",
            std::move(g).value()};
  }
  if (key == "TU") {
    // Tuenti: undirected friendship graph, strong clustering.
    auto g = WattsStrogatz(24000, 10, 0.2, seed);
    SPINNER_CHECK(g.ok());
    return {"TU", "WattsStrogatz(n=24k, deg=20, beta=0.2)",
            std::move(g).value()};
  }
  if (key == "TW") {
    // Twitter: hub-dominated power-law graph ("denser and harder").
    auto g = BarabasiAlbert(24000, 8, 8, seed);
    SPINNER_CHECK(g.ok());
    return {"TW", "BarabasiAlbert(n=24k, m=8) power-law hubs",
            std::move(g).value()};
  }
  if (key == "TW+hubs") {
    // Twitter with a celebrity overlay, used by the load-balance
    // experiment (Table IV): real Twitter's top accounts carry a load
    // comparable to half a worker's share (degree ~3M vs ~6M arcs/worker
    // in the paper's 256-worker setup), which is exactly what makes
    // random placement unbalanced (paper Fig. 4a starts at rho = 1.67).
    // Quality benches use the plain "TW": a single celebrity exceeding a
    // partition's ideal load makes rho <= c unattainable at large k (the
    // vertex is atomic), which is a granularity artifact of the scaled-
    // down graph, not an algorithmic effect.
    auto g = BarabasiAlbert(24000, 8, 8, seed);
    SPINNER_CHECK(g.ok());
    Rng rng(SplitMix64(seed ^ 0xCE1EBULL));
    for (VertexId hub = 0; hub < 8; ++hub) {
      for (int i = 0; i < 6000; ++i) {
        const auto follower =
            static_cast<VertexId>(rng.Uniform(g->num_vertices));
        if (follower != hub) g->edges.push_back({follower, hub});
      }
    }
    return {"TW+hubs",
            "BarabasiAlbert(n=24k, m=8) + 8 celebrity hubs (~6k followers "
            "each)",
            std::move(g).value()};
  }
  if (key == "FR") {
    // Friendster: large social graph, weaker locality.
    auto g = WattsStrogatz(30000, 8, 0.45, seed);
    SPINNER_CHECK(g.ok());
    return {"FR", "WattsStrogatz(n=30k, deg=16, beta=0.45)",
            std::move(g).value()};
  }
  if (key == "Y!") {
    // Yahoo! web graph: very high intrinsic locality.
    auto g = WattsStrogatz(40000, 6, 0.05, seed);
    SPINNER_CHECK(g.ok());
    return {"Y!", "WattsStrogatz(n=40k, deg=12, beta=0.05)",
            std::move(g).value()};
  }
  SPINNER_CHECK(false) << "unknown stand-in key: " << key;
  return {};
}

/// Converts a stand-in to the weighted symmetric form Spinner consumes.
inline CsrGraph Convert(const GeneratedGraph& g) {
  auto converted =
      g.directed ? ConvertToWeightedUndirected(g.num_vertices, g.edges)
                 : BuildSymmetric(g.num_vertices, g.edges);
  SPINNER_CHECK(converted.ok());
  return std::move(converted).value();
}

/// Prints the bench banner: what paper artifact this reproduces and which
/// stand-ins it runs on.
inline void PrintBanner(const char* artifact, const char* expectation) {
  std::printf("==============================================================================\n");
  std::printf("%s\n", artifact);
  std::printf("Paper expectation: %s\n", expectation);
  std::printf("==============================================================================\n");
}

/// `graph` is a CsrGraph or a ShardedGraphStore (ComputeGraphStats reads
/// either).
template <typename Graph>
void PrintStandIn(const StandIn& s, const Graph& graph) {
  std::printf("dataset %-3s <- %s\n        %s\n", s.name.c_str(),
              s.description.c_str(),
              ToString(ComputeGraphStats(graph)).c_str());
}

}  // namespace spinner::bench

#endif  // SPINNER_BENCH_BENCH_UTIL_H_
