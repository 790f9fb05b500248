// Golden digests of the streaming baselines (LDG, Fennel, restreaming LDG):
// every output over a grid of graphs × k × stream seed × balance mode is
// folded into one FNV-1a digest per (partitioner, graph) and pinned, so a
// refactor of the shared streaming pass must keep every label bit-identical.
// The grid includes the empty graph, an isolated-only graph (in edge mode its
// total weight is 0, so LDG's score and Fennel's rescaled load divide 0 by 0),
// a star (one hub above every capacity) and a weighted conversion.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "baselines/fennel_partitioner.h"
#include "baselines/ldg_partitioner.h"
#include "baselines/restreaming_partitioner.h"
#include "common/fnv.h"
#include "graph/conversion.h"
#include "graph/generators.h"

namespace spinner {
namespace {

struct NamedGraph {
  std::string name;
  CsrGraph graph;
};

CsrGraph Symmetric(const Result<GeneratedGraph>& generated) {
  SPINNER_CHECK(generated.ok());
  auto g = BuildSymmetric(generated->num_vertices, generated->edges);
  SPINNER_CHECK(g.ok());
  return std::move(g).value();
}

std::vector<NamedGraph> Graphs() {
  std::vector<NamedGraph> graphs;
  graphs.push_back({"empty", Symmetric(GeneratedGraph{})});
  graphs.push_back({"isolated", Symmetric(GeneratedGraph{7, {}, false})});
  graphs.push_back({"star", Symmetric(Star(24))});
  graphs.push_back({"path", Symmetric(Path(17))});
  graphs.push_back({"grid", Symmetric(Grid(6, 7))});
  graphs.push_back({"complete", Symmetric(Complete(9))});
  graphs.push_back(
      {"planted", Symmetric(PlantedPartition(4, 30, 0.3, 0.02, 5))});
  graphs.push_back({"ba", Symmetric(BarabasiAlbert(200, 3, 3, 17))});
  // Directed R-MAT through the Eq. 3 conversion: arcs of weight 1 and 2.
  auto rmat = RMat(7, 4, 0.57, 0.19, 0.19, 23);
  SPINNER_CHECK(rmat.ok());
  auto weighted = ConvertToWeightedUndirected(rmat->num_vertices, rmat->edges);
  SPINNER_CHECK(weighted.ok());
  graphs.push_back({"rmat_weighted", std::move(weighted).value()});
  return graphs;
}

uint64_t FoldBytes(uint64_t h, const void* data, size_t size) {
  return ChecksumFold(
      h, std::span<const uint8_t>(static_cast<const uint8_t*>(data), size));
}

/// Runs one partitioner variant: (graph, k, stream seed, edge mode) -> labels.
using Variant = std::function<Result<std::vector<PartitionId>>(
    const CsrGraph&, int, uint64_t, bool)>;

/// Folds every grid output of `variant` on `g` into one digest.
uint64_t GridDigest(const Variant& variant, const CsrGraph& g) {
  uint64_t h = kFnvOffsetBasis;
  for (int k : {1, 2, 3, 8, 31}) {
    for (uint64_t seed : {uint64_t{0}, uint64_t{9}}) {
      for (bool on_edges : {false, true}) {
        auto labels = variant(g, k, seed, on_edges);
        EXPECT_TRUE(labels.ok()) << labels.status().ToString();
        if (!labels.ok()) continue;
        const uint64_t size = labels->size();
        h = FoldBytes(h, &size, sizeof size);
        h = FoldBytes(h, labels->data(), size * sizeof(PartitionId));
      }
    }
  }
  return h;
}

std::vector<std::pair<std::string, Variant>> Variants() {
  std::vector<std::pair<std::string, Variant>> variants;
  variants.emplace_back("ldg", [](const CsrGraph& g, int k, uint64_t seed,
                                  bool on_edges) {
    return LdgPartitioner(seed, on_edges).Partition(g, k);
  });
  variants.emplace_back("fennel_1.5_1.1", [](const CsrGraph& g, int k,
                                             uint64_t seed, bool on_edges) {
    return FennelPartitioner(1.5, 1.1, seed, on_edges).Partition(g, k);
  });
  variants.emplace_back("fennel_2.5_1.02", [](const CsrGraph& g, int k,
                                              uint64_t seed, bool on_edges) {
    return FennelPartitioner(2.5, 1.02, seed, on_edges).Partition(g, k);
  });
  variants.emplace_back("restream", [](const CsrGraph& g, int k,
                                       uint64_t seed, bool on_edges) {
    return RestreamingPartitioner(10, seed, on_edges).Partition(g, k);
  });
  // Restream from a previous assignment over the first half of the
  // vertices; the rest are placed greedily on the first pass.
  variants.emplace_back("repartition", [](const CsrGraph& g, int k,
                                          uint64_t seed, bool on_edges) {
    std::vector<PartitionId> previous(g.NumVertices() / 2);
    for (size_t v = 0; v < previous.size(); ++v) {
      previous[v] = static_cast<PartitionId>(v % k);
    }
    return RestreamingPartitioner(10, seed, on_edges)
        .Repartition(g, k, previous);
  });
  return variants;
}

struct Golden {
  const char* graph;
  // In Variants() order.
  uint64_t digests[5];
};

// Recorded before the three baselines were folded onto one streaming pass.
constexpr Golden kGolden[] = {
    {"empty",
     {0x81b169c331cabfa5ull, 0x81b169c331cabfa5ull, 0x81b169c331cabfa5ull,
      0x81b169c331cabfa5ull, 0x81b169c331cabfa5ull}},
    {"isolated",
     {0x3f568ffe313edd85ull, 0x3f568ffe313edd85ull, 0x3f568ffe313edd85ull,
      0x3f568ffe313edd85ull, 0x366c8fbf77e491b5ull}},
    {"star",
     {0x7ada72a31c9d39f4ull, 0x51e59ebd97683867ull, 0xa07e1c72383b2f17ull,
      0xe7afa95a3c9e3827ull, 0x50ac94af92adab95ull}},
    {"path",
     {0xf4b34b0bbc4ea9b5ull, 0x9af33f1d29bd7505ull, 0x70179bba91f53234ull,
      0x03fc1ff1fe110044ull, 0x6077b97820d02c15ull}},
    {"grid",
     {0x6eed8ab4800c68f6ull, 0xda93bf0488c9bf92ull, 0xaca9190c256f6359ull,
      0x9a60d32e741215d6ull, 0xc46e420b69a7e1c9ull}},
    {"complete",
     {0x17e572adeb742065ull, 0x3da70d53b82968e5ull, 0x2ce45da6899ea1a5ull,
      0x17e572adeb742065ull, 0x661b666332d438c6ull}},
    {"planted",
     {0xabd9ee277000f335ull, 0x71ba7eea540c27d0ull, 0xf41c097741561460ull,
      0xec17c6ee5e5594e0ull, 0x82a1c3974286f4a9ull}},
    {"ba",
     {0x20b896259b7d598dull, 0x49ab511a9e38e26cull, 0xa8c2f02f67c40de9ull,
      0x435cc8a323fa1a8cull, 0x2b11129f4e39170bull}},
    {"rmat_weighted",
     {0xb76f113b237aea34ull, 0xc5ec5f0988484a5aull, 0x6e4d38dd28a58eaeull,
      0x55bef4d45dc948a8ull, 0x00b8e159812f170aull}},
};

TEST(StreamingBaselinesTest, OutputsMatchGoldenDigests) {
  const std::vector<NamedGraph> graphs = Graphs();
  const auto variants = Variants();
  ASSERT_EQ(graphs.size(), std::size(kGolden));
  for (size_t gi = 0; gi < graphs.size(); ++gi) {
    ASSERT_EQ(graphs[gi].name, kGolden[gi].graph);
    for (size_t vi = 0; vi < variants.size(); ++vi) {
      const uint64_t digest = GridDigest(variants[vi].second,
                                         graphs[gi].graph);
      char hex[24];
      std::snprintf(hex, sizeof hex, "0x%016" PRIx64, digest);
      EXPECT_EQ(digest, kGolden[gi].digests[vi])
          << variants[vi].first << " on " << graphs[gi].name << ": " << hex;
    }
  }
}

}  // namespace
}  // namespace spinner
