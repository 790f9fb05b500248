// Single-source shortest paths via BFS-style relaxation — the SP workload
// of paper §V.F ("Shortest Paths, computed through BFS").
#ifndef SPINNER_APPS_SSSP_H_
#define SPINNER_APPS_SSSP_H_

#include <cstdint>
#include <vector>

#include "pregel/engine.h"

namespace spinner::apps {

/// Distance value; unreached vertices keep kInfDistance.
inline constexpr int64_t kInfDistance = INT64_MAX;

struct SsspVertex {
  int64_t distance = kInfDistance;
};

using SsspEngine = pregel::PregelEngine<SsspVertex, int64_t>;
using SsspHandle = pregel::VertexHandle<SsspVertex, int64_t>;

/// Classic Pregel SSSP: the source starts at 0; vertices propagate improved
/// distances and vote to halt, so only the frontier is active — the
/// message pattern whose locality §V.F measures. Unit edge weights (BFS).
/// Uses a min combiner.
class SsspProgram : public pregel::VertexProgram<SsspVertex, int64_t> {
 public:
  explicit SsspProgram(VertexId source) : source_(source) {}

  void Compute(SsspHandle& vertex,
               std::span<const int64_t> messages) override;
  bool HasCombiner() const override { return true; }
  void Combine(int64_t* accumulator, const int64_t& incoming) const override {
    *accumulator = std::min(*accumulator, incoming);
  }

 private:
  VertexId source_;
};

/// Sequential BFS reference for tests.
std::vector<int64_t> BfsReference(const CsrGraph& graph, VertexId source);

}  // namespace spinner::apps

#endif  // SPINNER_APPS_SSSP_H_
