// Weakly connected components by min-label propagation — the CC workload of
// paper §V.F ("a general approach to finding communities").
#ifndef SPINNER_APPS_WCC_H_
#define SPINNER_APPS_WCC_H_

#include <vector>

#include "pregel/engine.h"

namespace spinner::apps {

struct WccVertex {
  VertexId component = 0;
};

using WccEngine = pregel::PregelEngine<WccVertex, VertexId>;
using WccHandle = pregel::VertexHandle<WccVertex, VertexId>;

/// HashMin WCC: every vertex starts as its own component id and propagates
/// the minimum id it has seen; converges in O(diameter) supersteps.
/// Requires a symmetric graph (weak connectivity). Uses a min combiner.
class WccProgram : public pregel::VertexProgram<WccVertex, VertexId> {
 public:
  void Compute(WccHandle& vertex, std::span<const VertexId> messages) override;
  bool HasCombiner() const override { return true; }
  void Combine(VertexId* accumulator, const VertexId& incoming) const override {
    *accumulator = std::min(*accumulator, incoming);
  }
};

/// Union-find reference for tests.
std::vector<VertexId> WccReference(const CsrGraph& graph);

}  // namespace spinner::apps

#endif  // SPINNER_APPS_WCC_H_
