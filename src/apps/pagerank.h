// PageRank as a Pregel program — the PR workload of paper §V.F, plus a
// sequential reference implementation used by tests.
#ifndef SPINNER_APPS_PAGERANK_H_
#define SPINNER_APPS_PAGERANK_H_

#include <vector>

#include "pregel/engine.h"

namespace spinner::apps {

/// Vertex state: current rank.
struct PageRankVertex {
  double rank = 0.0;
};

/// Engine instantiation: double messages (rank shares).
using PageRankEngine = pregel::PregelEngine<PageRankVertex, double>;
using PageRankHandle = pregel::VertexHandle<PageRankVertex, double>;

/// Synchronous PageRank with damping 0.85, run for a fixed number of
/// iterations (the paper runs 20 supersteps). Dangling mass is
/// redistributed uniformly via an aggregator, keeping Σ rank = |V|.
/// Uses a sum combiner, as any production Pregel deployment would.
class PageRankProgram : public pregel::VertexProgram<PageRankVertex, double> {
 public:
  explicit PageRankProgram(int num_iterations, double damping = 0.85)
      : num_iterations_(num_iterations), damping_(damping) {}

  void RegisterAggregators(pregel::AggregatorRegistry* registry) override;
  void Compute(PageRankHandle& vertex,
               std::span<const double> messages) override;
  bool HasCombiner() const override { return true; }
  void Combine(double* accumulator, const double& incoming) const override {
    *accumulator += incoming;
  }
  bool MasterCompute(pregel::MasterContext& ctx) override;

  static constexpr const char* kDanglingAgg = "pagerank.dangling";

 private:
  int num_iterations_;
  double damping_;
};

/// Sequential reference PageRank over a CSR graph (same iteration count and
/// dangling handling); tests compare the engine result against this.
std::vector<double> PageRankReference(const CsrGraph& graph,
                                      int num_iterations,
                                      double damping = 0.85);

}  // namespace spinner::apps

#endif  // SPINNER_APPS_PAGERANK_H_
