// PregelEngine: a from-scratch, multi-threaded implementation of the Pregel
// BSP model (Malewicz et al.), sized to what §V.F of the paper runs on it:
// PageRank, shortest paths and connected components under hash placement
// and under Spinner's placement (fig9, Table IV).
//
// Implemented primitives:
//  * synchronous supersteps — messages sent in superstep S are delivered at
//    the start of superstep S+1, never earlier;
//  * vote-to-halt with message reactivation;
//  * combiners (associative message reduction applied on ingest);
//  * aggregators with sharded-style per-worker partials (aggregators.h);
//  * pluggable vertex→worker placement, so computed partitionings can drive
//    data placement exactly as §V.F does in Giraph.
//
// Workers are sequential units executed on a thread pool: vertex order
// within a worker is fixed (ascending id), aggregator merges happen in
// worker order, and all randomness used by programs is hash-derived — so a
// run is bit-deterministic for any thread count.
#ifndef SPINNER_PREGEL_ENGINE_H_
#define SPINNER_PREGEL_ENGINE_H_

#include <algorithm>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/threadpool.h"
#include "common/timer.h"
#include "graph/csr_graph.h"
#include "graph/types.h"
#include "pregel/aggregators.h"
#include "pregel/stats.h"
#include "pregel/topology.h"

namespace spinner::pregel {

/// Engine construction knobs.
struct EngineConfig {
  /// Number of logical workers (the unit of placement and of sequential
  /// execution). In a cluster deployment this would be machine count.
  int num_workers = 4;
  /// Hard superstep cap; Run stops with a warning when exceeded.
  int64_t max_supersteps = 1000000;
};

template <typename V, typename M>
class PregelEngine;

/// View given to MasterCompute after every superstep barrier.
class MasterContext {
 public:
  explicit MasterContext(int64_t superstep) : superstep_(superstep) {}

  /// Index of the superstep that just finished (0-based).
  int64_t superstep() const { return superstep_; }

 private:
  int64_t superstep_;
};

/// The per-vertex API visible inside Compute(). Thin view over worker
/// storage; cheap to construct per call.
template <typename V, typename M>
class VertexHandle {
 public:
  /// This vertex's global id.
  VertexId id() const { return id_; }
  /// Current superstep (0-based).
  int64_t superstep() const { return superstep_; }
  /// Total vertices in the graph (constant over the run).
  int64_t total_num_vertices() const { return engine_->num_vertices_; }

  /// Mutable vertex state.
  V& value() { return *value_; }
  const V& value() const { return *value_; }

  /// This vertex's out-neighbours, in the CSR order of the engine's graph.
  std::span<const VertexId> edges() const { return edges_; }

  /// Sends `msg` to `target`, delivered at the start of the next superstep.
  void SendMessage(VertexId target, const M& msg) {
    engine_->EnqueueMessage(worker_, target, msg);
  }

  /// Sends `msg` along every out-edge.
  void SendMessageToAllEdges(const M& msg) {
    for (const VertexId target : edges_) SendMessage(target, msg);
  }

  /// Deactivates this vertex until a message arrives for it.
  void VoteToHalt() { *halted_ = 1; }

  /// Merged value from the previous superstep (read-only by convention).
  template <typename T>
  const T* Aggregated(const std::string& name) const {
    return engine_->aggregators_.template Get<T>(name);
  }
  /// This worker's writable partial for the current superstep.
  template <typename T>
  T* AggregatePartial(const std::string& name) {
    return engine_->aggregators_.template Partial<T>(name, worker_);
  }

 private:
  friend class PregelEngine<V, M>;

  VertexHandle(PregelEngine<V, M>* engine, WorkerId worker, int64_t superstep,
               VertexId id, V* value, uint8_t* halted)
      : engine_(engine),
        worker_(worker),
        superstep_(superstep),
        id_(id),
        value_(value),
        edges_(engine->graph_.Neighbors(id)),
        halted_(halted) {}

  PregelEngine<V, M>* engine_;
  WorkerId worker_;
  int64_t superstep_;
  VertexId id_;
  V* value_;
  std::span<const VertexId> edges_;
  uint8_t* halted_;
};

/// A vertex-centric program: the user-facing abstraction of the Pregel
/// model. Subclass and override Compute(); optionally register aggregators,
/// combine messages, and steer the run from MasterCompute.
template <typename V, typename M>
class VertexProgram {
 public:
  virtual ~VertexProgram() = default;

  /// Called once before superstep 0; register aggregators here.
  virtual void RegisterAggregators(AggregatorRegistry* /*registry*/) {}

  /// The vertex kernel.
  virtual void Compute(VertexHandle<V, M>& vertex,
                       std::span<const M> messages) = 0;

  /// Message combiner. When HasCombiner() is true, each vertex's inbox
  /// holds a single combined message maintained via Combine().
  virtual bool HasCombiner() const { return false; }
  virtual void Combine(M* /*accumulator*/, const M& /*incoming*/) const {}

  /// Runs after every superstep barrier. Return false to terminate the
  /// computation.
  virtual bool MasterCompute(MasterContext& /*ctx*/) { return true; }
};

/// The BSP engine. One Run() per instance.
template <typename V, typename M>
class PregelEngine {
 public:
  using Handle = VertexHandle<V, M>;
  using Program = VertexProgram<V, M>;

  /// Distributes `graph` across workers. `placement` maps vertex → worker
  /// (must return values in [0, num_workers)); `init_vertex` produces the
  /// initial vertex values. The engine reads out-edges from `graph` for
  /// its whole lifetime, so `graph` must outlive it.
  PregelEngine(const CsrGraph& graph, EngineConfig config,
               Placement placement, std::function<V(VertexId)> init_vertex)
      : config_(config), graph_(graph), num_vertices_(graph.NumVertices()) {
    SPINNER_CHECK(config_.num_workers >= 1);
    const int W = config_.num_workers;
    // One OS thread per worker, up to the hardware's.
    pool_ = std::make_unique<ThreadPool>(
        std::min<int>(W, std::max(1u, std::thread::hardware_concurrency())));

    owner_.resize(num_vertices_);
    local_index_.resize(num_vertices_);
    workers_.resize(W);
    for (VertexId v = 0; v < num_vertices_; ++v) {
      const WorkerId w = placement(v);
      SPINNER_CHECK(w >= 0 && w < W)
          << "placement(" << v << ") = " << w << " outside [0," << W << ")";
      owner_[v] = w;
      local_index_[v] = static_cast<int64_t>(workers_[w].ids.size());
      workers_[w].ids.push_back(v);
    }
    for (WorkerState& ws : workers_) {
      const size_t n_local = ws.ids.size();
      ws.values.reserve(n_local);
      ws.halted.assign(n_local, 0);
      ws.inbox_cur.resize(n_local);
      ws.inbox_nxt.resize(n_local);
      ws.outbox.resize(W);
      for (const VertexId v : ws.ids) ws.values.push_back(init_vertex(v));
    }
  }

  /// Executes `program` until all vertices halt with no messages in flight,
  /// the program's MasterCompute returns false, or max_supersteps is hit.
  RunStats Run(Program& program) {
    SPINNER_CHECK(!ran_) << "PregelEngine::Run called twice";
    ran_ = true;
    const int W = config_.num_workers;

    aggregators_ = AggregatorRegistry();
    program.RegisterAggregators(&aggregators_);
    aggregators_.CreatePartials(W);

    RunStats run_stats;
    WallTimer total_timer;
    bool halt_requested = false;

    for (int64_t step = 0; step < config_.max_supersteps; ++step) {
      WallTimer step_timer;
      SuperstepStats ss;
      ss.superstep = step;
      ss.worker_messages_in.assign(W, 0);
      ss.worker_remote_messages_in.assign(W, 0);
      ss.worker_vertices_computed.assign(W, 0);
      ss.worker_edges_scanned.assign(W, 0);
      ss.worker_messages_out.assign(W, 0);

      // --- Compute phase: each worker runs sequentially, workers in
      // parallel. ---
      for (WorkerId w = 0; w < W; ++w) {
        pool_->Submit([this, &program, w, step] {
          RunWorkerSuperstep(&program, w, step);
        });
      }
      pool_->Wait();

      // --- Barrier: collect stats, deliver messages, merge aggregators. ---
      int64_t messages_sent = 0;
      int64_t active = 0;
      for (WorkerId w = 0; w < W; ++w) {
        WorkerState& ws = workers_[w];
        ss.worker_vertices_computed[w] = ws.vertices_computed;
        ss.worker_edges_scanned[w] = ws.edges_scanned;
        ss.worker_messages_out[w] = ws.msgs_out;
        ss.messages_local += ws.msgs_local;
        messages_sent += ws.msgs_out;
        active += ws.vertices_computed;
      }
      ss.active_vertices = active;
      ss.messages_sent = messages_sent;
      ss.messages_remote = messages_sent - ss.messages_local;

      DeliverMessages(&program, &ss);
      aggregators_.MergePartials();

      ss.wall_seconds = step_timer.ElapsedSeconds();
      run_stats.per_superstep.push_back(ss);
      ++run_stats.supersteps;

      MasterContext mc(step);
      if (!program.MasterCompute(mc)) {
        halt_requested = true;
        break;
      }

      // Natural termination: nothing to deliver and nobody active.
      if (messages_sent == 0 && AllHalted()) break;
    }

    if (!halt_requested && run_stats.supersteps == config_.max_supersteps) {
      SPINNER_LOG(Warning) << "PregelEngine hit max_supersteps="
                           << config_.max_supersteps;
    }
    run_stats.total_wall_seconds = total_timer.ElapsedSeconds();
    return run_stats;
  }

  /// Final (or current) value of vertex v.
  const V& Value(VertexId v) const {
    const WorkerState& ws = workers_[owner_[v]];
    return ws.values[local_index_[v]];
  }

  /// Iterates fn(vertex_id, value) over all vertices in id order.
  void ForEachVertex(
      const std::function<void(VertexId, const V&)>& fn) const {
    for (VertexId v = 0; v < num_vertices_; ++v) fn(v, Value(v));
  }

 private:
  friend class VertexHandle<V, M>;

  struct WorkerState {
    std::vector<VertexId> ids;  // local index -> global id, ascending
    std::vector<V> values;
    std::vector<uint8_t> halted;
    std::vector<std::vector<M>> inbox_cur;  // read by Compute this superstep
    std::vector<std::vector<M>> inbox_nxt;  // filled at the barrier
    std::vector<std::vector<std::pair<VertexId, M>>> outbox;  // by dst worker
    // Per-superstep counters (reset at superstep start).
    int64_t msgs_out = 0;
    int64_t msgs_local = 0;
    int64_t vertices_computed = 0;
    int64_t edges_scanned = 0;
  };

  void EnqueueMessage(WorkerId from_worker, VertexId target, const M& msg) {
    SPINNER_DCHECK(target >= 0 && target < num_vertices_);
    WorkerState& ws = workers_[from_worker];
    const WorkerId dst = owner_[target];
    ws.outbox[dst].emplace_back(target, msg);
    ++ws.msgs_out;
    if (dst == from_worker) ++ws.msgs_local;
  }

  void RunWorkerSuperstep(Program* program, WorkerId w, int64_t step) {
    WorkerState& ws = workers_[w];
    ws.msgs_out = 0;
    ws.msgs_local = 0;
    ws.vertices_computed = 0;
    ws.edges_scanned = 0;

    const size_t n_local = ws.ids.size();
    for (size_t i = 0; i < n_local; ++i) {
      const bool has_msg = !ws.inbox_cur[i].empty();
      if (ws.halted[i] && !has_msg) continue;
      ws.halted[i] = 0;
      Handle handle(this, w, step, ws.ids[i], &ws.values[i], &ws.halted[i]);
      program->Compute(handle,
                       std::span<const M>(ws.inbox_cur[i].data(),
                                          ws.inbox_cur[i].size()));
      ++ws.vertices_computed;
      ws.edges_scanned += static_cast<int64_t>(handle.edges().size());
    }
  }

  void DeliverMessages(Program* program, SuperstepStats* ss) {
    const int W = config_.num_workers;
    const bool combine = program->HasCombiner();
    // Each destination worker ingests from all source outboxes in source
    // order: deterministic and contention-free (distinct destinations).
    for (WorkerId d = 0; d < W; ++d) {
      pool_->Submit([this, program, combine, d, W, ss] {
        WorkerState& dst = workers_[d];
        // Consumed inboxes become next superstep's buffers: clear first.
        for (auto& box : dst.inbox_cur) box.clear();
        int64_t received = 0;
        int64_t remote = 0;
        for (WorkerId s = 0; s < W; ++s) {
          for (const auto& [target, msg] : workers_[s].outbox[d]) {
            auto& box = dst.inbox_nxt[local_index_[target]];
            if (combine && !box.empty()) {
              program->Combine(&box[0], msg);
            } else {
              box.push_back(msg);
            }
            ++received;
            if (s != d) ++remote;
          }
        }
        ss->worker_messages_in[d] = received;
        ss->worker_remote_messages_in[d] = remote;
      });
    }
    pool_->Wait();
    for (WorkerId w = 0; w < W; ++w) {
      WorkerState& ws = workers_[w];
      std::swap(ws.inbox_cur, ws.inbox_nxt);
      for (auto& bucket : ws.outbox) bucket.clear();
    }
  }

  bool AllHalted() const {
    for (const WorkerState& ws : workers_) {
      for (size_t i = 0; i < ws.ids.size(); ++i) {
        if (!ws.halted[i] || !ws.inbox_cur[i].empty()) return false;
      }
    }
    return true;
  }

  EngineConfig config_;
  const CsrGraph& graph_;
  int64_t num_vertices_;
  std::unique_ptr<ThreadPool> pool_;
  std::vector<WorkerId> owner_;
  std::vector<int64_t> local_index_;
  std::vector<WorkerState> workers_;
  AggregatorRegistry aggregators_;
  bool ran_ = false;
};

}  // namespace spinner::pregel

#endif  // SPINNER_PREGEL_ENGINE_H_
