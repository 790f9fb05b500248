#include "dist/coordinator.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <functional>
#include <limits>
#include <thread>
#include <utility>

#include "common/logging.h"
#include "common/parallel.h"
#include "common/string_util.h"
#include "dist/fault_injection.h"
#include "dist/shard_store.h"
#include "graph/binary_io.h"
#include "spinner/superstep_driver.h"

namespace spinner::dist {

int ResolveNumWorkers(int requested, int num_shards) {
  if (requested > 0) return requested;
  return std::max(1, std::min(num_shards, HardwareThreads()));
}

MultiProcessOptions MultiProcessOptionsFor(
    const ExecutionOptions& execution) {
  MultiProcessOptions mp;
  mp.num_workers = execution.num_workers;
  mp.transport = TransportOptions::Resolve(execution.wire_max_payload);
  mp.worker_store_dir = execution.worker_store_dir;
  mp.rpc_timeout_ms = execution.rpc_timeout_ms;
  mp.heartbeat_period_ms = execution.heartbeat_period_ms;
  mp.max_recovery_attempts = execution.max_recovery_attempts;
  return mp;
}

namespace {

/// One multi-process run: owns the worker endpoints it acquires and
/// implements SuperstepBackend by turning each phase into one lockstep
/// RPC round. The coordinator-side store is kept authoritative after
/// every round (labels via slices/deltas, loads via the replies' vectors),
/// so the driver's MergedLoads and history computations are untouched.
/// Not thread-safe.
class MultiProcessBackend final : public SuperstepBackend {
 public:
  MultiProcessBackend(const SpinnerConfig& config, ShardedGraphStore* store,
                      const MultiProcessOptions& options)
      : config_(config), store_(store), options_(options) {}

  ~MultiProcessBackend() override { ForceKill(); }

  MultiProcessBackend(const MultiProcessBackend&) = delete;
  MultiProcessBackend& operator=(const MultiProcessBackend&) = delete;

  /// Acquires `num_workers` endpoints from the transport and runs the
  /// fleet handshake over them (AssignFleet).
  Status Spawn(int num_workers) {
    if (options_.rpc_timeout_ms <= 0 || options_.heartbeat_period_ms <= 0) {
      return Status::InvalidArgument(StrFormat(
          "rpc_timeout_ms/heartbeat_period_ms must be > 0 (got %lld/%lld)",
          static_cast<long long>(options_.rpc_timeout_ms),
          static_cast<long long>(options_.heartbeat_period_ms)));
    }
    if (options_.max_recovery_attempts < 0) {
      return Status::InvalidArgument(StrFormat(
          "max_recovery_attempts must be >= 0 (got %d)",
          options_.max_recovery_attempts));
    }
    if (options_.worker_transport != nullptr) {
      transport_ = options_.worker_transport;
    } else {
      owned_transport_ =
          std::make_unique<UnixSocketTransport>(options_.worker_store_dir);
      transport_ = owned_transport_.get();
    }
    // SPINNER_FAULT_PLAN wraps whichever transport was chosen in the frame
    // fault proxy — how the chaos CI lane injects wire faults into release
    // binaries without a dedicated flag on every entry point.
    const char* fault_spec = std::getenv("SPINNER_FAULT_PLAN");
    if (fault_spec != nullptr && fault_spec[0] != '\0') {
      SPINNER_ASSIGN_OR_RETURN(FaultPlan plan, FaultPlan::Parse(fault_spec));
      fault_transport_ = std::make_unique<FaultInjectingTransport>(
          transport_, std::move(plan));
      transport_ = fault_transport_.get();
    }
    SPINNER_ASSIGN_OR_RETURN(
        std::vector<WorkerEndpoint> endpoints,
        transport_->Acquire(num_workers, options_.transport,
                            /*wait_ms=*/std::nullopt));
    SPINNER_RETURN_IF_ERROR(
        AssignFleet(std::move(endpoints), /*inject_fail_hook=*/true));
    for (const Worker& worker : workers_) {
      wire_.subscribed_vertices +=
          static_cast<int64_t>(worker.subscription.size());
    }
    return Status::OK();
  }

  Status Initialize(const std::vector<PartitionId>& initial_labels,
                    InitOutcome* out) override {
    const int64_t step_start = counters_.bytes_sent;
    // No replay before an Initialize retry: the phase body IS the full
    // state (re)construction from `initial_labels`.
    SPINNER_RETURN_IF_ERROR(RunPhase(
        /*replay=*/false, [&] { return InitializeOnce(initial_labels, out); }));
    SaveCheckpoint();
    FinishStep(step_start);
    return Status::OK();
  }

  Status ComputeScores(int64_t superstep,
                       const std::vector<int64_t>& global_loads,
                       const std::vector<double>& capacities,
                       ScoreOutcome* out) override {
    const int64_t step_start = counters_.bytes_sent;
    SPINNER_RETURN_IF_ERROR(RunPhase(/*replay=*/true, [&] {
      return ComputeScoresOnce(superstep, global_loads, capacities, out);
    }));
    FinishStep(step_start);
    return Status::OK();
  }

  Status ComputeMigrations(int64_t superstep,
                           const std::vector<int64_t>& global_loads,
                           const std::vector<double>& capacities,
                           const std::vector<int64_t>& migration_counts,
                           MigrateOutcome* out) override {
    const int64_t step_start = counters_.bytes_sent;
    bool replayed = false;
    SPINNER_RETURN_IF_ERROR(RunPhase(/*replay=*/true, [&]() -> Status {
      if (replayed) {
        // A retried migrate needs the per-vertex candidate state its
        // workers lost with the fleet. The preceding score superstep is
        // index superstep - 1 and ran on exactly these frozen
        // global_loads/capacities (the driver updates loads only after a
        // migrate), so silently re-running it rebuilds that state
        // bit-identically; its outcome is scratch.
        ScoreOutcome scores;
        SPINNER_RETURN_IF_ERROR(ComputeScoresOnce(
            superstep - 1, global_loads, capacities, &scores));
      }
      replayed = true;
      return ComputeMigrationsOnce(superstep, global_loads, capacities,
                                   migration_counts, out);
    }));
    SaveCheckpoint();
    FinishStep(step_start);
    return Status::OK();
  }

  /// Final cross-process consistency gate: every worker's shard state
  /// must equal the coordinator's merged view bit-for-bit.
  Status VerifyFinalSnapshots() {
    SPINNER_RETURN_IF_ERROR(SendToAll(MessageType::kSnapshot, {}));
    for (int w = 0; w < num_workers(); ++w) {
      SPINNER_ASSIGN_OR_RETURN(Frame frame,
                               RecvFrom(w, MessageType::kSnapshotReply));
      SPINNER_ASSIGN_OR_RETURN(ShardStateReply reply,
                               ShardStateReply::Decode(frame.payload));
      SPINNER_RETURN_IF_ERROR(ApplyShardStates(w, reply, /*out=*/nullptr));
    }
    return Status::OK();
  }

  /// Ends the run on the one retire path: probes the fleet (ProbeFleet)
  /// and hands every worker that acked back to the transport — a registry
  /// pools the live connection for the next run, the fork transport
  /// closes and reaps. Returns the first probe error. Idempotent.
  Status Retire() {
    std::vector<WorkerEndpoint> acked;
    const Status status = ProbeFleet(&acked);
    transport_->Release(std::move(acked));
    return status;
  }

  /// The run's wire traffic: the connection counters plus everything the
  /// phases and handshakes recorded.
  WireTraffic TakeWire() {
    wire_.bytes_sent = counters_.bytes_sent;
    wire_.bytes_received = counters_.bytes_received;
    wire_.frames_sent = counters_.frames_sent;
    wire_.frames_received = counters_.frames_received;
    wire_.chunked_messages =
        counters_.chunked_messages_sent + counters_.chunked_messages_received;
    return std::move(wire_);
  }

 private:
  struct Worker {
    WorkerEndpoint endpoint;
    /// Global shard ids the worker owns: one contiguous ascending range,
    /// covering vertices [owned_begin, owned_end).
    std::vector<int32_t> shards;
    VertexId owned_begin = 0;
    VertexId owned_end = 0;
    /// Ascending out-of-range neighbor set the worker subscribed to.
    std::vector<VertexId> subscription;
  };

  int num_workers() const { return static_cast<int>(workers_.size()); }

  /// Carves contiguous capacity-weighted shard ranges over `endpoints`
  /// and runs the fleet handshake — Assign → Resume → Setup → Subscribe,
  /// the same for Spawn and every RebuildFleet. Repopulates workers_; on
  /// failure every endpoint is destroyed. `inject_fail_hook` arms the
  /// crash test hook (initial Spawn only).
  Status AssignFleet(std::vector<WorkerEndpoint> endpoints,
                     bool inject_fail_hook) {
    // Range sizes are proportional to the capacity each worker advertised
    // in its Hello (equal capacities reduce to the classic S·w/W split).
    // Contiguity keeps replies received in worker order in global shard
    // order, so every merge stays trivially in the fixed order the
    // determinism contract requires.
    const int S = store_->num_shards();
    int64_t total_capacity = 0;
    for (const WorkerEndpoint& ep : endpoints) {
      total_capacity += std::max<int64_t>(1, ep.capacity);
    }
    int64_t prefix_capacity = 0;
    for (WorkerEndpoint& ep : endpoints) {
      const int begin = static_cast<int>(
          static_cast<int64_t>(S) * prefix_capacity / total_capacity);
      prefix_capacity += std::max<int64_t>(1, ep.capacity);
      const int end = static_cast<int>(
          static_cast<int64_t>(S) * prefix_capacity / total_capacity);
      Worker worker;
      worker.endpoint = std::move(ep);
      for (int s = begin; s < end; ++s) {
        worker.shards.push_back(static_cast<int32_t>(s));
      }
      if (begin < end) {
        worker.owned_begin = store_->shard(begin).begin;
        worker.owned_end = store_->shard(end - 1).end;
      }
      workers_.push_back(std::move(worker));
    }
    const Status status = Handshake(inject_fail_hook);
    if (!status.ok()) ForceKill();
    return status;
  }

  /// The fleet handshake over workers_; AssignFleet's body.
  Status Handshake(bool inject_fail_hook) {
    // Assign first (so every worker probes its store concurrently), then
    // per worker consume the Resume and send a Setup carrying only the
    // slices whose fingerprint missed. Only a shard a worker reports
    // present is fingerprinted here: with in-memory workers every Resume
    // is all zeros and no slice is hashed at all.
    for (int w = 0; w < num_workers(); ++w) {
      AssignMessage assign;
      assign.num_partitions = config_.num_partitions;
      assign.seed = config_.seed;
      assign.balance_on_vertices =
          config_.balance_mode == BalanceMode::kVertices ? 1 : 0;
      assign.per_worker_async = config_.per_worker_async ? 1 : 0;
      assign.num_vertices = store_->NumVertices();
      assign.num_shards_total = store_->num_shards();
      assign.owned_shards = workers_[w].shards;
      if (inject_fail_hook && w == options_.fail_worker) {
        assign.fail_after_score_steps = options_.fail_after_score_steps;
      }
      SPINNER_RETURN_IF_ERROR(SendTo(w, MessageType::kAssign, assign.Encode()));
    }
    for (int w = 0; w < num_workers(); ++w) {
      SPINNER_ASSIGN_OR_RETURN(Frame frame, RecvFrom(w, MessageType::kResume));
      SPINNER_ASSIGN_OR_RETURN(ResumeMessage resume,
                               ResumeMessage::Decode(frame.payload));
      const std::vector<int32_t>& shards = workers_[w].shards;
      if (resume.fingerprints.size() != shards.size()) {
        return Status::Internal(StrFormat(
            "worker %d Resume carries %zu fingerprints for %zu shards", w,
            resume.fingerprints.size(), shards.size()));
      }
      std::vector<int32_t> download;
      for (size_t i = 0; i < shards.size(); ++i) {
        if (resume.fingerprints[i] != 0 &&
            resume.fingerprints[i] ==
                ShardSliceFingerprint(store_->shard(shards[i]))) {
          ++wire_.slices_resumed;
          continue;
        }
        download.push_back(shards[i]);
        ++wire_.slices_downloaded;
        wire_.slice_bytes_downloaded += static_cast<int64_t>(
            graph_io::EncodedShardSliceSize(store_->shard(shards[i])));
      }
      // Slices are appended straight from the store — no intermediate
      // per-shard CSR copies on the download path. An all-hit Resume
      // still gets its (slice-free) Setup: the worker always awaits one.
      SPINNER_RETURN_IF_ERROR(SendTo(w, MessageType::kSetup,
                                     EncodeSetupFromStore(download, *store_)));
    }
    for (int w = 0; w < num_workers(); ++w) {
      SPINNER_RETURN_IF_ERROR(CollectSubscription(w));
    }
    return Status::OK();
  }

  /// Receives worker w's Subscribe (its out-of-range neighbor set, sent
  /// right after Setup) and validates it against the store: strictly
  /// ascending, in range, none owned by w.
  Status CollectSubscription(int w) {
    SPINNER_ASSIGN_OR_RETURN(Frame frame, RecvFrom(w, MessageType::kSubscribe));
    SPINNER_ASSIGN_OR_RETURN(SubscribeMessage subscribe,
                             SubscribeMessage::Decode(frame.payload));
    // A worker's shards are one contiguous ascending range, so ownership
    // is a single interval test per vertex — the boundary can approach V,
    // this loop must not be O(shards) per entry.
    const Worker& worker = workers_[w];
    VertexId previous = -1;
    for (const VertexId v : subscribe.vertices) {
      if (v < 0 || v >= store_->NumVertices()) {
        return Status::Internal(StrFormat(
            "worker %d subscribed to out-of-range vertex %lld", w,
            static_cast<long long>(v)));
      }
      if (v <= previous) {
        return Status::Internal(StrFormat(
            "worker %d subscription is not strictly ascending", w));
      }
      previous = v;
      if (v >= worker.owned_begin && v < worker.owned_end) {
        return Status::Internal(StrFormat(
            "worker %d subscribed to vertex %lld it owns", w,
            static_cast<long long>(v)));
      }
    }
    workers_[w].subscription = std::move(subscribe.vertices);
    return Status::OK();
  }

  /// Sends one message to worker `w` / to every worker (chunked across
  /// frames when it exceeds the transport's payload ceiling).
  Status SendTo(int w, MessageType type, std::span<const uint8_t> payload) {
    const WorkerEndpoint& endpoint = workers_[w].endpoint;
    const Status status =
        SendMessage(endpoint.socket.fd(), static_cast<uint32_t>(type),
                    payload, options_.transport, next_message_id_++,
                    &counters_);
    if (!status.ok()) {
      return Status::IOError(StrFormat("worker %d (pid %d) unreachable: %s",
                                       w, static_cast<int>(endpoint.pid),
                                       status.message().c_str()));
    }
    return status;
  }

  Status SendToAll(MessageType type, std::span<const uint8_t> payload) {
    for (int w = 0; w < num_workers(); ++w) {
      SPINNER_RETURN_IF_ERROR(SendTo(w, type, payload));
    }
    return Status::OK();
  }

  /// Receives worker w's next message, bounded by the rpc_timeout_ms read
  /// deadline. An Error frame decodes into the worker's Status; EOF (a
  /// dead worker) becomes an IOError and an elapsed deadline (connected
  /// but silent) a DeadlineExceeded, each naming the worker — callers
  /// never hang on a failed process.
  Result<Frame> Recv(int w) {
    const WorkerEndpoint& endpoint = workers_[w].endpoint;
    Result<Frame> frame =
        RecvMessage(endpoint.socket.fd(), options_.transport, &counters_,
                    options_.rpc_timeout_ms, options_.heartbeat_period_ms);
    if (!frame.ok()) {
      // EOF/EPIPE means the worker process is gone; an elapsed deadline a
      // worker that is connected but silent; anything else (chunk
      // reassembly rejections are InvalidArgument) is a live worker with a
      // corrupt stream — keep the code so operators chase the right bug.
      const StatusCode code = frame.status().code();
      const char* what =
          code == StatusCode::kIOError
              ? "worker %d (pid %d) died mid-superstep: %s"
              : (code == StatusCode::kDeadlineExceeded
                     ? "worker %d (pid %d) hung mid-superstep: %s"
                     : "worker %d (pid %d) sent a corrupt stream: %s");
      return Status(code, StrFormat(what, w, static_cast<int>(endpoint.pid),
                                    frame.status().message().c_str()));
    }
    if (frame->type == static_cast<uint32_t>(MessageType::kError)) {
      auto error = ErrorMessage::Decode(frame->payload);
      const std::string detail =
          error.ok() ? error->ToStatus().ToString() : "unreadable error frame";
      return Status::Internal(
          StrFormat("worker %d reported: %s", w, detail.c_str()));
    }
    return frame;
  }

  /// Recv, checking that the message is of the `expected` type.
  Result<Frame> RecvFrom(int w, MessageType expected) {
    SPINNER_ASSIGN_OR_RETURN(Frame frame, Recv(w));
    if (frame.type != static_cast<uint32_t>(expected)) {
      return Status::Internal(StrFormat(
          "worker %d sent frame type %u where %u was expected", w, frame.type,
          static_cast<uint32_t>(expected)));
    }
    return frame;
  }

  /// The second half of returning worker w to the Assign-await state,
  /// once its Teardown is sent: drains in-flight replies (bounded) until
  /// the TeardownAck. Non-OK means the worker is dead, hung, or babbling —
  /// destroy it.
  Status AwaitTeardownAck(int w) {
    // A live worker may still owe replies from an interrupted round; skip
    // them until its TeardownAck arrives (after which it has reset its run
    // state and awaits the next Assign). The cap bounds a babbling stream.
    for (int i = 0; i < 64; ++i) {
      SPINNER_ASSIGN_OR_RETURN(Frame frame, Recv(w));
      if (frame.type == static_cast<uint32_t>(MessageType::kTeardownAck)) {
        return Status::OK();
      }
    }
    return Status::Internal(StrFormat(
        "worker %d did not ack Teardown within 64 messages", w));
  }

  /// The one Teardown-probe loop, shared by Retire and RebuildFleet:
  /// probes every attached endpoint, moves the ones that ack — back in the
  /// Assign-await state — into `acked`, destroys the rest, and empties the
  /// fleet. Every Teardown goes out before any ack is awaited, so the
  /// workers reset concurrently. Returns the first probe error.
  Status ProbeFleet(std::vector<WorkerEndpoint>* acked) {
    std::vector<Status> probes;
    for (int w = 0; w < num_workers(); ++w) {
      probes.push_back(SendTo(w, MessageType::kTeardown, {}));
    }
    Status first_error;
    for (int w = 0; w < num_workers(); ++w) {
      WorkerEndpoint& endpoint = workers_[w].endpoint;
      const Status status = probes[w].ok() ? AwaitTeardownAck(w) : probes[w];
      if (status.ok()) {
        acked->push_back(std::move(endpoint));
        continue;
      }
      transport_->Destroy(std::move(endpoint));
      if (first_error.ok()) first_error = status;
    }
    workers_.clear();
    return first_error;
  }

  /// Rebuilds the fleet after a worker failure: probes every endpoint
  /// (survivors reset to the Assign-await state; the dead and the hung
  /// are destroyed), tops the fleet back up from the transport
  /// best-effort, and re-runs the fleet handshake over the new roster —
  /// re-carving ALL shard ranges capacity-weighted, with matching
  /// PersistentShardStore fingerprints downloading nothing. Fails when no
  /// worker survives.
  Status RebuildFleet() {
    const int previous = num_workers();
    std::vector<WorkerEndpoint> survivors;
    (void)ProbeFleet(&survivors);
    const int missing = previous - static_cast<int>(survivors.size());
    if (missing > 0) {
      // Best-effort top-up: a replacement gets one rpc timeout to
      // materialize (a fresh fork, or a spare dialing into the registry);
      // otherwise the survivors absorb the dead worker's shards, and their
      // stores re-download exactly the slices that changed hands.
      auto replacements = transport_->Acquire(missing, options_.transport,
                                              options_.rpc_timeout_ms);
      if (replacements.ok()) {
        wire_.workers_replaced += static_cast<int64_t>(replacements->size());
        for (WorkerEndpoint& ep : *replacements) {
          survivors.push_back(std::move(ep));
        }
      }
    }
    if (survivors.empty()) {
      return Status::IOError(
          "fleet rebuild found no surviving workers and no replacement "
          "arrived in time");
    }
    return AssignFleet(std::move(survivors), /*inject_fail_hook=*/false);
  }

  /// Destroys every attached endpoint through the transport — the
  /// handshake-failure and destructor path. Forked children are
  /// SIGKILLed and reaped.
  void ForceKill() {
    for (Worker& worker : workers_) {
      transport_->Destroy(std::move(worker.endpoint));
    }
    workers_.clear();
  }

  Status InitializeOnce(const std::vector<PartitionId>& initial_labels,
                        InitOutcome* out) {
    // Each worker gets exactly its owned slice of the initial labels,
    // based at its owned range begin — O(V) total, not O(V·workers).
    const int64_t init_size = static_cast<int64_t>(initial_labels.size());
    for (int w = 0; w < num_workers(); ++w) {
      const Worker& worker = workers_[w];
      InitRequest request;
      request.base = worker.owned_begin;
      const int64_t lo = std::min<int64_t>(worker.owned_begin, init_size);
      const int64_t hi = std::min<int64_t>(worker.owned_end, init_size);
      if (hi > lo) {
        request.initial_labels.assign(initial_labels.begin() + lo,
                                      initial_labels.begin() + hi);
      }
      SPINNER_RETURN_IF_ERROR(SendTo(w, MessageType::kInit, request.Encode()));
    }
    out->messages_out.assign(static_cast<size_t>(store_->num_shards()), 0);
    for (int w = 0; w < num_workers(); ++w) {
      SPINNER_ASSIGN_OR_RETURN(Frame frame,
                               RecvFrom(w, MessageType::kInitReply));
      SPINNER_ASSIGN_OR_RETURN(ShardStateReply reply,
                               ShardStateReply::Decode(frame.payload));
      SPINNER_RETURN_IF_ERROR(ApplyShardStates(w, reply, out));
    }
    // Seed each worker's boundary mirror: the labels of exactly its
    // subscribed vertices, in subscription order — the cut-proportional
    // replacement of the full-array broadcast. Afterwards only
    // subscription-filtered deltas flow.
    const std::vector<PartitionId>& labels = store_->labels();
    for (int w = 0; w < num_workers(); ++w) {
      LabelValues values;
      values.values.reserve(workers_[w].subscription.size());
      for (const VertexId v : workers_[w].subscription) {
        values.values.push_back(labels[v]);
      }
      wire_.label_values_sent += static_cast<int64_t>(values.values.size());
      SPINNER_RETURN_IF_ERROR(SendTo(w, MessageType::kLabels, values.Encode()));
    }
    return Status::OK();
  }

  Status ComputeScoresOnce(int64_t superstep,
                           const std::vector<int64_t>& global_loads,
                           const std::vector<double>& capacities,
                           ScoreOutcome* out) {
    ScoresRequest request;
    request.superstep = superstep;
    request.global_loads = global_loads;
    request.capacities = capacities;
    SPINNER_RETURN_IF_ERROR(SendToAll(MessageType::kScores, request.Encode()));
    out->block_score.assign(static_cast<size_t>(store_->NumBlocks()), 0.0);
    out->local_weight = 0;
    out->migration_counts.assign(static_cast<size_t>(config_.num_partitions),
                                 0);
    for (int w = 0; w < num_workers(); ++w) {
      SPINNER_ASSIGN_OR_RETURN(Frame frame,
                               RecvFrom(w, MessageType::kScoresReply));
      SPINNER_ASSIGN_OR_RETURN(ScoresReply reply,
                               ScoresReply::Decode(frame.payload));
      if (static_cast<int>(reply.migration_counts.size()) !=
          config_.num_partitions) {
        return MalformedReply(w, "ScoresReply migration counters");
      }
      // Place the worker's per-block partials at their global block
      // offsets (owned shards ascending — the order the worker wrote).
      size_t cursor = 0;
      for (const int32_t s : workers_[w].shards) {
        const ShardedGraphStore::Shard& shard = store_->shard(s);
        const int64_t block_begin = shard.begin / ShardedGraphStore::kBlockSize;
        const int64_t block_end =
            (shard.end + ShardedGraphStore::kBlockSize - 1) /
            ShardedGraphStore::kBlockSize;
        const size_t count = static_cast<size_t>(block_end - block_begin);
        if (cursor + count > reply.block_score.size()) {
          return MalformedReply(w, "ScoresReply block scores");
        }
        std::copy(reply.block_score.begin() + cursor,
                  reply.block_score.begin() + cursor + count,
                  out->block_score.begin() + block_begin);
        cursor += count;
      }
      if (cursor != reply.block_score.size()) {
        return MalformedReply(w, "ScoresReply block scores");
      }
      SPINNER_RETURN_IF_ERROR(AddComputeNs(w, reply.compute_ns));
      out->local_weight += reply.local_weight;
      for (size_t l = 0; l < out->migration_counts.size(); ++l) {
        out->migration_counts[l] += reply.migration_counts[l];
      }
    }
    return Status::OK();
  }

  Status ComputeMigrationsOnce(int64_t superstep,
                               const std::vector<int64_t>& global_loads,
                               const std::vector<double>& capacities,
                               const std::vector<int64_t>& migration_counts,
                               MigrateOutcome* out) {
    MigrateRequest request;
    request.superstep = superstep;
    request.global_loads = global_loads;
    request.capacities = capacities;
    request.migration_counts = migration_counts;
    SPINNER_RETURN_IF_ERROR(SendToAll(MessageType::kMigrate, request.Encode()));
    out->migrated = 0;
    out->messages_out.assign(static_cast<size_t>(store_->num_shards()), 0);
    // Workers own contiguous ascending ranges, replies are read in worker
    // order and each shard's moves are ascending, so `moves` stays
    // globally ascending by vertex — the invariant the per-worker
    // subscription filter's merge walk relies on.
    std::vector<LabelDelta> moves;
    std::vector<PartitionId>& labels = store_->labels();
    for (int w = 0; w < num_workers(); ++w) {
      SPINNER_ASSIGN_OR_RETURN(Frame frame,
                               RecvFrom(w, MessageType::kMigrateReply));
      SPINNER_ASSIGN_OR_RETURN(MigrateReply reply,
                               MigrateReply::Decode(frame.payload));
      SPINNER_RETURN_IF_ERROR(CheckReplyShards(w, reply));
      SPINNER_RETURN_IF_ERROR(AddComputeNs(w, reply.compute_ns));
      for (const ShardMigrateResult& result : reply.shards) {
        const ShardedGraphStore::Shard& shard = store_->shard(result.shard);
        for (const LabelDelta& move : result.moves) {
          if (move.vertex < shard.begin || move.vertex >= shard.end ||
              move.label < 0 || move.label >= config_.num_partitions) {
            return MalformedReply(w, "MigrateReply move");
          }
          labels[move.vertex] = move.label;
        }
        store_->mutable_shard(result.shard).loads = result.loads;
        out->messages_out[result.shard] = result.messages;
        out->migrated += result.migrated;
        moves.insert(moves.end(), result.moves.begin(), result.moves.end());
      }
    }
    // Send each worker only the deltas for vertices it subscribed to (its
    // own moves were applied locally in HandleMigrate), then gate the
    // iteration on every worker's owned+mirror checksum matching the
    // authoritative label array. The expected digests are computed after
    // every send and before any ack is awaited, so the coordinator hashes
    // while the workers apply and hash.
    for (int w = 0; w < num_workers(); ++w) {
      const std::vector<VertexId>& subscription = workers_[w].subscription;
      ApplyDeltasMessage deltas;
      size_t cursor = 0;
      for (const LabelDelta& move : moves) {
        while (cursor < subscription.size() &&
               subscription[cursor] < move.vertex) {
          ++cursor;
        }
        if (cursor < subscription.size() &&
            subscription[cursor] == move.vertex) {
          deltas.moves.push_back(move);
        }
      }
      wire_.delta_entries_sent += static_cast<int64_t>(deltas.moves.size());
      SPINNER_RETURN_IF_ERROR(
          SendTo(w, MessageType::kApplyDeltas, deltas.Encode()));
    }
    std::vector<uint64_t> expected;
    for (int w = 0; w < num_workers(); ++w) {
      expected.push_back(ExpectedStateChecksum(w));
    }
    for (int w = 0; w < num_workers(); ++w) {
      SPINNER_ASSIGN_OR_RETURN(Frame frame,
                               RecvFrom(w, MessageType::kDeltasAck));
      SPINNER_ASSIGN_OR_RETURN(DeltasAck ack, DeltasAck::Decode(frame.payload));
      const uint64_t want = expected[static_cast<size_t>(w)];
      if (ack.labels_checksum != want) {
        return Status::Internal(StrFormat(
            "worker %d label mirror diverged after superstep %lld "
            "(checksum %llx != %llx)",
            w, static_cast<long long>(superstep),
            static_cast<unsigned long long>(ack.labels_checksum),
            static_cast<unsigned long long>(want)));
      }
    }
    return Status::OK();
  }

  /// Validates a ShardStateReply against worker w's assignment, then
  /// copies it into the coordinator store (labels slice + loads) and
  /// `out`'s message counters — or, with `out` null (the final
  /// snapshot), compares it against the store instead.
  Status ApplyShardStates(int w, const ShardStateReply& reply,
                          InitOutcome* out) {
    const std::vector<int32_t>& owned = workers_[w].shards;
    if (reply.shards.size() != owned.size()) {
      return MalformedReply(w, "shard state count");
    }
    for (size_t i = 0; i < reply.shards.size(); ++i) {
      const ShardState& state = reply.shards[i];
      if (state.shard != owned[i]) {
        return MalformedReply(w, "shard state ordering");
      }
      const ShardedGraphStore::Shard& shard = store_->shard(state.shard);
      if (static_cast<int64_t>(state.labels.size()) !=
              shard.NumOwnedVertices() ||
          static_cast<int>(state.loads.size()) != config_.num_partitions) {
        return MalformedReply(w, "shard state sizes");
      }
      const auto labels = store_->labels().begin() + shard.begin;
      if (out == nullptr) {
        if (!std::equal(state.labels.begin(), state.labels.end(), labels) ||
            state.loads != shard.loads) {
          return Status::Internal(StrFormat(
              "worker %d shard %d final state diverged from the "
              "coordinator's merged view",
              w, static_cast<int>(state.shard)));
        }
        continue;
      }
      std::copy(state.labels.begin(), state.labels.end(), labels);
      store_->mutable_shard(state.shard).loads = state.loads;
      out->messages_out[state.shard] = state.messages;
    }
    return Status::OK();
  }

  /// Runs one superstep phase attempt, recovering from worker failures up
  /// to max_recovery_attempts times: rebuild the fleet (which re-collects
  /// the new roster's subscriptions), replay the checkpointed label state
  /// (when `replay` — every phase except Initialize, whose body is the
  /// replay), and re-run the attempt. The frozen phase inputs plus the
  /// worker-shape-independent kernel hashing make every retry
  /// bit-identical to an uninterrupted phase.
  Status RunPhase(bool replay, const std::function<Status()>& attempt) {
    Status status = attempt();
    for (int retry = 1; !status.ok() && Recoverable(status) &&
                        retry <= options_.max_recovery_attempts;
         ++retry) {
      Backoff(retry);
      Status rebuilt = RebuildFleet();
      if (rebuilt.ok() && replay) rebuilt = ReplayState();
      if (!rebuilt.ok()) {
        return Status(rebuilt.code(),
                      StrFormat("recovery attempt %d failed: %s (recovering "
                                "from: %s)",
                                retry, rebuilt.message().c_str(),
                                status.message().c_str()));
      }
      ++wire_.recoveries;
      status = attempt();
    }
    return status;
  }

  /// Worker failures a fleet rebuild can cure: a dead peer (IOError), a
  /// hung peer (DeadlineExceeded), a corrupt stream (InvalidArgument from
  /// frame/chunk validation), or a malformed/diverged reply (Internal).
  /// Anything else (bad config, precondition) would only recur.
  static bool Recoverable(const Status& status) {
    switch (status.code()) {
      case StatusCode::kIOError:
      case StatusCode::kDeadlineExceeded:
      case StatusCode::kInvalidArgument:
      case StatusCode::kInternal:
        return true;
      default:
        return false;
    }
  }

  /// Exponential backoff before a rebuild, so a transiently sick fleet
  /// (restarting workers, network blip) gets time to come back.
  void Backoff(int retry) const {
    const int64_t ms = std::min<int64_t>(
        options_.heartbeat_period_ms << std::min(retry - 1, 10), 5'000);
    std::this_thread::sleep_for(std::chrono::milliseconds(ms));
  }

  /// Checkpoints the authoritative label/load state recovery replays
  /// from: after Initialize and after every completed migrate superstep —
  /// the exact superstep-boundary states of the protocol. Skipped when
  /// recovery is off (no O(V) copies on the default path).
  void SaveCheckpoint() {
    if (options_.max_recovery_attempts <= 0) return;
    checkpoint_labels_ = store_->labels();
    checkpoint_loads_.resize(static_cast<size_t>(store_->num_shards()));
    for (int s = 0; s < store_->num_shards(); ++s) {
      checkpoint_loads_[static_cast<size_t>(s)] = store_->shard(s).loads;
    }
  }

  /// Restores every worker (and the coordinator store) to the checkpoint:
  /// replaying the authoritative labels as a fully-fixed initial
  /// assignment makes the workers' Init handling a pure restore — no hash
  /// draws — and their recomputed loads must land exactly on the
  /// checkpointed values, which is asserted.
  Status ReplayState() {
    InitOutcome scratch;
    SPINNER_RETURN_IF_ERROR(InitializeOnce(checkpoint_labels_, &scratch));
    for (int s = 0; s < store_->num_shards(); ++s) {
      if (store_->shard(s).loads != checkpoint_loads_[static_cast<size_t>(s)]) {
        return Status::Internal(StrFormat(
            "shard %d loads diverged from the checkpoint during replay", s));
      }
    }
    return Status::OK();
  }

  /// What worker w's DeltasAck digest must be, computed from the
  /// coordinator's authoritative labels: the owned vertex range, then
  /// subscribed mirror values in subscription order — the exact layout
  /// (hence fold) of the worker's compact label array.
  uint64_t ExpectedStateChecksum(int w) const {
    const std::vector<PartitionId>& labels = store_->labels();
    const Worker& worker = workers_[w];
    LabelChecksum sum;
    sum.Update(std::span<const PartitionId>(labels).subspan(
        static_cast<size_t>(worker.owned_begin),
        static_cast<size_t>(worker.owned_end - worker.owned_begin)));
    for (const VertexId v : worker.subscription) {
      sum.UpdateOne(labels[v]);
    }
    return sum.digest();
  }

  /// Sums a reply's worker-side compute time into worker w's total,
  /// saturating at INT64_MAX. A negative time is a malformed reply.
  Status AddComputeNs(int w, int64_t compute_ns) {
    if (compute_ns < 0) return MalformedReply(w, "compute_ns");
    std::vector<int64_t>& totals = wire_.worker_compute_ns;
    if (totals.size() <= static_cast<size_t>(w)) {
      totals.resize(static_cast<size_t>(w) + 1, 0);
    }
    int64_t& total = totals[static_cast<size_t>(w)];
    total = compute_ns > std::numeric_limits<int64_t>::max() - total
                ? std::numeric_limits<int64_t>::max()
                : total + compute_ns;
    return Status::OK();
  }

  void FinishStep(int64_t step_start_bytes) {
    wire_.per_superstep_bytes.push_back(counters_.bytes_sent -
                                        step_start_bytes);
  }

  Status CheckReplyShards(int w, const MigrateReply& reply) const {
    const std::vector<int32_t>& owned = workers_[w].shards;
    if (reply.shards.size() != owned.size()) {
      return MalformedReply(w, "migrate shard count");
    }
    for (size_t i = 0; i < reply.shards.size(); ++i) {
      if (reply.shards[i].shard != owned[i] ||
          static_cast<int>(reply.shards[i].loads.size()) !=
              config_.num_partitions) {
        return MalformedReply(w, "migrate shard entry");
      }
    }
    return Status::OK();
  }

  static Status MalformedReply(int w, const char* what) {
    return Status::Internal(
        StrFormat("worker %d sent a malformed %s", w, what));
  }

  const SpinnerConfig& config_;
  ShardedGraphStore* store_;
  const MultiProcessOptions& options_;
  /// Where endpoints come from and go back to: options_.worker_transport,
  /// or the owned fork transport, optionally behind the fault proxy.
  Transport* transport_ = nullptr;
  std::unique_ptr<UnixSocketTransport> owned_transport_;
  std::unique_ptr<Transport> fault_transport_;
  std::vector<Worker> workers_;
  uint64_t next_message_id_ = 1;
  WireCounters counters_;
  WireTraffic wire_;
  /// Superstep-boundary state recovery replays from (empty until the
  /// first SaveCheckpoint; Initialize failures replay nothing).
  std::vector<PartitionId> checkpoint_labels_;
  std::vector<std::vector<int64_t>> checkpoint_loads_;
};

}  // namespace

Result<ShardedRunResult> RunMultiProcessSpinner(
    const SpinnerConfig& config, ShardedGraphStore* store,
    std::vector<PartitionId> initial_labels,
    const MultiProcessOptions& options, const ProgressObserver* observer) {
  SPINNER_CHECK(store != nullptr);
  SPINNER_RETURN_IF_ERROR(config.Validate());
  if (store->NumVertices() == 0) {
    return Status::InvalidArgument("cannot partition an empty graph");
  }
  MultiProcessBackend backend(config, store, options);
  SPINNER_RETURN_IF_ERROR(backend.Spawn(
      ResolveNumWorkers(options.num_workers, store->num_shards())));
  Result<ShardedRunResult> run = DriveSpinnerSupersteps(
      config, store, std::move(initial_labels), &backend, observer);
  Status status = run.status();
  if (status.ok()) status = backend.VerifyFinalSnapshots();
  // Failed or not, the run ends on the retire path: surviving workers are
  // walked back to the Assign-await state before their connections return
  // to the transport, so a pooled connection is never left mid-protocol
  // for the next run to trip over.
  const Status retired = backend.Retire();
  SPINNER_RETURN_IF_ERROR(status);
  SPINNER_RETURN_IF_ERROR(retired);
  run->wire = backend.TakeWire();
  return run;
}

}  // namespace spinner::dist
