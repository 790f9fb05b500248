#include "dist/worker.h"

#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cstdio>
#include <limits>
#include <optional>
#include <utility>
#include <vector>

#include "common/string_util.h"
#include "common/timer.h"
#include "dist/shard_store.h"
#include "dist/tcp_transport.h"
#include "dist/transport.h"
#include "dist/wire_format.h"
#include "graph/binary_io.h"
#include "spinner/shard_superstep.h"

namespace spinner::dist {

namespace {

/// A boundary arc in the remap sort: its global target and its ordinal
/// among the worker's boundary arcs, counted in arc order.
template <typename Ordinal>
struct BoundaryArc {
  ShardedGraphStore::Target target;
  Ordinal ordinal;
};

/// Stable LSD radix sort of `arcs` by target, 11 bits per pass and only as
/// many passes as ids below `num_vertices` need. All digit histograms come
/// from one read pass.
template <typename Arc>
void RadixSortByTarget(std::vector<Arc>* arcs, int64_t num_vertices) {
  if (arcs->empty()) return;  // and so num_vertices >= 1 below
  constexpr int kDigitBits = 11;
  constexpr size_t kBuckets = size_t{1} << kDigitBits;
  const int passes =
      (std::bit_width(static_cast<uint64_t>(num_vertices - 1)) +
       kDigitBits - 1) /
      kDigitBits;
  std::vector<size_t> counts(static_cast<size_t>(passes) * kBuckets, 0);
  for (const Arc& arc : *arcs) {
    for (int p = 0; p < passes; ++p) {
      ++counts[static_cast<size_t>(p) * kBuckets +
               ((arc.target >> (p * kDigitBits)) & (kBuckets - 1))];
    }
  }
  std::vector<Arc> scratch(arcs->size());
  for (int p = 0; p < passes; ++p) {
    size_t* offset = counts.data() + static_cast<size_t>(p) * kBuckets;
    size_t sum = 0;
    for (size_t d = 0; d < kBuckets; ++d) {
      const size_t count = offset[d];
      offset[d] = sum;
      sum += count;
    }
    for (const Arc& arc : *arcs) {
      scratch[offset[(arc.target >> (p * kDigitBits)) & (kBuckets - 1)]++] =
          arc;
    }
    arcs->swap(scratch);
  }
}

/// Second half of RemapToWorkerLayout, once `layout`'s owned range is
/// validated and `boundary` (the count of out-of-range arcs) is known:
/// sorts the boundary arcs by target, appends each distinct target to the
/// subscription, and rewrites every target to its slot. `Ordinal` must
/// hold `boundary`; 32 bits keep a sort entry at 8 bytes.
template <typename Ordinal>
void RemapValidatedShards(std::span<ShardedGraphStore::Shard> shards,
                          int64_t num_vertices, size_t boundary,
                          WorkerLayout* layout) {
  using Target = ShardedGraphStore::Target;
  // slot_of[i]: the compact slot of the i-th boundary arc's target.
  std::vector<Target> slot_of;
  {
    std::vector<BoundaryArc<Ordinal>> arcs;
    arcs.reserve(boundary);
    for (const ShardedGraphStore::Shard& shard : shards) {
      for (const Target t : shard.targets) {
        if (!layout->Owns(t)) {
          arcs.push_back({t, static_cast<Ordinal>(arcs.size())});
        }
      }
    }
    RadixSortByTarget(&arcs, num_vertices);
    slot_of.resize(boundary);  // after the sort's own scratch is freed
    const int64_t owned = layout->owned_count();
    for (const BoundaryArc<Ordinal>& arc : arcs) {
      if (layout->subscription.empty() ||
          layout->subscription.back() != arc.target) {
        layout->subscription.push_back(arc.target);
      }
      slot_of[arc.ordinal] = static_cast<Target>(
          owned + static_cast<int64_t>(layout->subscription.size()) - 1);
    }
  }
  size_t next = 0;
  for (ShardedGraphStore::Shard& shard : shards) {
    for (Target& t : shard.targets) {
      t = layout->Owns(t) ? static_cast<Target>(t - layout->owned_begin)
                          : slot_of[next++];
    }
  }
}

}  // namespace

Result<WorkerLayout> RemapToWorkerLayout(
    std::span<ShardedGraphStore::Shard> shards, int64_t num_vertices) {
  WorkerLayout layout;
  if (shards.empty()) return layout;  // a shardless worker idles validly
  layout.owned_begin = shards.front().begin;
  layout.owned_end = shards.back().end;
  if (layout.owned_begin < 0 || layout.owned_end > num_vertices ||
      layout.owned_begin % ShardedGraphStore::kBlockSize != 0) {
    return Status::InvalidArgument(
        "worker shard range is outside the graph or not block-aligned");
  }
  VertexId previous_end = layout.owned_begin;
  size_t boundary = 0;
  for (const ShardedGraphStore::Shard& shard : shards) {
    // Contiguity is load-bearing, not just tidy: Owns() is a single
    // interval test and the compact label array has one slot per owned
    // vertex with no holes.
    if (shard.begin != previous_end || shard.end < shard.begin) {
      return Status::InvalidArgument(
          "worker shard slices are not contiguous ascending ranges");
    }
    previous_end = shard.end;
    for (const ShardedGraphStore::Target t : shard.targets) {
      if (t >= num_vertices) {
        return Status::InvalidArgument(
            "shard slice target outside the vertex range");
      }
      boundary += layout.Owns(t) ? 0 : 1;
    }
  }
  if (boundary <= std::numeric_limits<uint32_t>::max()) {
    RemapValidatedShards<uint32_t>(shards, num_vertices, boundary, &layout);
  } else {
    RemapValidatedShards<uint64_t>(shards, num_vertices, boundary, &layout);
  }
  return layout;
}

namespace {

/// Per-connection worker state machine. Lives for as many runs as the
/// coordinator drives over this connection (Assign ... Teardown, repeat);
/// every handler re-validates payloads against the Assign/Setup topology.
class ShardWorker {
 public:
  ShardWorker(int fd, const TransportOptions& options,
              const WorkerLoopOptions& loop)
      : fd_(fd),
        options_(options),
        capacity_(loop.capacity),
        loop_fail_after_score_steps_(loop.fail_after_score_steps),
        fail_after_score_steps_(loop.fail_after_score_steps) {
    if (!loop.store_dir.empty()) store_.emplace(loop.store_dir);
  }

  /// Protocol loop; see RunShardWorkerLoop for the exit-code contract.
  int Run() {
    {
      HelloMessage hello;
      hello.capacity = capacity_;
      if (!Send(MessageType::kHello, hello.Encode()).ok()) return 2;
    }
    for (;;) {
      Result<Frame> frame = RecvMessage(fd_, options_);
      if (!frame.ok()) {
        // EOF between runs is the release path (the registry or a closing
        // coordinator dropped an idle connection); mid-run it means the
        // coordinator died.
        return assign_done_ ? 2 : 0;
      }
      Status status = Status::OK();
      switch (static_cast<MessageType>(frame->type)) {
        case MessageType::kAssign:
          status = HandleAssign(frame->payload);
          break;
        case MessageType::kSetup:
          status = HandleSetup(frame->payload);
          break;
        case MessageType::kInit:
          status = HandleInit(frame->payload);
          break;
        case MessageType::kLabels:
          status = HandleLabels(frame->payload);
          break;
        case MessageType::kScores:
          status = HandleScores(frame->payload);
          break;
        case MessageType::kMigrate:
          status = HandleMigrate(frame->payload);
          break;
        case MessageType::kApplyDeltas:
          status = HandleApplyDeltas(frame->payload);
          break;
        case MessageType::kSnapshot:
          status = HandleSnapshot();
          break;
        case MessageType::kTeardown:
          status = Send(MessageType::kTeardownAck, {});
          // The run is over but the connection is not: reset and await
          // the next Assign (the pooled-connection fast path).
          ResetRun();
          break;
        default:
          status = Status::InvalidArgument(StrFormat(
              "worker received unexpected frame type %u", frame->type));
          break;
      }
      if (!status.ok()) {
        // Best-effort error report; the coordinator may already be gone.
        (void)Send(MessageType::kError,
                   ErrorMessage::FromStatus(status).Encode());
        return 1;
      }
    }
  }

 private:
  void ResetRun() {
    assign_done_ = false;
    setup_done_ = false;
    init_done_ = false;
    labels_done_ = false;
    config_ = SpinnerConfig();
    n_ = 0;
    owned_shards_.clear();
    loaded_.clear();
    shards_.clear();
    layout_ = WorkerLayout();
    labels_.clear();
    label_view_.clear();
    candidate_.clear();
    block_score_.clear();
    block_candidates_.clear();
    scratch_.clear();
    fail_after_score_steps_ = loop_fail_after_score_steps_;
    scores_seen_ = 0;
  }

  Status Send(MessageType type, std::span<const uint8_t> payload) {
    return SendMessage(fd_, static_cast<uint32_t>(type), payload, options_,
                       next_message_id_++);
  }

  Status CheckSetup() const {
    if (!setup_done_) {
      return Status::FailedPrecondition(
          "worker received a run message before Setup");
    }
    return Status::OK();
  }

  /// Scores, Migrate and ApplyDeltas read every owned and mirror label,
  /// which hold kNoPartition until Init and Labels have filled them: a
  /// gather over them would index the per-label tables at -1.
  Status CheckLabelsSeeded(const char* what) const {
    SPINNER_RETURN_IF_ERROR(CheckSetup());
    if (!init_done_ || !labels_done_) {
      return Status::FailedPrecondition(
          StrFormat("worker received %s before Init and Labels", what));
    }
    return Status::OK();
  }

  Status CheckPerPartition(const std::vector<int64_t>& v,
                           const char* what) const {
    if (static_cast<int>(v.size()) != config_.num_partitions) {
      return Status::InvalidArgument(
          StrFormat("%s carries %zu entries for k=%d", what, v.size(),
                    config_.num_partitions));
    }
    return Status::OK();
  }

  /// InvalidArgument unless every label is in [0, k), or kNoPartition
  /// when `allow_none`: a label indexes per-label tables unchecked, and
  /// one >= 256 would alias a valid label in the one-byte view.
  Status CheckLabelRange(std::span<const PartitionId> labels, bool allow_none,
                         const char* what) const {
    for (const PartitionId label : labels) {
      if ((label < 0 || label >= config_.num_partitions) &&
          !(allow_none && label == kNoPartition)) {
        return Status::InvalidArgument(StrFormat(
            "%s %d out of range for k=%d", what, label,
            config_.num_partitions));
      }
    }
    return Status::OK();
  }

  /// The DeltasAck gate digest. The compact label array IS the checksum
  /// layout — owned slices in ascending order, then the mirror in
  /// subscription order — so the fold is simply the whole array, and it
  /// equals the coordinator's fold over its authoritative global labels.
  uint64_t StateChecksum() const {
    LabelChecksum sum;
    sum.Update(std::span<const PartitionId>(labels_));
    return sum.digest();
  }

  Status HandleAssign(std::span<const uint8_t> payload) {
    if (assign_done_) {
      return Status::FailedPrecondition(
          "worker received Assign mid-run (no Teardown between runs)");
    }
    SPINNER_ASSIGN_OR_RETURN(AssignMessage assign,
                             AssignMessage::Decode(payload));
    if (assign.num_partitions < 1 || assign.num_vertices < 0 ||
        assign.num_shards_total < 1) {
      return Status::InvalidArgument("Assign: nonsensical topology counts");
    }
    int32_t previous = -1;
    for (const int32_t s : assign.owned_shards) {
      if (s < 0 || s >= assign.num_shards_total || s <= previous) {
        return Status::InvalidArgument(
            "Assign: owned shard ids are not ascending in-range");
      }
      previous = s;
    }
    ResetRun();
    config_ = assign.ToConfig();
    n_ = assign.num_vertices;
    owned_shards_ = std::move(assign.owned_shards);
    if (assign.fail_after_score_steps >= 0) {
      fail_after_score_steps_ = assign.fail_after_score_steps;
    }
    assign_done_ = true;

    // Probe the local store and report what this worker already hosts.
    // The coordinator fingerprints its own slice of every shard reported
    // here and sends only the slices that missed — 0 means "absent".
    ResumeMessage resume;
    resume.fingerprints.assign(owned_shards_.size(), 0);
    loaded_.resize(owned_shards_.size());
    if (store_.has_value()) {
      for (size_t i = 0; i < owned_shards_.size(); ++i) {
        loaded_[i] = store_->Load(owned_shards_[i]);
        if (loaded_[i].has_value()) {
          resume.fingerprints[i] = loaded_[i]->fingerprint;
        }
      }
    }
    return Send(MessageType::kResume, resume.Encode());
  }

  Status HandleSetup(std::span<const uint8_t> payload) {
    if (!assign_done_) {
      return Status::FailedPrecondition("worker received Setup before Assign");
    }
    if (setup_done_) {
      return Status::FailedPrecondition("worker already set up");
    }
    SPINNER_ASSIGN_OR_RETURN(SetupMessage setup,
                             SetupMessage::Decode(payload));

    // Merge: Setup carries only the slices whose Resume fingerprint
    // missed; everything else must come from the local store, and only a
    // shard this worker's Resume reported (fingerprint != 0) can be
    // omitted.
    std::vector<ShardedGraphStore::Shard> merged(owned_shards_.size());
    std::vector<bool> downloaded(owned_shards_.size(), false);
    for (size_t i = 0; i < setup.owned_shards.size(); ++i) {
      const auto it = std::lower_bound(owned_shards_.begin(),
                                       owned_shards_.end(),
                                       setup.owned_shards[i]);
      if (it == owned_shards_.end() || *it != setup.owned_shards[i]) {
        return Status::InvalidArgument(StrFormat(
            "Setup carries shard %d this worker was not assigned",
            static_cast<int>(setup.owned_shards[i])));
      }
      const size_t j = static_cast<size_t>(it - owned_shards_.begin());
      if (downloaded[j]) {
        return Status::InvalidArgument(
            StrFormat("Setup carries shard %d twice",
                      static_cast<int>(setup.owned_shards[i])));
      }
      merged[j] = std::move(setup.shards[i]);
      downloaded[j] = true;
    }
    for (size_t j = 0; j < merged.size(); ++j) {
      if (downloaded[j]) continue;
      if (!loaded_[j].has_value() || loaded_[j]->fingerprint == 0) {
        return Status::InvalidArgument(StrFormat(
            "Setup omitted shard %d but the local store cannot supply it",
            static_cast<int>(owned_shards_[j])));
      }
      merged[j] = std::move(loaded_[j]->shard);
    }
    loaded_.clear();

    // Persist downloads before the target remap below rewrites them in
    // place — the store must hold the canonical global-id encoding, the
    // bytes whose fingerprint the coordinator computes.
    if (store_.has_value()) {
      std::vector<uint8_t> bytes;
      for (size_t j = 0; j < merged.size(); ++j) {
        if (!downloaded[j]) continue;
        bytes.clear();
        bytes.reserve(graph_io::EncodedShardSliceSize(merged[j]));
        graph_io::AppendShardSlice(merged[j], &bytes);
        SPINNER_RETURN_IF_ERROR(store_->Put(owned_shards_[j], bytes));
      }
    }

    SPINNER_ASSIGN_OR_RETURN(layout_, RemapToWorkerLayout(merged, n_));
    shards_ = std::move(merged);
    labels_.assign(static_cast<size_t>(layout_.num_slots()), kNoPartition);
    // Zero, not kNoPartition's low byte, until Init and Labels fill it: a
    // slot read early then stays inside every per-label table.
    label_view_.assign(UsesByteLabelView(config_.num_partitions)
                           ? static_cast<size_t>(layout_.num_slots())
                           : 0,
                       0);
    candidate_.assign(static_cast<size_t>(layout_.owned_count()),
                      kNoPartition);
    block_score_.assign(static_cast<size_t>(layout_.num_blocks()), 0.0);
    block_candidates_.assign(static_cast<size_t>(layout_.num_blocks()), 0);
    scratch_.resize(shards_.size());
    for (ShardScratch& sc : scratch_) sc.Prepare(config_.num_partitions);
    setup_done_ = true;

    SubscribeMessage subscribe;
    subscribe.vertices = layout_.subscription;
    return Send(MessageType::kSubscribe, subscribe.Encode());
  }

  Status HandleInit(std::span<const uint8_t> payload) {
    SPINNER_RETURN_IF_ERROR(CheckSetup());
    SPINNER_ASSIGN_OR_RETURN(InitRequest request,
                             InitRequest::Decode(payload));
    // The coordinator sends each worker exactly its owned slice of the
    // initial labels, based at owned_begin — the slice index IS the local
    // index the kernel uses.
    if (request.base != layout_.owned_begin ||
        static_cast<int64_t>(request.initial_labels.size()) >
            layout_.owned_count()) {
      return Status::InvalidArgument(
          "Init: label slice does not cover this worker's owned range");
    }
    SPINNER_RETURN_IF_ERROR(CheckLabelRange(
        request.initial_labels, /*allow_none=*/true, "Init: initial label"));
    std::vector<int64_t> messages;
    for (ShardedGraphStore::Shard& shard : shards_) {
      messages.push_back(ShardInitialize(config_, &shard, labels_,
                                         request.initial_labels,
                                         layout_.owned_begin, label_view_));
    }
    init_done_ = true;
    return Send(MessageType::kInitReply, StateReply(messages).Encode());
  }

  Status HandleLabels(std::span<const uint8_t> payload) {
    SPINNER_RETURN_IF_ERROR(CheckSetup());
    SPINNER_ASSIGN_OR_RETURN(LabelValues message,
                             LabelValues::Decode(payload));
    if (message.values.size() != layout_.subscription.size()) {
      return Status::InvalidArgument(
          StrFormat("Labels: %zu values for %zu subscribed vertices",
                    message.values.size(), layout_.subscription.size()));
    }
    SPINNER_RETURN_IF_ERROR(CheckLabelRange(
        message.values, /*allow_none=*/false, "Labels: mirror label"));
    const size_t mirror_base = static_cast<size_t>(layout_.owned_count());
    for (size_t i = 0; i < message.values.size(); ++i) {
      SetLabel(mirror_base + i, message.values[i]);
    }
    labels_done_ = true;
    return Status::OK();
  }

  Status HandleScores(std::span<const uint8_t> payload) {
    SPINNER_RETURN_IF_ERROR(CheckLabelsSeeded("Scores"));
    SPINNER_ASSIGN_OR_RETURN(ScoresRequest request,
                             ScoresRequest::Decode(payload));
    SPINNER_RETURN_IF_ERROR(
        CheckPerPartition(request.global_loads, "Scores loads"));
    if (static_cast<int>(request.capacities.size()) !=
        config_.num_partitions) {
      return Status::InvalidArgument("Scores: capacity vector size");
    }
    if (fail_after_score_steps_ >= 0 &&
        scores_seen_ == fail_after_score_steps_) {
      // Test hook: simulate a worker crash mid-superstep — after the
      // request was consumed, before any reply reaches the coordinator.
      _exit(3);
    }
    ++scores_seen_;
    const WallTimer timer;
    ScoresReply reply;
    reply.local_weight = 0;
    reply.migration_counts.assign(
        static_cast<size_t>(config_.num_partitions), 0);
    for (size_t i = 0; i < shards_.size(); ++i) {
      const ShardedGraphStore::Shard& shard = shards_[i];
      if (label_view_.empty()) {
        ShardComputeScores(config_, shard, labels_, request.global_loads,
                           request.capacities, request.superstep, candidate_,
                           block_score_, block_candidates_, &scratch_[i],
                           layout_.owned_begin);
      } else {
        ShardComputeScores(config_, shard,
                           std::span<const uint8_t>(label_view_),
                           request.global_loads, request.capacities,
                           request.superstep, candidate_, block_score_,
                           block_candidates_, &scratch_[i],
                           layout_.owned_begin);
      }
      const int64_t block_begin = (shard.begin - layout_.owned_begin) /
                                  ShardedGraphStore::kBlockSize;
      const int64_t block_end =
          (shard.end - layout_.owned_begin +
           ShardedGraphStore::kBlockSize - 1) /
          ShardedGraphStore::kBlockSize;
      reply.block_score.insert(reply.block_score.end(),
                               block_score_.begin() + block_begin,
                               block_score_.begin() + block_end);
      reply.local_weight += scratch_[i].local_weight;
      for (size_t l = 0; l < reply.migration_counts.size(); ++l) {
        reply.migration_counts[l] += scratch_[i].migrations[l];
      }
    }
    reply.compute_ns = timer.ElapsedNanos();
    return Send(MessageType::kScoresReply, reply.Encode());
  }

  Status HandleMigrate(std::span<const uint8_t> payload) {
    SPINNER_RETURN_IF_ERROR(CheckLabelsSeeded("Migrate"));
    SPINNER_ASSIGN_OR_RETURN(MigrateRequest request,
                             MigrateRequest::Decode(payload));
    SPINNER_RETURN_IF_ERROR(
        CheckPerPartition(request.global_loads, "Migrate loads"));
    SPINNER_RETURN_IF_ERROR(
        CheckPerPartition(request.migration_counts, "Migrate counters"));
    if (static_cast<int>(request.capacities.size()) !=
        config_.num_partitions) {
      return Status::InvalidArgument("Migrate: capacity vector size");
    }
    const WallTimer timer;
    MigrateReply reply;
    for (size_t i = 0; i < shards_.size(); ++i) {
      ShardMigrateResult result;
      result.shard = owned_shards_[i];
      ShardComputeMigrations(config_, &shards_[i], labels_,
                             request.global_loads, request.capacities,
                             request.migration_counts, request.superstep,
                             candidate_, block_candidates_, &result.moves,
                             &scratch_[i], layout_.owned_begin, label_view_);
      result.loads = shards_[i].loads;
      result.migrated = scratch_[i].migrated;
      result.messages = scratch_[i].messages;
      reply.shards.push_back(std::move(result));
    }
    reply.compute_ns = timer.ElapsedNanos();
    return Send(MessageType::kMigrateReply, reply.Encode());
  }

  Status HandleApplyDeltas(std::span<const uint8_t> payload) {
    SPINNER_RETURN_IF_ERROR(CheckLabelsSeeded("ApplyDeltas"));
    SPINNER_ASSIGN_OR_RETURN(ApplyDeltasMessage deltas,
                             ApplyDeltasMessage::Decode(payload));
    // Own moves were already applied by HandleMigrate; the coordinator
    // sends only the subscription-filtered remainder, so anything outside
    // the mirror set is a protocol violation.
    for (const LabelDelta& move : deltas.moves) {
      if (move.vertex < 0 || move.vertex >= n_ || move.label < 0 ||
          move.label >= config_.num_partitions) {
        return Status::InvalidArgument("ApplyDeltas: move out of range");
      }
      const std::vector<VertexId>& mirror = layout_.subscription;
      const auto it =
          std::lower_bound(mirror.begin(), mirror.end(), move.vertex);
      if (it == mirror.end() || *it != move.vertex) {
        return Status::InvalidArgument(StrFormat(
            "ApplyDeltas: move for unsubscribed vertex %lld",
            static_cast<long long>(move.vertex)));
      }
      SetLabel(static_cast<size_t>(layout_.owned_count()) +
                   static_cast<size_t>(it - mirror.begin()),
               move.label);
    }
    DeltasAck ack;
    ack.labels_checksum = StateChecksum();
    return Send(MessageType::kDeltasAck, ack.Encode());
  }

  /// Writes one slot's label and, when the gather reads one, its byte view.
  void SetLabel(size_t slot, PartitionId label) {
    labels_[slot] = label;
    if (!label_view_.empty()) label_view_[slot] = static_cast<uint8_t>(label);
  }

  Status HandleSnapshot() {
    SPINNER_RETURN_IF_ERROR(CheckSetup());
    return Send(MessageType::kSnapshotReply,
                StateReply(std::vector<int64_t>(shards_.size(), 0)).Encode());
  }

  /// Every owned shard's label slice and loads, with `messages[i]` as
  /// shard i's message count (InitReply and SnapshotReply).
  ShardStateReply StateReply(const std::vector<int64_t>& messages) const {
    ShardStateReply reply;
    for (size_t i = 0; i < shards_.size(); ++i) {
      const ShardedGraphStore::Shard& shard = shards_[i];
      ShardState state;
      state.shard = owned_shards_[i];
      state.labels.assign(
          labels_.begin() + (shard.begin - layout_.owned_begin),
          labels_.begin() + (shard.end - layout_.owned_begin));
      state.loads = shard.loads;
      state.messages = messages[i];
      reply.shards.push_back(std::move(state));
    }
    return reply;
  }

  int fd_;
  TransportOptions options_;
  int64_t capacity_;
  std::optional<PersistentShardStore> store_;
  uint64_t next_message_id_ = 1;
  bool assign_done_ = false;
  bool setup_done_ = false;
  /// Init and Labels seen since the last Setup (CheckLabelsSeeded).
  bool init_done_ = false;
  bool labels_done_ = false;
  SpinnerConfig config_;
  int64_t n_ = 0;
  std::vector<int32_t> owned_shards_;
  /// Store slices probed at Assign, consumed (or discarded) at Setup.
  std::vector<std::optional<PersistentShardStore::LoadedSlice>> loaded_;
  /// Owned slices with targets remapped to compact local slots.
  std::vector<ShardedGraphStore::Shard> shards_;
  WorkerLayout layout_;
  std::vector<PartitionId> labels_;     // [owned ascending][mirror]
  /// labels_ as one byte per slot when k <= 256 (UsesByteLabelView), the
  /// array ComputeScores gathers from; empty above 256. labels_ stays
  /// authoritative: checksums and state replies read it.
  std::vector<uint8_t> label_view_;
  std::vector<PartitionId> candidate_;  // owned entries only
  std::vector<double> block_score_;     // owned blocks only
  std::vector<int32_t> block_candidates_;  // owned blocks only
  std::vector<ShardScratch> scratch_;   // one per owned shard
  /// The process-wide kill knob (WorkerLoopOptions); survives ResetRun.
  int32_t loop_fail_after_score_steps_ = -1;
  /// The effective per-run kill knob (loop value, or the Assign override).
  int32_t fail_after_score_steps_ = -1;
  int32_t scores_seen_ = 0;
};

}  // namespace

int RunShardWorkerLoop(int fd, const TransportOptions& options,
                       const WorkerLoopOptions& loop) {
  return ShardWorker(fd, options, loop).Run();
}

int RunTcpWorker(const std::string& connect_address,
                 const TransportOptions& options,
                 const WorkerLoopOptions& loop) {
  auto socket = TcpDial(connect_address, loop.dial_timeout_ms);
  if (!socket.ok()) {
    std::fprintf(stderr, "worker: %s\n",
                 socket.status().ToString().c_str());
    return 1;
  }
  return ShardWorker(socket->fd(), options, loop).Run();
}

}  // namespace spinner::dist
