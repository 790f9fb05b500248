// Failure detection and recovery for the cross-process execution modes:
// the FaultPlan syntax, the FaultInjectingTransport chaos proxy, and the
// central robustness guarantee — a run that loses a worker mid-superstep
// (crash, dropped reply, corrupt stream, or closed connection) detects
// the failure within the rpc deadline, rebuilds its fleet, replays the
// checkpointed label state, and finishes with assignments and float
// φ/ρ/score histories bit-identical to a failure-free run. With recovery
// disabled (the default) the same faults surface as clean Statuses —
// never hangs — preserving the pre-recovery contract.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/threadpool.h"
#include "dist/coordinator.h"
#include "dist/fault_injection.h"
#include "dist/registry.h"
#include "dist/transport.h"
#include "graph/conversion.h"
#include "graph/generators.h"
#include "graph/sharded_store.h"
#include "spinner/sharded_program.h"

namespace spinner {
namespace {

using dist::FaultAction;
using dist::FaultDirection;
using dist::FaultInjectingTransport;
using dist::FaultPlan;
using dist::MultiProcessOptions;

CsrGraph SmallWorldConverted(int64_t n, uint64_t seed = 11) {
  auto ws = WattsStrogatz(n, 3, 0.3, seed);
  SPINNER_CHECK(ws.ok());
  auto converted = BuildSymmetric(ws->num_vertices, ws->edges);
  SPINNER_CHECK(converted.ok());
  return std::move(converted).value();
}

/// One in-process reference run over a fresh store.
Result<ShardedRunResult> ReferenceRun(const SpinnerConfig& config,
                                      const CsrGraph& g, int num_shards,
                                      std::vector<PartitionId>* labels) {
  auto store = ShardedGraphStore::Build(g, num_shards);
  if (!store.ok()) return store.status();
  ThreadPool pool(2);
  std::vector<PartitionId> no_labels(g.NumVertices(), kNoPartition);
  auto run = RunShardedSpinner(config, &*store, no_labels, &pool, nullptr);
  if (run.ok()) *labels = store->labels();
  return run;
}

/// The config every recovery test runs: small graph, fixed schedule (no
/// halting) so reference and recovered runs walk identical iterations.
SpinnerConfig RecoveryConfig() {
  SpinnerConfig config;
  config.num_partitions = 4;
  config.seed = 7;
  config.max_iterations = 6;
  config.use_halting = false;
  return config;
}

/// Recovery knobs tuned for tests: tight deadlines so a dropped reply is
/// declared within ~a second, near-zero backoff between attempts.
void ArmRecovery(MultiProcessOptions* options, int attempts) {
  options->rpc_timeout_ms = 2'000;
  options->heartbeat_period_ms = 25;
  options->max_recovery_attempts = attempts;
}

/// Asserts a recovered run reproduced the failure-free reference
/// bit-for-bit: assignment, iteration count, and every float in the
/// convergence history.
void ExpectBitIdentical(const ShardedRunResult& run,
                        const ShardedRunResult& reference,
                        const std::vector<PartitionId>& labels,
                        const std::vector<PartitionId>& reference_labels) {
  EXPECT_EQ(labels, reference_labels);
  EXPECT_EQ(run.iterations, reference.iterations);
  EXPECT_EQ(run.converged, reference.converged);
  ASSERT_EQ(run.history.size(), reference.history.size());
  for (size_t i = 0; i < run.history.size(); ++i) {
    EXPECT_EQ(run.history[i].score, reference.history[i].score) << i;
    EXPECT_EQ(run.history[i].phi, reference.history[i].phi) << i;
    EXPECT_EQ(run.history[i].rho, reference.history[i].rho) << i;
    EXPECT_EQ(run.history[i].loads, reference.history[i].loads) << i;
  }
}

// --- FaultPlan parsing -----------------------------------------------------

TEST(FaultPlanTest, ParsesTheCompactSyntax) {
  auto plan = FaultPlan::Parse(
      "seed=42;drop:dir=w2c:worker=1:frame=12;"
      "delay:p=0.25:ms=3;corrupt:dir=c2w:frame=0;close:worker=0:frame=5");
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_EQ(plan->seed, 42u);
  ASSERT_EQ(plan->rules.size(), 4u);

  EXPECT_EQ(plan->rules[0].action, FaultAction::kDrop);
  EXPECT_EQ(plan->rules[0].direction, FaultDirection::kWorkerToCoordinator);
  EXPECT_EQ(plan->rules[0].worker, 1);
  EXPECT_EQ(plan->rules[0].frame_index, 12);

  EXPECT_EQ(plan->rules[1].action, FaultAction::kDelay);
  EXPECT_EQ(plan->rules[1].direction, FaultDirection::kBoth);
  EXPECT_EQ(plan->rules[1].worker, -1);  // every connection
  EXPECT_DOUBLE_EQ(plan->rules[1].probability, 0.25);
  EXPECT_EQ(plan->rules[1].delay_ms, 3);

  EXPECT_EQ(plan->rules[2].action, FaultAction::kCorrupt);
  EXPECT_EQ(plan->rules[2].direction, FaultDirection::kCoordinatorToWorker);
  EXPECT_EQ(plan->rules[2].frame_index, 0);

  EXPECT_EQ(plan->rules[3].action, FaultAction::kClose);
  EXPECT_EQ(plan->rules[3].worker, 0);

  // worker=all is the explicit spelling of the default.
  auto all = FaultPlan::Parse("drop:worker=all:frame=1");
  ASSERT_TRUE(all.ok()) << all.status();
  EXPECT_EQ(all->rules[0].worker, -1);

  // The empty plan is valid (no rules — a transparent proxy).
  EXPECT_TRUE(FaultPlan::Parse("").ok());
}

TEST(FaultPlanTest, RejectsMalformedSpecs) {
  // Unknown action / key.
  EXPECT_FALSE(FaultPlan::Parse("explode:frame=1").ok());
  EXPECT_FALSE(FaultPlan::Parse("drop:frames=1").ok());
  // A field that is not key=value.
  EXPECT_FALSE(FaultPlan::Parse("drop:frame").ok());
  // Probability outside [0, 1].
  EXPECT_FALSE(FaultPlan::Parse("drop:p=1.5").ok());
  EXPECT_FALSE(FaultPlan::Parse("drop:p=-0.1").ok());
  // A rule with neither an exact frame nor a positive probability can
  // never fire — that is a spec bug, not a no-op.
  EXPECT_FALSE(FaultPlan::Parse("drop").ok());
  EXPECT_FALSE(FaultPlan::Parse("drop:dir=w2c").ok());
  // Unparseable numbers.
  EXPECT_FALSE(FaultPlan::Parse("seed=banana").ok());
  EXPECT_FALSE(FaultPlan::Parse("drop:frame=x").ok());
  // A worker outside [0, INT_MAX] would silently target every connection
  // (negative) or a truncated ordinal (2^32 -> 0).
  EXPECT_FALSE(FaultPlan::Parse("drop:worker=-5:frame=1").ok());
  EXPECT_FALSE(FaultPlan::Parse("drop:worker=4294967296:frame=1").ok());
  // A NaN probability compares false against every coin: it never fires.
  EXPECT_FALSE(FaultPlan::Parse("drop:p=nan").ok());
}

// --- Crash recovery (no proxy: the worker really dies) ---------------------

TEST(RecoverySpinnerTest, CrashedWorkerIsReplacedAndRunIsBitIdentical) {
  const CsrGraph g = SmallWorldConverted(800, 17);
  const SpinnerConfig config = RecoveryConfig();
  std::vector<PartitionId> reference_labels;
  auto reference = ReferenceRun(config, g, 4, &reference_labels);
  ASSERT_TRUE(reference.ok());

  for (const int fail_worker : {0, 1}) {
    auto store = ShardedGraphStore::Build(g, 4);
    ASSERT_TRUE(store.ok());
    MultiProcessOptions options;
    options.num_workers = 2;
    options.fail_after_score_steps = 2;  // dies in its 3rd ComputeScores
    options.fail_worker = fail_worker;
    ArmRecovery(&options, /*attempts=*/2);
    std::vector<PartitionId> no_labels(g.NumVertices(), kNoPartition);
    auto run = dist::RunMultiProcessSpinner(config, &*store, no_labels,
                                            options, nullptr);
    ASSERT_TRUE(run.ok()) << "fail_worker=" << fail_worker << ": "
                          << run.status();
    ExpectBitIdentical(*run, *reference, store->labels(), reference_labels);
    // The crash was detected, the fleet rebuilt, and a replacement forked
    // (the crash hook is injected only by the initial Spawn, so the
    // rebuilt fleet runs clean).
    EXPECT_GE(run->wire.recoveries, 1);
    EXPECT_GE(run->wire.workers_replaced, 1);
  }
}

TEST(RecoverySpinnerTest, ExhaustedAttemptsSurfaceTheUnderlyingError) {
  const CsrGraph g = SmallWorldConverted(600, 5);
  const SpinnerConfig config = RecoveryConfig();
  auto store = ShardedGraphStore::Build(g, 4);
  ASSERT_TRUE(store.ok());

  // Every connection — including recovery replacements — dies on its
  // first ScoresReply, so no amount of rebuilding can make progress.
  dist::UnixSocketTransport unix_transport;
  auto plan = FaultPlan::Parse("close:dir=w2c:frame=3");
  ASSERT_TRUE(plan.ok()) << plan.status();
  FaultInjectingTransport faulty(&unix_transport, std::move(*plan));

  MultiProcessOptions options;
  options.num_workers = 2;
  options.worker_transport = &faulty;
  ArmRecovery(&options, /*attempts=*/1);
  std::vector<PartitionId> no_labels(g.NumVertices(), kNoPartition);
  auto run = dist::RunMultiProcessSpinner(config, &*store, no_labels,
                                          options, nullptr);
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kIOError) << run.status();
  // Initial fleet + one rebuilt fleet, every connection killed once.
  EXPECT_GE(faulty.counters().connections_closed.load(), 2);
}

// --- Scripted frame faults through the chaos proxy -------------------------
//
// Frame ordinals are per connection and per direction; the Hello is
// consumed by the inner transport before the proxy interposes, so on the
// worker→coordinator side: Resume=0, Subscribe=1, InitReply=2, then per
// iteration ScoresReply, MigrateReply, DeltasAck (3, 4, 5 for the first).

TEST(RecoverySpinnerTest, DroppedReplySurfacesDeadlineExceededNotAHang) {
  const CsrGraph g = SmallWorldConverted(600, 5);
  const SpinnerConfig config = RecoveryConfig();
  auto store = ShardedGraphStore::Build(g, 4);
  ASSERT_TRUE(store.ok());

  dist::UnixSocketTransport unix_transport;
  // Swallow worker 0's second-iteration ScoresReply. The worker stays
  // alive and connected — only a read deadline can notice.
  auto plan = FaultPlan::Parse("drop:dir=w2c:worker=0:frame=6");
  ASSERT_TRUE(plan.ok()) << plan.status();
  FaultInjectingTransport faulty(&unix_transport, std::move(*plan));

  MultiProcessOptions options;
  options.num_workers = 2;
  options.worker_transport = &faulty;
  options.rpc_timeout_ms = 1'000;
  options.heartbeat_period_ms = 25;
  // Recovery stays off: the deadline itself is under test.
  std::vector<PartitionId> no_labels(g.NumVertices(), kNoPartition);
  auto run = dist::RunMultiProcessSpinner(config, &*store, no_labels,
                                          options, nullptr);
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kDeadlineExceeded)
      << run.status();
  EXPECT_NE(run.status().message().find("hung"), std::string::npos)
      << run.status();
  EXPECT_EQ(faulty.counters().frames_dropped.load(), 1);
}

TEST(RecoverySpinnerTest, DroppedReplyRecoversBitIdentical) {
  const CsrGraph g = SmallWorldConverted(800, 17);
  const SpinnerConfig config = RecoveryConfig();
  std::vector<PartitionId> reference_labels;
  auto reference = ReferenceRun(config, g, 4, &reference_labels);
  ASSERT_TRUE(reference.ok());

  auto store = ShardedGraphStore::Build(g, 4);
  ASSERT_TRUE(store.ok());
  dist::UnixSocketTransport unix_transport;
  auto plan = FaultPlan::Parse("drop:dir=w2c:worker=0:frame=6");
  ASSERT_TRUE(plan.ok()) << plan.status();
  FaultInjectingTransport faulty(&unix_transport, std::move(*plan));

  MultiProcessOptions options;
  options.num_workers = 2;
  options.worker_transport = &faulty;
  ArmRecovery(&options, /*attempts=*/2);
  options.rpc_timeout_ms = 1'000;  // the drop costs one deadline wait
  std::vector<PartitionId> no_labels(g.NumVertices(), kNoPartition);
  auto run = dist::RunMultiProcessSpinner(config, &*store, no_labels,
                                          options, nullptr);
  ASSERT_TRUE(run.ok()) << run.status();
  ExpectBitIdentical(*run, *reference, store->labels(), reference_labels);
  EXPECT_GE(run->wire.recoveries, 1);
  EXPECT_EQ(faulty.counters().frames_dropped.load(), 1);
}

TEST(RecoverySpinnerTest, CorruptChecksumAckRecoversBitIdentical) {
  const CsrGraph g = SmallWorldConverted(800, 17);
  const SpinnerConfig config = RecoveryConfig();
  std::vector<PartitionId> reference_labels;
  auto reference = ReferenceRun(config, g, 4, &reference_labels);
  ASSERT_TRUE(reference.ok());

  auto store = ShardedGraphStore::Build(g, 4);
  ASSERT_TRUE(store.ok());
  dist::UnixSocketTransport unix_transport;
  // Flip a byte in worker 0's first DeltasAck — the 8-byte state checksum
  // the coordinator verifies every iteration. The mismatch must be
  // detected (a corrupt plain frame would otherwise pass silently; the
  // ack checksum is exactly the cross-process state gate).
  auto plan = FaultPlan::Parse("corrupt:dir=w2c:worker=0:frame=5");
  ASSERT_TRUE(plan.ok()) << plan.status();
  FaultInjectingTransport faulty(&unix_transport, std::move(*plan));

  MultiProcessOptions options;
  options.num_workers = 2;
  options.worker_transport = &faulty;
  ArmRecovery(&options, /*attempts=*/2);
  std::vector<PartitionId> no_labels(g.NumVertices(), kNoPartition);
  auto run = dist::RunMultiProcessSpinner(config, &*store, no_labels,
                                          options, nullptr);
  ASSERT_TRUE(run.ok()) << run.status();
  ExpectBitIdentical(*run, *reference, store->labels(), reference_labels);
  EXPECT_GE(run->wire.recoveries, 1);
  EXPECT_EQ(faulty.counters().frames_corrupted.load(), 1);
}

TEST(RecoverySpinnerTest, ClosedConnectionRecoversBitIdentical) {
  const CsrGraph g = SmallWorldConverted(800, 17);
  const SpinnerConfig config = RecoveryConfig();
  std::vector<PartitionId> reference_labels;
  auto reference = ReferenceRun(config, g, 4, &reference_labels);
  ASSERT_TRUE(reference.ok());

  auto store = ShardedGraphStore::Build(g, 4);
  ASSERT_TRUE(store.ok());
  dist::UnixSocketTransport unix_transport;
  // Sever worker 0's connection as it sends its first ScoresReply — to
  // the coordinator this is indistinguishable from a crashed process.
  auto plan = FaultPlan::Parse("close:dir=w2c:worker=0:frame=3");
  ASSERT_TRUE(plan.ok()) << plan.status();
  FaultInjectingTransport faulty(&unix_transport, std::move(*plan));

  MultiProcessOptions options;
  options.num_workers = 2;
  options.worker_transport = &faulty;
  ArmRecovery(&options, /*attempts=*/2);
  std::vector<PartitionId> no_labels(g.NumVertices(), kNoPartition);
  auto run = dist::RunMultiProcessSpinner(config, &*store, no_labels,
                                          options, nullptr);
  ASSERT_TRUE(run.ok()) << run.status();
  ExpectBitIdentical(*run, *reference, store->labels(), reference_labels);
  EXPECT_GE(run->wire.recoveries, 1);
  EXPECT_GE(run->wire.workers_replaced, 1);
  EXPECT_EQ(faulty.counters().connections_closed.load(), 1);
}

TEST(RecoverySpinnerTest, PureDelayFaultsNeverChangeTheResult) {
  const CsrGraph g = SmallWorldConverted(800, 17);
  const SpinnerConfig config = RecoveryConfig();
  std::vector<PartitionId> reference_labels;
  auto reference = ReferenceRun(config, g, 4, &reference_labels);
  ASSERT_TRUE(reference.ok());

  auto store = ShardedGraphStore::Build(g, 4);
  ASSERT_TRUE(store.ok());
  dist::UnixSocketTransport unix_transport;
  // Delays preserve bytes, so even with recovery OFF a delay-riddled run
  // must be failure-free and bit-identical — the chaos smoke invariant.
  auto plan = FaultPlan::Parse("seed=9;delay:p=0.2:ms=2");
  ASSERT_TRUE(plan.ok()) << plan.status();
  FaultInjectingTransport faulty(&unix_transport, std::move(*plan));

  MultiProcessOptions options;
  options.num_workers = 2;
  options.worker_transport = &faulty;
  std::vector<PartitionId> no_labels(g.NumVertices(), kNoPartition);
  auto run = dist::RunMultiProcessSpinner(config, &*store, no_labels,
                                          options, nullptr);
  ASSERT_TRUE(run.ok()) << run.status();
  ExpectBitIdentical(*run, *reference, store->labels(), reference_labels);
  EXPECT_EQ(run->wire.recoveries, 0);
  EXPECT_GT(faulty.counters().frames_delayed.load(), 0);
}

}  // namespace
}  // namespace spinner
