// The TCP execution mode: Hello/Assign/Resume codec round trips, the
// WorkerRegistry accept/handshake/pool lifecycle, and the same central
// guarantees the unix-socket lane asserts — bit-identity to the
// in-process substrate across {num_shards, num_workers} shapes, a worker
// death mid-superstep surfacing a clean Status (never a hang) — plus the
// TCP-only one: a worker re-dialing (or kept pooled) with a matching
// PersistentShardStore fingerprint resumes with zero slice download,
// asserted through the coordinator's download counters.
#include <gtest/gtest.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/threadpool.h"
#include "dist/coordinator.h"
#include "dist/fault_injection.h"
#include "dist/registry.h"
#include "dist/shard_store.h"
#include "dist/tcp_transport.h"
#include "dist/transport.h"
#include "dist/wire_format.h"
#include "dist/worker.h"
#include "graph/conversion.h"
#include "graph/delta.h"
#include "graph/generators.h"
#include "graph/sharded_store.h"
#include "spinner/session.h"
#include "spinner/sharded_program.h"
#include "slice_v1_reference.h"

namespace spinner {
namespace {

using dist::MessageType;
using dist::MultiProcessOptions;
using dist::RegistryOptions;
using dist::WorkerRegistry;

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

/// Forks a dial-in worker process running the full TCP worker loop.
pid_t ForkTcpWorker(const std::string& address,
                    const dist::TransportOptions& transport,
                    const dist::WorkerLoopOptions& loop = {}) {
  const pid_t pid = fork();
  SPINNER_CHECK(pid >= 0);
  if (pid == 0) {
    _exit(dist::RunTcpWorker(address, transport, loop));
  }
  return pid;
}

void ReapAll(std::vector<pid_t>* pids) {
  for (const pid_t pid : *pids) {
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  }
  pids->clear();
}

// --- Handshake codecs ------------------------------------------------------

TEST(TcpWireFormatTest, HelloAssignResumeRoundTrip) {
  dist::HelloMessage hello;
  hello.capacity = 4;
  auto hello2 = dist::HelloMessage::Decode(hello.Encode());
  ASSERT_TRUE(hello2.ok()) << hello2.status();
  EXPECT_EQ(hello2->protocol_version, dist::kProtocolVersion);
  EXPECT_EQ(hello2->capacity, 4);

  dist::AssignMessage assign;
  assign.num_partitions = 8;
  assign.seed = 99;
  assign.balance_on_vertices = 1;
  assign.per_worker_async = 0;
  assign.num_vertices = 4096;
  assign.num_shards_total = 6;
  assign.owned_shards = {2, 3, 4};
  assign.fail_after_score_steps = 7;
  auto assign2 = dist::AssignMessage::Decode(assign.Encode());
  ASSERT_TRUE(assign2.ok()) << assign2.status();
  EXPECT_EQ(assign2->num_partitions, 8);
  EXPECT_EQ(assign2->seed, 99u);
  EXPECT_EQ(assign2->owned_shards, assign.owned_shards);
  EXPECT_EQ(assign2->fail_after_score_steps, 7);
  const SpinnerConfig config = assign2->ToConfig();
  EXPECT_EQ(config.num_partitions, 8);
  EXPECT_EQ(config.balance_mode, BalanceMode::kVertices);
  EXPECT_FALSE(config.per_worker_async);

  dist::ResumeMessage resume;
  resume.fingerprints = {11, 0, 13};
  auto resume2 = dist::ResumeMessage::Decode(resume.Encode());
  ASSERT_TRUE(resume2.ok());
  EXPECT_EQ(resume2->fingerprints, resume.fingerprints);
}

TEST(TcpWireFormatTest, HandshakeDecodersRejectMalformedPayloads) {
  dist::AssignMessage assign;
  assign.owned_shards = {0, 1};
  const std::vector<uint8_t> bytes = assign.Encode();
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    std::vector<uint8_t> truncated(bytes.begin(), bytes.begin() + cut);
    EXPECT_FALSE(dist::AssignMessage::Decode(truncated).ok())
        << "cut=" << cut;
  }
  // An owned-shard count larger than the payload is rejected before any
  // allocation.
  std::vector<uint8_t> huge_count = bytes;
  const size_t count_at = 4 + 8 + 1 + 1 + 8 + 4;
  ASSERT_LT(count_at + 8, huge_count.size());
  for (size_t i = 0; i < 8; ++i) huge_count[count_at + i] = 0xff;
  EXPECT_FALSE(dist::AssignMessage::Decode(huge_count).ok());

  EXPECT_FALSE(dist::HelloMessage::Decode({}).ok());
  EXPECT_FALSE(dist::ResumeMessage::Decode({}).ok());
}

// --- Registry lifecycle ----------------------------------------------------

TEST(TcpRegistryTest, AcquireTimesOutWhenNobodyDialsIn) {
  RegistryOptions options;
  options.handshake_timeout_ms = 200;
  auto registry = WorkerRegistry::Listen(options);
  ASSERT_TRUE(registry.ok()) << registry.status();
  auto acquired =
      (*registry)->Acquire(1, dist::TransportOptions{}, std::nullopt);
  ASSERT_FALSE(acquired.ok());
  EXPECT_EQ(acquired.status().code(), StatusCode::kIOError);
  EXPECT_NE(acquired.status().message().find("dialed in"),
            std::string::npos)
      << acquired.status();
}

TEST(TcpRegistryTest, VersionMismatchIsRejectedWithErrorFrame) {
  // Protocol 6 drops Assign's slice fingerprints, so a version-5 worker
  // (which would read the shard list and then fingerprints) must be
  // turned away too.
  EXPECT_EQ(dist::kProtocolVersion, 6u);
  for (const uint32_t version :
       {dist::kProtocolVersion + 7, dist::kProtocolVersion - 1}) {
    RegistryOptions options;
    options.handshake_timeout_ms = 300;
    auto registry = WorkerRegistry::Listen(options);
    ASSERT_TRUE(registry.ok()) << registry.status();

    // Dial in by hand and advertise the wrong protocol version.
    auto conn = dist::TcpDial((*registry)->address(), 2000);
    ASSERT_TRUE(conn.ok()) << conn.status();
    dist::HelloMessage hello;
    hello.protocol_version = version;
    const dist::TransportOptions transport;
    ASSERT_TRUE(dist::SendMessage(conn->fd(),
                                  static_cast<uint32_t>(MessageType::kHello),
                                  hello.Encode(), transport, 1)
                    .ok());

    // The registry rejects the connection and keeps waiting for a valid
    // fleet, which never arrives.
    auto acquired = (*registry)->Acquire(1, transport, std::nullopt);
    ASSERT_FALSE(acquired.ok()) << "version " << version;
    EXPECT_EQ((*registry)->handshakes_rejected(), 1) << "version " << version;
    EXPECT_EQ((*registry)->handshakes_completed(), 0)
        << "version " << version;

    // The rejected worker received an Error frame saying why.
    auto frame = dist::RecvMessage(conn->fd(), transport);
    ASSERT_TRUE(frame.ok()) << frame.status();
    EXPECT_EQ(frame->type, static_cast<uint32_t>(MessageType::kError));
    const std::string reason(frame->payload.begin(), frame->payload.end());
    EXPECT_NE(reason.find("protocol version mismatch: worker speaks " +
                          std::to_string(version)),
              std::string::npos)
        << reason;
  }
}

TEST(TcpRegistryTest, DeadPooledConnectionsAreDroppedNotHandedOut) {
  RegistryOptions options;
  options.handshake_timeout_ms = 300;
  auto registry = WorkerRegistry::Listen(options);
  ASSERT_TRUE(registry.ok()) << registry.status();
  const dist::TransportOptions transport;

  const pid_t pid = ForkTcpWorker((*registry)->address(), transport);
  auto acquired = (*registry)->Acquire(1, transport, std::nullopt);
  ASSERT_TRUE(acquired.ok()) << acquired.status();
  ASSERT_EQ(acquired->size(), 1u);
  EXPECT_EQ((*registry)->handshakes_completed(), 1);
  (*registry)->Release(std::move(*acquired));
  EXPECT_EQ((*registry)->num_pooled(), 1);

  // The pooled worker dies; its connection must be detected and dropped,
  // not handed to the next run.
  ASSERT_EQ(::kill(pid, SIGKILL), 0);
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  auto again = (*registry)->Acquire(1, transport, std::nullopt);
  ASSERT_FALSE(again.ok());
  EXPECT_EQ(again.status().code(), StatusCode::kIOError);
  EXPECT_EQ((*registry)->num_pooled(), 0);
}

// --- Full runs over TCP ----------------------------------------------------

TEST(TcpSpinnerTest, BitIdenticalToInProcessAcrossShapes) {
  const CsrGraph g = SmallWorldConverted(1100, 21);
  SpinnerConfig config;
  config.num_partitions = 6;
  config.seed = 7;
  config.max_iterations = 10;
  config.use_halting = false;

  for (const int num_shards : {1, 2, 7}) {
    std::vector<PartitionId> reference_labels;
    auto reference =
        ReferenceRun(config, g, num_shards, &reference_labels);
    ASSERT_TRUE(reference.ok());
    for (const int num_workers : {1, 3}) {
      auto registry = WorkerRegistry::Listen(RegistryOptions{});
      ASSERT_TRUE(registry.ok()) << registry.status();
      MultiProcessOptions options;
      options.num_workers = num_workers;
      options.worker_transport = registry->get();
      std::vector<pid_t> workers;
      for (int w = 0; w < num_workers; ++w) {
        workers.push_back(
            ForkTcpWorker((*registry)->address(), options.transport));
      }

      auto store = ShardedGraphStore::Build(g, num_shards);
      ASSERT_TRUE(store.ok());
      std::vector<PartitionId> no_labels(g.NumVertices(), kNoPartition);
      auto run = dist::RunMultiProcessSpinner(config, &*store, no_labels,
                                              options, nullptr);
      ASSERT_TRUE(run.ok())
          << "S=" << num_shards << " W=" << num_workers << ": "
          << run.status();
      EXPECT_EQ(store->labels(), reference_labels)
          << "S=" << num_shards << " W=" << num_workers;
      EXPECT_EQ(run->iterations, reference->iterations);
      EXPECT_EQ(run->converged, reference->converged);
      // The float convergence curves must match bit-for-bit too.
      ASSERT_EQ(run->history.size(), reference->history.size());
      for (size_t i = 0; i < run->history.size(); ++i) {
        EXPECT_EQ(run->history[i].score, reference->history[i].score) << i;
        EXPECT_EQ(run->history[i].phi, reference->history[i].phi) << i;
        EXPECT_EQ(run->history[i].rho, reference->history[i].rho) << i;
        EXPECT_EQ(run->history[i].loads, reference->history[i].loads) << i;
      }

      // A clean run released every connection back to the pool; dropping
      // the registry closes them and the workers exit 0 (idle EOF).
      EXPECT_EQ((*registry)->num_pooled(), num_workers);
      registry->reset();
      for (const pid_t pid : workers) {
        int status = 0;
        ASSERT_EQ(::waitpid(pid, &status, 0), pid);
        EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
            << "worker pid " << pid << " status " << status;
      }
    }
  }
}

TEST(TcpSpinnerTest, WorkerDiesMidSuperstepSurfacesStatusNeverHangs) {
  const CsrGraph g = SmallWorldConverted(800, 17);
  SpinnerConfig config;
  config.num_partitions = 4;
  config.max_iterations = 20;
  config.use_halting = false;
  for (const int fail_worker : {0, 1}) {
    auto registry = WorkerRegistry::Listen(RegistryOptions{});
    ASSERT_TRUE(registry.ok()) << registry.status();
    MultiProcessOptions options;
    options.num_workers = 2;
    options.worker_transport = registry->get();
    options.fail_after_score_steps = 2;  // dies in its 3rd ComputeScores
    options.fail_worker = fail_worker;
    std::vector<pid_t> workers;
    for (int w = 0; w < 2; ++w) {
      workers.push_back(
          ForkTcpWorker((*registry)->address(), options.transport));
    }

    auto store = ShardedGraphStore::Build(g, 4);
    ASSERT_TRUE(store.ok());
    std::vector<PartitionId> no_labels(g.NumVertices(), kNoPartition);
    auto run = dist::RunMultiProcessSpinner(config, &*store, no_labels,
                                            options, nullptr);
    ASSERT_FALSE(run.ok()) << "fail_worker=" << fail_worker;
    EXPECT_EQ(run.status().code(), StatusCode::kIOError) << run.status();
    // The error names the worker so operators can find the corpse.
    EXPECT_NE(run.status().message().find("died"), std::string::npos)
        << run.status();
    registry->reset();
    ReapAll(&workers);
  }
}

TEST(TcpSpinnerTest, LostTeardownAckPoolsOnlyTheWorkerThatAcked) {
  // Every run ends on one retire path: each worker is probed with the
  // Teardown handshake, the ones that ack are released, the rest are
  // destroyed. Here worker 1's connection closes as it sends its
  // TeardownAck after an otherwise clean run: the run reports the
  // IOError, and worker 0, which acked, is still pooled.
  const CsrGraph g = SmallWorldConverted(800, 17);
  SpinnerConfig config;
  config.num_partitions = 4;
  config.max_iterations = 3;  // M
  config.use_halting = false;
  auto registry = WorkerRegistry::Listen(RegistryOptions{});
  ASSERT_TRUE(registry.ok()) << registry.status();
  // Worker→coordinator frames per connection (the Hello is consumed
  // before the proxy interposes): Resume=0, Subscribe=1, InitReply=2,
  // ScoresReply/MigrateReply/DeltasAck for each of the first M-1
  // iterations, the last iteration's ScoresReply (it stops before
  // migrating), SnapshotReply, then TeardownAck = 3M+2 = 11.
  auto plan = dist::FaultPlan::Parse("close:dir=w2c:worker=1:frame=11");
  ASSERT_TRUE(plan.ok()) << plan.status();
  auto faulty = std::make_unique<dist::FaultInjectingTransport>(
      registry->get(), std::move(*plan));
  MultiProcessOptions options;
  options.num_workers = 2;
  options.worker_transport = faulty.get();
  std::vector<pid_t> workers;
  for (int w = 0; w < 2; ++w) {
    workers.push_back(ForkTcpWorker((*registry)->address(), options.transport));
  }

  auto store = ShardedGraphStore::Build(g, 4);
  ASSERT_TRUE(store.ok());
  std::vector<PartitionId> no_labels(g.NumVertices(), kNoPartition);
  auto run = dist::RunMultiProcessSpinner(config, &*store, no_labels,
                                          options, nullptr);
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kIOError) << run.status();
  EXPECT_EQ(faulty->counters().connections_closed.load(), 1);
  EXPECT_EQ((*registry)->num_pooled(), 1);

  faulty.reset();
  registry->reset();
  ReapAll(&workers);
}

TEST(TcpSpinnerTest, LostWorkerFailsOverToSurvivorsBitIdentical) {
  // The acceptance scenario: a TCP run loses 1 of 3 workers
  // mid-superstep; with recovery armed the coordinator tears the fleet
  // down to the survivors (no replacement ever dials in), re-carves the
  // dead worker's shard range onto them, replays label state, and
  // finishes byte-identical to the failure-free in-process run.
  const CsrGraph g = SmallWorldConverted(900, 23);
  SpinnerConfig config;
  config.num_partitions = 5;
  config.seed = 3;
  config.max_iterations = 6;
  config.use_halting = false;
  const int kShards = 6;

  std::vector<PartitionId> reference_labels;
  auto reference = ReferenceRun(config, g, kShards, &reference_labels);
  ASSERT_TRUE(reference.ok());

  auto registry = WorkerRegistry::Listen(RegistryOptions{});
  ASSERT_TRUE(registry.ok()) << registry.status();
  MultiProcessOptions options;
  options.num_workers = 3;
  options.worker_transport = registry->get();
  options.fail_after_score_steps = 2;  // worker 1 dies mid-superstep
  options.fail_worker = 1;
  options.max_recovery_attempts = 2;
  options.heartbeat_period_ms = 25;
  // Bounds the wait for a replacement that never comes.
  options.rpc_timeout_ms = 1'500;
  std::vector<pid_t> workers;
  for (int w = 0; w < 3; ++w) {
    workers.push_back(
        ForkTcpWorker((*registry)->address(), options.transport));
  }

  auto store = ShardedGraphStore::Build(g, kShards);
  ASSERT_TRUE(store.ok());
  std::vector<PartitionId> no_labels(g.NumVertices(), kNoPartition);
  auto run = dist::RunMultiProcessSpinner(config, &*store, no_labels,
                                          options, nullptr);
  ASSERT_TRUE(run.ok()) << run.status();
  EXPECT_EQ(store->labels(), reference_labels);
  EXPECT_EQ(run->iterations, reference->iterations);
  ASSERT_EQ(run->history.size(), reference->history.size());
  for (size_t i = 0; i < run->history.size(); ++i) {
    EXPECT_EQ(run->history[i].score, reference->history[i].score) << i;
    EXPECT_EQ(run->history[i].phi, reference->history[i].phi) << i;
    EXPECT_EQ(run->history[i].rho, reference->history[i].rho) << i;
    EXPECT_EQ(run->history[i].loads, reference->history[i].loads) << i;
  }
  EXPECT_GE(run->wire.recoveries, 1);
  EXPECT_EQ(run->wire.workers_replaced, 0);  // survivors absorbed it

  // The two survivors were released back to the pool; the third is a
  // corpse with exit code 3 (the crash hook).
  EXPECT_EQ((*registry)->num_pooled(), 2);
  registry->reset();
  int crashed = 0;
  for (const pid_t pid : workers) {
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status));
    if (WEXITSTATUS(status) == 3) {
      ++crashed;
    } else {
      EXPECT_EQ(WEXITSTATUS(status), 0) << "worker pid " << pid;
    }
  }
  EXPECT_EQ(crashed, 1);
}

TEST(TcpSpinnerTest, ReplacementDialInTakesOverTheDeadWorkersShards) {
  // Failover with a spare: a 4th worker dials in while the fleet is
  // being rebuilt and adopts the dead worker's range — the run completes
  // with a full-strength fleet and workers_replaced records the top-up.
  const CsrGraph g = SmallWorldConverted(900, 23);
  SpinnerConfig config;
  config.num_partitions = 5;
  config.seed = 3;
  config.max_iterations = 6;
  config.use_halting = false;
  const int kShards = 6;

  std::vector<PartitionId> reference_labels;
  auto reference = ReferenceRun(config, g, kShards, &reference_labels);
  ASSERT_TRUE(reference.ok());

  auto registry = WorkerRegistry::Listen(RegistryOptions{});
  ASSERT_TRUE(registry.ok()) << registry.status();
  MultiProcessOptions options;
  options.num_workers = 3;
  options.worker_transport = registry->get();
  options.fail_after_score_steps = 1;
  options.fail_worker = 0;
  options.max_recovery_attempts = 2;
  options.heartbeat_period_ms = 25;
  options.rpc_timeout_ms = 10'000;  // plenty for the spare to hande over
  std::vector<pid_t> workers;
  for (int w = 0; w < 3; ++w) {
    workers.push_back(
        ForkTcpWorker((*registry)->address(), options.transport));
  }
  // The spare dials in immediately; it idles in the accept queue until
  // the recovery top-up acquires it.
  workers.push_back(
      ForkTcpWorker((*registry)->address(), options.transport));

  auto store = ShardedGraphStore::Build(g, kShards);
  ASSERT_TRUE(store.ok());
  std::vector<PartitionId> no_labels(g.NumVertices(), kNoPartition);
  auto run = dist::RunMultiProcessSpinner(config, &*store, no_labels,
                                          options, nullptr);
  ASSERT_TRUE(run.ok()) << run.status();
  EXPECT_EQ(store->labels(), reference_labels);
  ASSERT_EQ(run->history.size(), reference->history.size());
  for (size_t i = 0; i < run->history.size(); ++i) {
    EXPECT_EQ(run->history[i].score, reference->history[i].score) << i;
    EXPECT_EQ(run->history[i].phi, reference->history[i].phi) << i;
    EXPECT_EQ(run->history[i].rho, reference->history[i].rho) << i;
  }
  EXPECT_GE(run->wire.recoveries, 1);
  EXPECT_EQ(run->wire.workers_replaced, 1);
  EXPECT_EQ((*registry)->num_pooled(), 3);  // 2 survivors + the spare

  registry->reset();
  int crashed = 0;
  for (const pid_t pid : workers) {
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status));
    if (WEXITSTATUS(status) == 3) ++crashed;
  }
  EXPECT_EQ(crashed, 1);
}

TEST(TcpSpinnerTest, PooledWorkersResumeWithZeroSliceDownload) {
  const CsrGraph g = SmallWorldConverted(900, 23);
  SpinnerConfig config;
  config.num_partitions = 5;
  config.seed = 3;
  config.max_iterations = 6;
  config.use_halting = false;
  const int kShards = 4;
  const int kWorkers = 2;
  const std::string store_dir =
      testing::TempDir() + "/tcp_resume_store";
  // TempDir is stable across test runs; start from an empty store so the
  // cold-run download assertions hold on re-runs too.
  std::filesystem::remove_all(store_dir);

  auto registry = WorkerRegistry::Listen(RegistryOptions{});
  ASSERT_TRUE(registry.ok()) << registry.status();
  MultiProcessOptions options;
  options.num_workers = kWorkers;
  options.worker_transport = registry->get();
  dist::WorkerLoopOptions loop;
  loop.store_dir = store_dir;
  std::vector<pid_t> workers;
  for (int w = 0; w < kWorkers; ++w) {
    workers.push_back(
        ForkTcpWorker((*registry)->address(), options.transport, loop));
  }

  // Cold run: every slice crosses the wire and lands in the store.
  auto store1 = ShardedGraphStore::Build(g, kShards);
  ASSERT_TRUE(store1.ok());
  std::vector<PartitionId> no_labels(g.NumVertices(), kNoPartition);
  auto run1 = dist::RunMultiProcessSpinner(config, &*store1, no_labels,
                                           options, nullptr);
  ASSERT_TRUE(run1.ok()) << run1.status();
  EXPECT_EQ(run1->wire.slices_downloaded, kShards);
  EXPECT_GT(run1->wire.slice_bytes_downloaded, 0);
  EXPECT_EQ(run1->wire.slices_resumed, 0);
  EXPECT_EQ((*registry)->num_pooled(), kWorkers);

  // Warm run over the SAME pooled connections: every Resume fingerprint
  // matches, so the coordinator downloads nothing.
  auto store2 = ShardedGraphStore::Build(g, kShards);
  ASSERT_TRUE(store2.ok());
  auto run2 = dist::RunMultiProcessSpinner(config, &*store2, no_labels,
                                           options, nullptr);
  ASSERT_TRUE(run2.ok()) << run2.status();
  EXPECT_EQ(run2->wire.slices_downloaded, 0);
  EXPECT_EQ(run2->wire.slice_bytes_downloaded, 0);
  EXPECT_EQ(run2->wire.slices_resumed, kShards);
  EXPECT_EQ(store2->labels(), store1->labels());
  // Only one fleet ever dialed in.
  EXPECT_EQ((*registry)->handshakes_completed(), kWorkers);

  registry->reset();
  for (const pid_t pid : workers) {
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
  }
}

TEST(TcpSpinnerTest, WarmStoreOfVersion1SlicesIsRedownloadedNotReused) {
  // A store left behind by a worker that predates the compact slice
  // layout: every shard's base is SPSB version 1 around an SPSL version 1
  // slice, with a valid checksum. Its shards must read as absent, so the
  // coordinator downloads every slice and the run matches in-process.
  const CsrGraph g = SmallWorldConverted(900, 31);
  SpinnerConfig config;
  config.num_partitions = 5;
  config.seed = 4;
  config.max_iterations = 6;
  config.use_halting = false;
  const int kShards = 4;
  const int kWorkers = 2;
  std::vector<PartitionId> reference_labels;
  ASSERT_TRUE(ReferenceRun(config, g, kShards, &reference_labels).ok());

  const std::string store_dir = testing::TempDir() + "/tcp_v1_store";
  std::filesystem::remove_all(store_dir);
  std::filesystem::create_directories(store_dir);
  auto store = ShardedGraphStore::Build(g, kShards);
  ASSERT_TRUE(store.ok());
  for (int s = 0; s < kShards; ++s) {
    slice_v1_reference::WriteBase(
        dist::PersistentShardStore(store_dir).BasePath(s),
        slice_v1_reference::EncodeSlice(store->shard(s)));
  }

  auto registry = WorkerRegistry::Listen(RegistryOptions{});
  ASSERT_TRUE(registry.ok()) << registry.status();
  MultiProcessOptions options;
  options.num_workers = kWorkers;
  options.worker_transport = registry->get();
  dist::WorkerLoopOptions loop;
  loop.store_dir = store_dir;
  std::vector<pid_t> workers;
  for (int w = 0; w < kWorkers; ++w) {
    workers.push_back(
        ForkTcpWorker((*registry)->address(), options.transport, loop));
  }
  std::vector<PartitionId> no_labels(g.NumVertices(), kNoPartition);
  auto run = dist::RunMultiProcessSpinner(config, &*store, no_labels,
                                          options, nullptr);
  ASSERT_TRUE(run.ok()) << run.status();
  EXPECT_EQ(run->wire.slices_downloaded, kShards);
  EXPECT_GT(run->wire.slice_bytes_downloaded, 0);
  EXPECT_EQ(run->wire.slices_resumed, 0);
  EXPECT_EQ(store->labels(), reference_labels);
  registry->reset();
  ReapAll(&workers);

  // The workers replaced each old base with the current encoding.
  for (int s = 0; s < kShards; ++s) {
    auto loaded = dist::PersistentShardStore(store_dir).Load(s);
    ASSERT_TRUE(loaded.has_value()) << "shard " << s;
    EXPECT_EQ(loaded->fingerprint,
              dist::ShardSliceFingerprint(store->shard(s)))
        << "shard " << s;
  }
}

TEST(TcpSpinnerTest, RestartedWorkersResumeFromStoreWithZeroDownload) {
  const CsrGraph g = SmallWorldConverted(900, 29);
  SpinnerConfig config;
  config.num_partitions = 5;
  config.seed = 9;
  config.max_iterations = 6;
  config.use_halting = false;
  const int kShards = 4;
  const int kWorkers = 2;
  const std::string store_dir =
      testing::TempDir() + "/tcp_restart_store";
  std::filesystem::remove_all(store_dir);
  std::vector<PartitionId> labels1;

  {
    auto registry = WorkerRegistry::Listen(RegistryOptions{});
    ASSERT_TRUE(registry.ok()) << registry.status();
    MultiProcessOptions options;
    options.num_workers = kWorkers;
    options.worker_transport = registry->get();
    dist::WorkerLoopOptions loop;
    loop.store_dir = store_dir;
    std::vector<pid_t> workers;
    for (int w = 0; w < kWorkers; ++w) {
      workers.push_back(
          ForkTcpWorker((*registry)->address(), options.transport, loop));
    }
    auto store = ShardedGraphStore::Build(g, kShards);
    ASSERT_TRUE(store.ok());
    std::vector<PartitionId> no_labels(g.NumVertices(), kNoPartition);
    auto run = dist::RunMultiProcessSpinner(config, &*store, no_labels,
                                            options, nullptr);
    ASSERT_TRUE(run.ok()) << run.status();
    EXPECT_EQ(run->wire.slices_downloaded, kShards);
    labels1 = store->labels();

    // Kill the whole fleet — process restart, files survive.
    registry->reset();
    ReapAll(&workers);
  }

  // Fresh workers, fresh registry, same store directory: the Resume
  // fingerprints come off disk (one file per shard) and match, so the
  // restarted fleet re-downloads nothing.
  auto registry = WorkerRegistry::Listen(RegistryOptions{});
  ASSERT_TRUE(registry.ok()) << registry.status();
  MultiProcessOptions options;
  options.num_workers = kWorkers;
  options.worker_transport = registry->get();
  dist::WorkerLoopOptions loop;
  loop.store_dir = store_dir;
  std::vector<pid_t> workers;
  for (int w = 0; w < kWorkers; ++w) {
    workers.push_back(
        ForkTcpWorker((*registry)->address(), options.transport, loop));
  }
  auto store = ShardedGraphStore::Build(g, kShards);
  ASSERT_TRUE(store.ok());
  std::vector<PartitionId> no_labels(g.NumVertices(), kNoPartition);
  auto run = dist::RunMultiProcessSpinner(config, &*store, no_labels,
                                          options, nullptr);
  ASSERT_TRUE(run.ok()) << run.status();
  EXPECT_EQ(run->wire.slices_downloaded, 0);
  EXPECT_EQ(run->wire.slice_bytes_downloaded, 0);
  EXPECT_EQ(run->wire.slices_resumed, kShards);
  EXPECT_EQ(store->labels(), labels1);

  registry->reset();
  for (const pid_t pid : workers) {
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
  }
}

TEST(TcpSpinnerTest, CorruptStoreOnRestartRedownloadsOnlyThatSlice) {
  // The failover-resume contract of the persistent store: a replacement
  // (here: restarted) worker whose on-disk copy of one shard is damaged
  // must report a stale fingerprint for it and re-download exactly that
  // slice — the rest of the store still resumes with zero download, and
  // the run's result is unaffected.
  const CsrGraph g = SmallWorldConverted(900, 29);
  SpinnerConfig config;
  config.num_partitions = 5;
  config.seed = 9;
  config.max_iterations = 6;
  config.use_halting = false;
  const int kShards = 4;
  const int kWorkers = 2;
  const std::string store_dir =
      testing::TempDir() + "/tcp_torn_store";
  std::filesystem::remove_all(store_dir);
  std::vector<PartitionId> labels1;

  {
    auto registry = WorkerRegistry::Listen(RegistryOptions{});
    ASSERT_TRUE(registry.ok()) << registry.status();
    MultiProcessOptions options;
    options.num_workers = kWorkers;
    options.worker_transport = registry->get();
    dist::WorkerLoopOptions loop;
    loop.store_dir = store_dir;
    std::vector<pid_t> workers;
    for (int w = 0; w < kWorkers; ++w) {
      workers.push_back(
          ForkTcpWorker((*registry)->address(), options.transport, loop));
    }
    auto store = ShardedGraphStore::Build(g, kShards);
    ASSERT_TRUE(store.ok());
    std::vector<PartitionId> no_labels(g.NumVertices(), kNoPartition);
    auto run = dist::RunMultiProcessSpinner(config, &*store, no_labels,
                                            options, nullptr);
    ASSERT_TRUE(run.ok()) << run.status();
    labels1 = store->labels();
    registry->reset();
    ReapAll(&workers);
  }

  // Damage shard 0's file mid-slice: its checksum no longer matches, so
  // Load() reports the shard absent and only that slice is re-sent.
  {
    dist::PersistentShardStore probe(store_dir);
    std::FILE* f = std::fopen(probe.BasePath(0).c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fseek(f, 40, SEEK_SET), 0);
    std::fputc(0xff, f);
    std::fclose(f);
  }

  auto registry = WorkerRegistry::Listen(RegistryOptions{});
  ASSERT_TRUE(registry.ok()) << registry.status();
  MultiProcessOptions options;
  options.num_workers = kWorkers;
  options.worker_transport = registry->get();
  dist::WorkerLoopOptions loop;
  loop.store_dir = store_dir;
  std::vector<pid_t> workers;
  for (int w = 0; w < kWorkers; ++w) {
    workers.push_back(
        ForkTcpWorker((*registry)->address(), options.transport, loop));
  }
  auto store = ShardedGraphStore::Build(g, kShards);
  ASSERT_TRUE(store.ok());
  std::vector<PartitionId> no_labels(g.NumVertices(), kNoPartition);
  auto run = dist::RunMultiProcessSpinner(config, &*store, no_labels,
                                          options, nullptr);
  ASSERT_TRUE(run.ok()) << run.status();
  EXPECT_EQ(run->wire.slices_downloaded, 1);
  EXPECT_EQ(run->wire.slices_resumed, kShards - 1);
  EXPECT_EQ(store->labels(), labels1);

  registry->reset();
  for (const pid_t pid : workers) {
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
  }
}

TEST(TcpSpinnerTest, CapacityWeightsSkewTheShardSplit) {
  const CsrGraph g = SmallWorldConverted(1600, 31);
  SpinnerConfig config;
  config.num_partitions = 4;
  config.seed = 5;
  config.max_iterations = 4;
  config.use_halting = false;
  const int kShards = 6;

  std::vector<PartitionId> reference_labels;
  auto reference = ReferenceRun(config, g, kShards, &reference_labels);
  ASSERT_TRUE(reference.ok());

  auto registry = WorkerRegistry::Listen(RegistryOptions{});
  ASSERT_TRUE(registry.ok()) << registry.status();
  MultiProcessOptions options;
  options.num_workers = 2;
  options.worker_transport = registry->get();
  // One worker advertises triple capacity. Assignment skews toward it —
  // but capacity is pure execution shape, so results cannot move.
  std::vector<pid_t> workers;
  dist::WorkerLoopOptions big;
  big.capacity = 3;
  workers.push_back(
      ForkTcpWorker((*registry)->address(), options.transport, big));
  workers.push_back(
      ForkTcpWorker((*registry)->address(), options.transport));

  auto store = ShardedGraphStore::Build(g, kShards);
  ASSERT_TRUE(store.ok());
  std::vector<PartitionId> no_labels(g.NumVertices(), kNoPartition);
  auto run = dist::RunMultiProcessSpinner(config, &*store, no_labels,
                                          options, nullptr);
  ASSERT_TRUE(run.ok()) << run.status();
  EXPECT_EQ(store->labels(), reference_labels);

  registry->reset();
  ReapAll(&workers);
}

// --- Elastic worker fleet --------------------------------------------------

TEST(TcpElasticTest, DrainAndTopUpRoundTripStaysBitIdentical) {
  // Delay-only wire faults (PR-9 chaos machinery): bytes are preserved,
  // so the whole elastic sequence must still be bit-identical.
  ASSERT_EQ(::setenv("SPINNER_FAULT_PLAN", "seed=5;delay:p=0.15:ms=1", 1), 0);
  auto ws = WattsStrogatz(600, 3, 0.3, 13);
  ASSERT_TRUE(ws.ok());
  SpinnerConfig config;
  config.num_partitions = 4;
  config.seed = 3;
  config.max_iterations = 8;
  config.use_halting = false;

  // The in-process reference of the same lifecycle, staged.
  const GraphDelta delta =
      RandomEdgeAdditions(ws->num_vertices, ws->edges, 40, /*seed=*/7);
  PartitioningSession reference(config);
  ASSERT_TRUE(reference.Open(ws->num_vertices, ws->edges, true).ok());
  const std::vector<PartitionId> after_open = reference.assignment();
  ASSERT_TRUE(reference.ApplyDelta(delta).ok());
  const std::vector<PartitionId> after_delta = reference.assignment();
  ASSERT_TRUE(reference.Rescale(5).ok());
  const std::vector<PartitionId> after_rescale = reference.assignment();

  std::vector<pid_t> workers;
  {
    SessionOptions options;
    options.execution.mode = ExecutionMode::kTcp;
    options.execution.num_workers = 2;
    options.execution.listen_address = "127.0.0.1:0";
    PartitioningSession session(config, options);
    auto address = session.TcpAddress();
    ASSERT_TRUE(address.ok()) << address.status();
    const dist::TransportOptions transport;
    for (int w = 0; w < 2; ++w) {
      workers.push_back(ForkTcpWorker(*address, transport));
    }
    ASSERT_TRUE(session.Open(ws->num_vertices, ws->edges, true).ok());
    EXPECT_EQ(session.assignment(), after_open);
    EXPECT_EQ(session.num_workers(), 2);

    // Scale the fleet in: the drained pooled connection gets EOF and its
    // worker exits 0 — the clean decommission path.
    ASSERT_TRUE(session.ResizeWorkers(1).ok());
    EXPECT_EQ(session.num_workers(), 1);
    int status = 0;
    const pid_t drained = ::waitpid(-1, &status, 0);
    ASSERT_GT(drained, 0);
    EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
        << "drained worker status " << status;
    workers.erase(std::find(workers.begin(), workers.end(), drained));

    // The next lifecycle call runs on the shrunken fleet, bit-identical.
    const Status applied = session.ApplyDelta(delta);
    ASSERT_TRUE(applied.ok()) << applied.ToString();
    EXPECT_EQ(session.assignment(), after_delta);

    // Top the fleet back up: no registry verb needed, the next Acquire
    // waits for the fresh dial-in.
    ASSERT_TRUE(session.ResizeWorkers(2).ok());
    EXPECT_EQ(session.num_workers(), 2);
    workers.push_back(ForkTcpWorker(*address, transport));
    ASSERT_TRUE(session.Rescale(5).ok());
    EXPECT_EQ(session.assignment(), after_rescale);
    EXPECT_EQ(session.num_partitions(), 5);
  }
  // Session teardown closed the pool; the remaining workers exit 0.
  for (const pid_t pid : workers) {
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
        << "worker pid " << pid << " status " << status;
  }
  ASSERT_EQ(::unsetenv("SPINNER_FAULT_PLAN"), 0);
}

}  // namespace
}  // namespace spinner
