// ExecutionOptions: the single nested execution-shape struct shared by
// SpinnerConfig, SessionOptions and PartitionerOptions. These tests pin
// the two-layer merge precedence (outer session/registry options over the
// SpinnerConfig they carry) and the validation rules.
#include <gtest/gtest.h>

#include <string>

#include "baselines/partitioner_interface.h"
#include "baselines/partitioner_registry.h"
#include "graph/conversion.h"
#include "graph/generators.h"
#include "spinner/config.h"
#include "spinner/execution_options.h"
#include "spinner/session.h"
#include "spinner/spinner_graph_partitioner.h"

namespace spinner {
namespace {

TEST(ExecutionOptionsTest, MergePrefersEverySetPrimaryField) {
  ExecutionOptions fallback;
  fallback.mode = ExecutionMode::kMultiProcess;
  fallback.num_shards = 8;
  fallback.num_threads = 2;
  fallback.num_workers = 4;
  fallback.wire_max_payload = 4096;
  fallback.listen_address = "127.0.0.1:7001";
  fallback.worker_store_dir = "/tmp/fallback";
  fallback.handshake_timeout_ms = 1000;

  // An all-default primary changes nothing.
  ExecutionOptions merged = MergedExecution(ExecutionOptions{}, fallback);
  EXPECT_EQ(merged.mode, ExecutionMode::kMultiProcess);
  EXPECT_EQ(merged.num_shards, 8);
  EXPECT_EQ(merged.num_threads, 2);
  EXPECT_EQ(merged.num_workers, 4);
  EXPECT_EQ(merged.wire_max_payload, 4096u);
  EXPECT_EQ(merged.listen_address, "127.0.0.1:7001");
  EXPECT_EQ(merged.worker_store_dir, "/tmp/fallback");
  EXPECT_EQ(merged.handshake_timeout_ms, 1000);

  // Set primary fields win; unset ones keep falling through.
  ExecutionOptions primary;
  primary.mode = ExecutionMode::kTcp;
  primary.num_workers = 3;
  primary.listen_address = "127.0.0.1:0";
  merged = MergedExecution(primary, fallback);
  EXPECT_EQ(merged.mode, ExecutionMode::kTcp);
  EXPECT_EQ(merged.num_workers, 3);
  EXPECT_EQ(merged.listen_address, "127.0.0.1:0");
  EXPECT_EQ(merged.num_shards, 8);           // fell through
  EXPECT_EQ(merged.wire_max_payload, 4096u);  // fell through
}

TEST(ExecutionOptionsTest, ValidateCatchesBadShapes) {
  ExecutionOptions ok;
  EXPECT_TRUE(ok.Validate().ok());
  ok.mode = ExecutionMode::kMultiProcess;
  EXPECT_TRUE(ok.Validate().ok());  // workers auto-sized

  // kTcp must know the fleet size up front.
  ExecutionOptions tcp;
  tcp.mode = ExecutionMode::kTcp;
  EXPECT_FALSE(tcp.Validate().ok());
  tcp.num_workers = 3;
  EXPECT_TRUE(tcp.Validate().ok());

  ExecutionOptions negatives;
  negatives.num_shards = -1;
  EXPECT_FALSE(negatives.Validate().ok());

  // A frame ceiling below the minimum cannot carry chunk headers.
  ExecutionOptions tiny_frames;
  tiny_frames.wire_max_payload = 63;
  EXPECT_FALSE(tiny_frames.Validate().ok());
  tiny_frames.wire_max_payload = 64;
  EXPECT_TRUE(tiny_frames.Validate().ok());
}

TEST(ExecutionOptionsTest, ValidateRejectsBadRecoveryKnobs) {
  // A zero or negative deadline would mean "hang forever" or "instantly
  // hung" — both rejected rather than interpreted.
  ExecutionOptions no_deadline;
  no_deadline.rpc_timeout_ms = 0;
  EXPECT_FALSE(no_deadline.Validate().ok());
  no_deadline.rpc_timeout_ms = -5;
  EXPECT_FALSE(no_deadline.Validate().ok());
  no_deadline.rpc_timeout_ms = 1;
  EXPECT_TRUE(no_deadline.Validate().ok());

  ExecutionOptions no_heartbeat;
  no_heartbeat.heartbeat_period_ms = 0;
  EXPECT_FALSE(no_heartbeat.Validate().ok());
  no_heartbeat.heartbeat_period_ms = -1;
  EXPECT_FALSE(no_heartbeat.Validate().ok());
  no_heartbeat.heartbeat_period_ms = 10;
  EXPECT_TRUE(no_heartbeat.Validate().ok());

  ExecutionOptions negative_attempts;
  negative_attempts.max_recovery_attempts = -1;
  EXPECT_FALSE(negative_attempts.Validate().ok());
  negative_attempts.max_recovery_attempts = 0;  // recovery off: valid
  EXPECT_TRUE(negative_attempts.Validate().ok());
  negative_attempts.max_recovery_attempts = 3;
  EXPECT_TRUE(negative_attempts.Validate().ok());
}

TEST(ExecutionOptionsTest, MergeCarriesTheRecoveryKnobs) {
  ExecutionOptions fallback;
  fallback.rpc_timeout_ms = 5'000;
  fallback.heartbeat_period_ms = 100;
  fallback.max_recovery_attempts = 4;

  // Defaults in the primary fall through to the fallback's knobs.
  ExecutionOptions merged = MergedExecution(ExecutionOptions{}, fallback);
  EXPECT_EQ(merged.rpc_timeout_ms, 5'000);
  EXPECT_EQ(merged.heartbeat_period_ms, 100);
  EXPECT_EQ(merged.max_recovery_attempts, 4);

  // Explicitly-set primary knobs win.
  ExecutionOptions primary;
  primary.rpc_timeout_ms = 250;
  primary.max_recovery_attempts = 1;
  merged = MergedExecution(primary, fallback);
  EXPECT_EQ(merged.rpc_timeout_ms, 250);
  EXPECT_EQ(merged.heartbeat_period_ms, 100);  // fell through
  EXPECT_EQ(merged.max_recovery_attempts, 1);
}

TEST(ExecutionOptionsTest, SessionExecutionBeatsConfigExecution) {
  SpinnerConfig config;
  config.num_partitions = 4;
  config.execution.num_shards = 3;    // config layer: kept when unshadowed
  config.execution.num_threads = 5;   // config layer: shadowed below

  SessionOptions options;
  options.execution.num_threads = 2;  // session layer wins field-wise
  options.execution.wire_max_payload = 8192;

  PartitioningSession session(config, options);
  EXPECT_EQ(session.execution().num_shards, 3);
  EXPECT_EQ(session.execution().num_threads, 2);
  EXPECT_EQ(session.execution().wire_max_payload, 8192u);
  EXPECT_EQ(session.execution_mode(), ExecutionMode::kInProcess);
  // The merged options are what the session's config carries.
  EXPECT_EQ(session.config().execution.num_threads, 2);

  // Either layer can select an off-thread mode.
  SpinnerConfig multi = config;
  multi.execution.mode = ExecutionMode::kMultiProcess;
  multi.execution.num_workers = 2;
  PartitioningSession by_config(multi);
  EXPECT_EQ(by_config.execution_mode(), ExecutionMode::kMultiProcess);
  EXPECT_EQ(by_config.num_workers(), 2);
}

TEST(ExecutionOptionsTest, TcpAddressRequiresTcpMode) {
  SpinnerConfig config;
  config.num_partitions = 4;
  PartitioningSession session(config);
  auto address = session.TcpAddress();
  ASSERT_FALSE(address.ok());
  EXPECT_EQ(address.status().code(), StatusCode::kFailedPrecondition);
}

TEST(ExecutionOptionsTest, TcpSessionBindsAnEphemeralListener) {
  SpinnerConfig config;
  config.num_partitions = 4;
  SessionOptions options;
  options.execution.mode = ExecutionMode::kTcp;
  options.execution.num_workers = 2;
  options.execution.listen_address = "127.0.0.1:0";
  PartitioningSession session(config, options);
  auto address = session.TcpAddress();
  ASSERT_TRUE(address.ok()) << address.status();
  // The ephemeral port resolved to something dialable.
  EXPECT_EQ(address->rfind("127.0.0.1:", 0), 0u) << *address;
  EXPECT_NE(*address, "127.0.0.1:0");
  // Stable across calls — one listener per session.
  auto again = session.TcpAddress();
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*again, *address);
}

TEST(ExecutionOptionsTest, PartitionerOptionsFeedTheRegistryFactory) {
  auto ws = WattsStrogatz(400, 3, 0.3, 11);
  ASSERT_TRUE(ws.ok());
  auto g = BuildSymmetric(ws->num_vertices, ws->edges);
  ASSERT_TRUE(g.ok());

  // The same shape spelled in either layer.
  PartitionerOptions inner;
  inner.spinner.execution.num_shards = 3;
  auto by_inner = PartitionerRegistry::Create("spinner", inner);
  ASSERT_TRUE(by_inner.ok()) << by_inner.status();
  auto labels_inner = (*by_inner)->Partition(*g, 4);
  ASSERT_TRUE(labels_inner.ok()) << labels_inner.status();

  PartitionerOptions outer;
  outer.spinner.execution.num_shards = 5;  // shadowed by the outer layer
  outer.execution.num_shards = 3;
  auto by_outer = PartitionerRegistry::Create("spinner", outer);
  ASSERT_TRUE(by_outer.ok()) << by_outer.status();
  const auto* spinner =
      dynamic_cast<const SpinnerGraphPartitioner*>(by_outer->get());
  ASSERT_NE(spinner, nullptr);
  EXPECT_EQ(spinner->config().execution.num_shards, 3);
  auto labels_outer = (*by_outer)->Partition(*g, 4);
  ASSERT_TRUE(labels_outer.ok()) << labels_outer.status();

  // Execution shape never changes results — and the two spellings of the
  // same shape are interchangeable.
  EXPECT_EQ(*labels_inner, *labels_outer);
}

}  // namespace
}  // namespace spinner
