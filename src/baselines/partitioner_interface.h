// The single polymorphic interface every partitioner in the library
// implements — the Table I baselines and Spinner itself — so benches, the
// CLI and the registry can sweep them uniformly. Construct implementations
// by name through PartitionerRegistry (partitioner_registry.h).
#ifndef SPINNER_BASELINES_PARTITIONER_INTERFACE_H_
#define SPINNER_BASELINES_PARTITIONER_INTERFACE_H_

#include <span>
#include <string>
#include <vector>

#include "common/result.h"
#include "graph/csr_graph.h"
#include "graph/types.h"
#include "spinner/config.h"

namespace spinner {

/// Typed construction options understood by the registry factories. One
/// struct covers every implementation (RocksDB options idiom); each factory
/// reads only the fields it understands and ignores the rest, so a single
/// options value can drive a uniform sweep across all partitioners.
struct PartitionerOptions {
  /// Seed for the label-drawing partitioners (random, spinner, multilevel
  /// matching order). Stream arrival order is controlled separately by
  /// `stream_seed` because "no shuffle" is its meaningful default.
  uint64_t seed = 42;

  /// Streaming partitioners (ldg/fennel/restreaming): shuffle the arrival
  /// order with this seed; 0 = natural vertex-id order (the common
  /// evaluation setting, and the default even when `seed` is set).
  uint64_t stream_seed = 0;

  /// Streaming partitioners: cap weighted degree (edge balance, the
  /// quantity the paper's ρ measures) instead of vertex counts. Defaults to
  /// edge balance so sweeps compare against Spinner's objective.
  bool balance_on_edges = true;

  /// Parallel partitioners (spinner): the execution shape (mode, shard /
  /// thread / worker counts, wire and endpoint config). Non-default
  /// fields win field-wise over `spinner.execution`. Pure execution-shape
  /// knobs — results never depend on them; sequential baselines ignore
  /// them. See spinner/execution_options.h.
  ExecutionOptions execution = {};

  /// Fennel: γ exponent and ν balance cap (WSDM'14 defaults).
  double fennel_gamma = 1.5;
  double fennel_balance_cap = 1.1;

  /// Restreaming: number of LDG passes.
  int restream_passes = 10;

  /// Multilevel: coarsening stop factor, balance slack, FM passes per
  /// level (mirrors MultilevelOptions; kept flat so this header does not
  /// depend on the concrete implementation).
  int multilevel_coarsen_until_factor = 8;
  double multilevel_balance = 1.03;
  int multilevel_refine_passes = 10;

  /// Spinner: the full algorithm configuration. `spinner.num_partitions`
  /// is overridden by the k passed to Partition(); `spinner.seed` follows
  /// `seed` unless explicitly diverged.
  SpinnerConfig spinner;
};

/// A k-way partitioner over a converted (symmetric, weighted) graph.
///
/// All implementations support one-shot Partition(). The adapt/rescale
/// lifecycle entry points (paper §III.D/§III.E) are optional capabilities:
/// probe SupportsRepartition()/SupportsRescale() before calling them, or
/// handle the Unimplemented status they return by default.
class GraphPartitioner {
 public:
  virtual ~GraphPartitioner() = default;

  /// Human-readable name for reports ("hash", "fennel", ...).
  virtual std::string name() const = 0;

  /// Computes a label in [0, k) for every vertex.
  virtual Result<std::vector<PartitionId>> Partition(
      const CsrGraph& converted, int k) const = 0;

  /// True iff Repartition() is implemented (incremental adaptation).
  virtual bool SupportsRepartition() const { return false; }

  /// True iff Rescale() is implemented (elastic adaptation).
  virtual bool SupportsRescale() const { return false; }

  /// Incremental adaptation: recompute a k-way partitioning of `converted`
  /// starting from `previous` (which may cover fewer vertices than the
  /// graph if it grew). Returns Unimplemented unless SupportsRepartition().
  virtual Result<std::vector<PartitionId>> Repartition(
      const CsrGraph& converted, int k,
      std::span<const PartitionId> previous) const {
    (void)converted;
    (void)k;
    (void)previous;
    return Status::Unimplemented(name() +
                                 " does not support incremental adaptation");
  }

  /// Elastic adaptation from `old_k` to `new_k` partitions starting from
  /// `previous` (which must cover every vertex with a label in [0, old_k)).
  /// Returns Unimplemented unless SupportsRescale().
  virtual Result<std::vector<PartitionId>> Rescale(
      const CsrGraph& converted, std::span<const PartitionId> previous,
      int old_k, int new_k) const {
    (void)converted;
    (void)previous;
    (void)old_k;
    (void)new_k;
    return Status::Unimplemented(name() +
                                 " does not support elastic adaptation");
  }
};

}  // namespace spinner

#endif  // SPINNER_BASELINES_PARTITIONER_INTERFACE_H_
