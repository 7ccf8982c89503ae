#pragma once

/// \file igp.hpp
/// The Incremental Graph Partitioner (IGP / IGPR) driver — the paper's
/// primary contribution, chaining the four steps of Figure 1:
///
///   1. assign new vertices to the partition of their nearest old vertex,
///   2. layer each partition (closest-outside-partition labels, ε_ij),
///   3. balance load with the movement-minimizing LP (multi-stage α),
///   4. optionally refine the cut with the movement-maximizing LP (IGPR).
///
/// The pipeline has one implementation, repartition_in_place: it runs on
/// a caller-owned partitioning and the PartitionState that describes it,
/// so every step works boundary-locally off the maintained index.  The
/// other entry points are adapters over it — repartition() seeds a state
/// over a copy of the old assignment (one O(V+E) rescan), and
/// repartition_delta() first applies a graph::GraphDelta from scratch
/// (the oracle the streaming Session is tested against).

#include <cstdint>

#include "core/assign.hpp"
#include "core/balance.hpp"
#include "core/refine.hpp"
#include "graph/delta.hpp"
#include "graph/graph.hpp"
#include "graph/partition.hpp"
#include "graph/partition_state.hpp"

namespace pigp::core {

struct Workspace;

/// Plain-data options for the flat driver.  Thread-count and solver
/// propagation into the nested structs lives in SessionConfig::resolve()
/// (src/api/config.hpp) — the single derivation path, guarded by
/// compile-time field-count asserts so new fields cannot be skipped.
struct IgpOptions {
  /// Run the refinement pass (IGPR) after balancing (IGP).
  bool refine = true;
  BalanceOptions balance;
  RefineOptions refinement;
  int num_threads = 1;
};

/// Wall-clock breakdown of one repartitioning (seconds).
struct IgpTimings {
  double assign = 0.0;
  double balance = 0.0;  ///< includes per-stage layering + LP + transfer
  double refine = 0.0;
  double total = 0.0;
};

struct IgpResult {
  graph::Partitioning partitioning;
  bool balanced = false;
  int stages = 0;              ///< balance stages used (paper's IGP(k))
  BalanceResult balance_result;
  RefineStats refine_stats;
  IgpTimings timings;
};

/// Incremental repartitioner.  Thread-safe for concurrent repartition calls
/// with distinct outputs (the object holds only options).
class IncrementalPartitioner {
 public:
  explicit IncrementalPartitioner(IgpOptions options = {})
      : options_(options) {}

  /// Repartition \p g_new given the partitioning of its first \p n_old
  /// vertices (ids preserved; no deletions).  Adapter: seeds a state over
  /// a copy of \p old_partitioning (seed_in_place) and runs
  /// repartition_in_place on it; result.partitioning is the answer.
  [[nodiscard]] IgpResult repartition(
      const graph::Graph& g_new, const graph::Partitioning& old_partitioning,
      graph::VertexId n_old) const;

  /// The pipeline: run it *in place* on \p partitioning (covering
  /// [0, n_old) on entry, all of \p g_new on return) and \p state, which
  /// describes (g_new, partitioning) with the appended tail unassigned —
  /// layering seeds, balance weights and refinement candidates come from
  /// the maintained index instead of full rescans.  Every reusable buffer
  /// is drawn from \p ws: zero per-call O(V) allocations or copies once
  /// the workspace is warm.  result.partitioning is left empty — the
  /// answer IS \p partitioning.  On exception partitioning/state are left
  /// inconsistent; the session rolls back from its own snapshot.
  [[nodiscard]] IgpResult repartition_in_place(
      const graph::Graph& g_new, graph::Partitioning& partitioning,
      graph::VertexId n_old, graph::PartitionState& state,
      Workspace& ws) const;

  /// Apply \p delta to \p g_old and repartition the result.  Handles vertex
  /// deletions via the delta's id remapping.  \p result_graph (optional)
  /// receives the updated graph.
  [[nodiscard]] IgpResult repartition_delta(
      const graph::Graph& g_old, const graph::Partitioning& old_partitioning,
      const graph::GraphDelta& delta,
      graph::Graph* result_graph = nullptr) const;

  [[nodiscard]] const IgpOptions& options() const noexcept {
    return options_;
  }

 private:
  IgpOptions options_;
};

/// Entry setup shared by the batch adapters: \p partitioning becomes a
/// copy of \p old_partitioning (which must cover exactly [0, n_old)) and
/// \p state is rebuilt over (g_new, partitioning) with the appended tail
/// unassigned — the in-place drivers' entry contract.  One O(V+E) rescan.
void seed_in_place(const graph::Graph& g_new,
                   const graph::Partitioning& old_partitioning,
                   graph::VertexId n_old, graph::Partitioning& partitioning,
                   graph::PartitionState& state);

}  // namespace pigp::core
