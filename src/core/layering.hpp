#pragma once

/// \file layering.hpp
/// Step 2 of the incremental partitioner: the layering algorithm of
/// Figure 3 (Ou & Ranka §2.2).
///
/// Every vertex of partition i is labeled with the "closest outside
/// partition" L'(v): boundary vertices take the neighboring partition they
/// share the most edges with (layer 0), then layers grow inward level by
/// level, each vertex adopting the majority label among its already-labeled
/// neighbors in the previous layer.  The counts
///     ε_ij = |{v in partition i : L'(v) = j}|
/// upper-bound how many vertices partition i can cede to partition j in the
/// load-balancing LP (constraint 11), and the layer number orders vertices
/// so transfers peel from the boundary inward.
///
/// Layering is embarrassingly parallel across partitions — this is the
/// heart of the paper's parallelization — so the entry point can run each
/// partition's BFS on its own OpenMP thread (or on its owning SPMD rank via
/// layer_one_partition).
///
/// Two entry points share one BFS:
///   * layer_partitions() — the batch oracle: seeds layer 0 by scanning
///     every member of every partition, O(V+E) always.
///   * BoundaryLayering / layer_partitions_from() — the boundary-local
///     path: seeds layer 0 straight from the PartitionState's maintained
///     boundary index (O(boundary) + one per-vertex array reset) and grows
///     *resumably* — a depth-capped grow() labels a thin shell, and the
///     balance driver requests deeper layers only when the staged LP turns
///     out infeasible at the current depth.  Grown to exhaustion it is
///     bit-identical to layer_partitions (the parity suite pins this).

#include <cstdint>
#include <vector>

#include "core/label_tally.hpp"
#include "graph/graph.hpp"
#include "graph/partition.hpp"
#include "graph/partition_state.hpp"
#include "support/dense_matrix.hpp"

namespace pigp::core {

/// Result of layering all partitions.
struct LayeringResult {
  /// L'(v): closest outside partition, or -1 when the vertex's component
  /// never touches another partition (only possible in disconnected graphs).
  std::vector<graph::PartId> label;
  /// BFS depth from the partition boundary (0 = boundary vertex), or -1.
  std::vector<std::int32_t> layer;
  /// eps(i, j): movable-vertex counts per ordered partition pair.
  pigp::DenseMatrix<std::int64_t> eps;
};

/// Layer every partition; \p num_threads > 1 processes partitions in
/// parallel (results are identical to the serial run).
[[nodiscard]] LayeringResult layer_partitions(const graph::Graph& g,
                                              const graph::Partitioning& p,
                                              int num_threads = 1);

/// Reusable per-thread working buffers for the layering BFS — one
/// partition's BFS allocates nothing when handed a scratch that has been
/// used before (the per-partition OpenMP loop used to churn a tally/next
/// allocation per partition).  The label tally costs O(deg) per vertex, not
/// O(P).
struct LayerScratch {
  LabelTally tally;
  std::vector<graph::VertexId> frontier;
  std::vector<graph::VertexId> next;
};

/// Layer a single partition, writing only entries of \p label / \p layer
/// belonging to partition \p target and the eps row \p eps_row (size
/// num_parts).  Used by the SPMD driver where each rank owns a subset of
/// partitions.  \p members lists the vertices of the partition.
void layer_one_partition(const graph::Graph& g, const graph::Partitioning& p,
                         graph::PartId target,
                         const std::vector<graph::VertexId>& members,
                         std::vector<graph::PartId>& label,
                         std::vector<std::int32_t>& layer,
                         std::int64_t* eps_row);

/// Same, with caller-owned scratch buffers (hot path).
void layer_one_partition(const graph::Graph& g, const graph::Partitioning& p,
                         graph::PartId target,
                         const std::vector<graph::VertexId>& members,
                         std::vector<graph::PartId>& label,
                         std::vector<std::int32_t>& layer,
                         std::int64_t* eps_row, LayerScratch& scratch);

/// Vertices grouped by partition (index [q] lists partition q's vertices in
/// ascending id order).
[[nodiscard]] std::vector<std::vector<graph::VertexId>> partition_members(
    const graph::Partitioning& p);

/// Boundary-seeded, depth-capped, *resumable* layering over a maintained
/// graph::PartitionState.  One object is constructed per balance call
/// (allocating the per-vertex label/layer arrays once), reseed() starts a
/// stage by pulling layer-0 seeds from the state's boundary index, and
/// grow() advances every partition's BFS a bounded number of levels —
/// eps() always reflects exactly the vertices labeled so far, so the
/// balance LP can run on a thin shell and lazily request deeper layers.
///
/// Contract: \p p must be fully assigned and \p state consistent with it
/// at reseed() time; p must not change between reseed() and the last
/// grow() of a stage.  Grown to exhaustion the labels, layers and eps are
/// bit-identical to layer_partitions(g, p).
class BoundaryLayering {
 public:
  /// Empty; bind() before use.  A default-constructed instance living in a
  /// core::Workspace persists across repartitions — that is the hot path.
  BoundaryLayering() = default;

  /// Equivalent to default construction + bind(g, p).
  BoundaryLayering(const graph::Graph& g, const graph::Partitioning& p);

  /// Point the layering at (g, p) and make the arrays consistent: after
  /// invalidate(), take_result(), or a vertex-count change this performs
  /// one full O(V) reset; otherwise it only refreshes the pointers and
  /// grows the per-vertex arrays for appended ids (amortized), so a
  /// steady-state rebind costs O(1) and allocates nothing.  Must be called
  /// before the first reseed() of every balance run — the graph and
  /// partitioning may have moved since the last one.
  void bind(const graph::Graph& g, const graph::Partitioning& p);

  /// The vertex-id space was remapped (a delta with removals compacts
  /// ids): the labeled-vertex lists no longer address the entries they
  /// labeled, so the next bind() must fall back to a full reset.
  void invalidate() { dirty_ = true; }

  /// Deallocate everything (Workspace::release_memory); the next bind()
  /// re-creates the arrays with a full reset.
  void release();

  /// Reset the previous stage (O(labeled)) and seed layer 0 of every
  /// partition — or only of \p owned_parts when non-null (the SPMD driver
  /// owns a subset per rank) — from \p state's boundary buckets.
  void reseed(const graph::PartitionState& state, int num_threads = 1,
              const std::vector<graph::PartId>* owned_parts = nullptr);

  /// Same stage reset + seeding, but from caller-maintained boundary
  /// buckets instead of a PartitionState: buckets[k] holds candidate
  /// layer-0 vertices of partition owned_parts[k] (any order; they are
  /// sorted here).  Non-boundary candidates are skipped, so a slightly
  /// stale bucket degrades to extra work, not a wrong seeding.  Used by
  /// the sharded SPMD worker (core/spmd_worker), which tracks boundaries
  /// itself — seeded with exact buckets this is bit-identical to reseed()
  /// over a consistent PartitionState.
  void reseed_from_buckets(
      const std::vector<std::vector<graph::VertexId>>& buckets,
      const std::vector<graph::PartId>& owned_parts, int num_threads = 1);

  /// Grow every non-exhausted seeded partition by up to \p levels more BFS
  /// levels (\p levels < 0: to exhaustion).  Parallel across partitions.
  void grow(int levels, int num_threads = 1);

  /// True when every seeded partition's BFS has run out of vertices —
  /// eps() equals the batch layering's eps.
  [[nodiscard]] bool exhausted() const;

  [[nodiscard]] const std::vector<graph::PartId>& label() const {
    return label_;
  }
  [[nodiscard]] const std::vector<std::int32_t>& layer() const {
    return layer_;
  }
  [[nodiscard]] const pigp::DenseMatrix<std::int64_t>& eps() const {
    return eps_;
  }
  /// Vertices of partition \p q labeled so far, in BFS discovery order
  /// (ascending within each level).
  [[nodiscard]] const std::vector<graph::VertexId>& labeled(
      graph::PartId q) const {
    return labeled_[static_cast<std::size_t>(q)];
  }
  /// Levels grown so far for partition \p q (0 = seeds only).
  [[nodiscard]] std::int32_t depth(graph::PartId q) const {
    return depth_[static_cast<std::size_t>(q)];
  }

  /// Move the arrays out as a batch-shaped LayeringResult.  Any further
  /// reseed() throws until bind() restores the arrays (with a full reset).
  [[nodiscard]] LayeringResult take_result();

 private:
  /// Undo the previous stage (O(labeled)) and install the new seeded set —
  /// the shared front half of both reseed flavors.
  void begin_stage(const std::vector<graph::PartId>* owned_parts);

  const graph::Graph* g_ = nullptr;
  const graph::Partitioning* p_ = nullptr;
  bool dirty_ = false;
  std::vector<graph::PartId> label_;
  std::vector<std::int32_t> layer_;
  pigp::DenseMatrix<std::int64_t> eps_;
  std::vector<std::vector<graph::VertexId>> frontier_;  ///< deepest level
  std::vector<std::vector<graph::VertexId>> labeled_;
  std::vector<std::int32_t> depth_;
  std::vector<graph::PartId> seeded_;  ///< partitions seeded this stage
  std::vector<LayerScratch> scratch_;  ///< per OpenMP thread
};

/// Boundary-seeded layering of every partition to exhaustion — the
/// drop-in replacement for layer_partitions when a maintained
/// PartitionState is at hand: same result, O(boundary)-seeded instead of
/// an O(V) member scan per partition.
[[nodiscard]] LayeringResult layer_partitions_from(
    const graph::Graph& g, const graph::Partitioning& p,
    const graph::PartitionState& state, int num_threads = 1);

}  // namespace pigp::core
