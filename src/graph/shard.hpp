#pragma once

/// \file shard.hpp
/// Key-range sharded graph loading for multi-process SPMD workers.
///
/// The distributed worker (core/spmd_worker) keeps the *adjacency payload*
/// — the O(E) term that dominates graph memory — sharded: rank r holds the
/// full adjacency rows only of the vertices in the partitions it owns
/// (partition q belongs to rank shard_owner(q) = q % num_ranks, the SPMD
/// engines' one ownership rule), plus the reverse "halo" edges pointing
/// back at them from non-resident neighbors.  The O(V) scalar vectors
/// (partition ids, vertex weights) stay replicated — the paper's CM-5
/// implementation replicated exactly those small arrays too — so the
/// per-rank footprint is O(V + E/ranks + boundary) with the E term sharded.
///
/// Sharding is *by key range* in the intended deployment: the initial
/// partitioning handed to the loader is contiguous
/// (contiguous_partitioning below), so each worker streams the METIS file
/// and keeps a contiguous slice of adjacency rows.  The structures are
/// partitioning-agnostic, though: any replicated initial partitioning
/// works, and the worker protocol migrates adjacency rows as the balancer
/// moves vertices between ranks.
///
/// Parity invariants (the reason the shard keeps GLOBAL vertex ids and
/// whole rows rather than compacting):
///   * resident rows are byte-identical to the full graph's rows — the
///     layering's floating tally sums follow stored row order, and its
///     tie-breaks hash the global vertex id;
///   * a vertex in an owned partition always has its full row resident
///     (the worker maintains this across migrations);
///   * halo rows keep only edges into resident vertices, which preserves
///     CSR symmetry so the freshly loaded shard passes Graph::validate().

#include <iosfwd>
#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "graph/partition.hpp"

namespace pigp::graph {

/// Rank that owns partition \p q (round-robin) — the one ownership rule
/// of both SPMD engines (core/spmd_igp, core/spmd_worker) and of the shard
/// loader; their bit-parity rests on it.
[[nodiscard]] inline int shard_owner(PartId q, int num_ranks) {
  return static_cast<int>(q) % num_ranks;
}

/// Contiguous key-range partitioning of [0, n): partition q covers one
/// consecutive id range.  \p skew = 0 splits evenly; \p skew > 0 makes
/// range sizes proportional to 1 + skew * q, so the demo starts visibly
/// imbalanced and the LP balancer has real work to show.
[[nodiscard]] Partitioning contiguous_partitioning(VertexId n, PartId parts,
                                                   double skew = 0.0);

/// One worker's resident slice of a graph; see the file comment for the
/// residency and parity invariants.
struct GraphShard {
  int rank = 0;
  int num_ranks = 1;
  /// Partitions this rank owns (q % num_ranks == rank), ascending.
  std::vector<PartId> owned_parts;
  /// Full-vertex-count CSR: resident vertices carry their complete rows,
  /// non-resident vertices only their halo edges (and most carry none).
  Graph graph;
  /// Replicated initial partitioning the shard was cut against.
  Partitioning partitioning;
  /// resident[v] != 0 iff v's full adjacency row is present.
  std::vector<std::uint8_t> resident;
  /// Directed edge counts: resident rows, halo rows, and the full graph
  /// (the O(V/ranks + boundary) memory claim made measurable).
  std::int64_t resident_half_edges = 0;
  std::int64_t halo_half_edges = 0;
  std::int64_t total_half_edges = 0;

  [[nodiscard]] bool owns(PartId q) const {
    return shard_owner(q, num_ranks) == rank;
  }
};

/// Stream a METIS graph, keeping only rank \p rank's slice under \p p
/// (replicated; p.part.size() must equal the header's vertex count).
/// Non-resident lines are parsed and dropped save for halo edges and the
/// vertex weight, so peak memory tracks the shard, not the graph.
[[nodiscard]] GraphShard load_shard(std::istream& is, const Partitioning& p,
                                    int rank, int num_ranks);

[[nodiscard]] GraphShard load_shard_file(const std::string& path,
                                         const Partitioning& p, int rank,
                                         int num_ranks);

/// Cut a shard from an in-memory graph — the single-process path used by
/// tests and the in-process oracle (bit-identical to load_shard of the
/// same graph's METIS serialization).
[[nodiscard]] GraphShard make_shard(const Graph& g, const Partitioning& p,
                                    int rank, int num_ranks);

}  // namespace pigp::graph
