#pragma once

// Seeded inputs of one benchmark run: the base graph and the delta stream
// pushed through the public Session / AsyncSession API.  Everything here is
// generated before any timing starts and depends only on the seed.

#include <cstdint>
#include <vector>

#include "graph/delta.hpp"
#include "graph/graph.hpp"
#include "graph/partition.hpp"

namespace perfbench {

/// Vertices of the base graph (a random geometric graph with radius
/// 1.2 / sqrt(n), as in the paper-scale streaming experiments).
inline constexpr int kBaseVertices = 400000;

/// New vertices per `grow` delta.
inline constexpr int kGrowBurst = 128;

/// Per-delta edits of the `churn` stream.
inline constexpr int kChurnCutEdges = 16;
inline constexpr int kChurnRemovedVertices = 8;
inline constexpr int kChurnAddedVertices = 8;

enum class StreamKind { grow, churn };

struct Stream {
  std::vector<pigp::graph::GraphDelta> deltas;
  /// Id-space size (live + dead ids) after each delta.
  std::vector<pigp::graph::VertexId> ids_after;
  /// The base graph with every delta applied through the graph mutators in
  /// Session::apply's order: the structural oracle a final session graph
  /// must equal.
  pigp::graph::Graph final_graph;
};

/// Base graph for \p seed.  \p n is the vertex count.
[[nodiscard]] pigp::graph::Graph make_base_graph(int n, std::uint64_t seed);

/// \p count deltas of \p kind against \p base, seeded by \p seed.  Every
/// delta is checked with graph::validate_delta against the evolving graph,
/// so no delta of the stream can be rejected.
[[nodiscard]] Stream make_stream(const pigp::graph::Graph& base,
                                 StreamKind kind, int count,
                                 std::uint64_t seed);

/// Apply \p delta to \p g through the graph mutators, in the order
/// Session::apply uses (removed vertices, removed edges, added vertices
/// with their edges, added edges), so vertex ids match a session under
/// deferred compaction.
void replay_delta(pigp::graph::Graph& g, const pigp::graph::GraphDelta& delta);

/// Fingerprint of a graph's structure (liveness, weights, sorted rows).
[[nodiscard]] std::uint64_t hash_graph(const pigp::graph::Graph& g);

/// Fingerprint of a delta stream.
[[nodiscard]] std::uint64_t hash_stream(const Stream& stream);

/// Fingerprint of an assignment array.
[[nodiscard]] std::uint64_t hash_partition(
    const std::vector<pigp::graph::PartId>& part);

}  // namespace perfbench
