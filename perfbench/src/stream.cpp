#include "stream.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "graph/generators.hpp"
#include "support/rng.hpp"
#include "util.hpp"

namespace perfbench {

namespace graph = pigp::graph;

graph::Graph make_base_graph(int n, std::uint64_t seed) {
  return graph::random_geometric_graph(
      n, 1.2 / std::sqrt(static_cast<double>(n)), seed);
}

namespace {

/// A localized burst of new vertices: each attaches to a vertex near one
/// random anchor and chains to the previous new vertex, like a refinement
/// front.
graph::GraphDelta grow_delta(graph::VertexId ids, pigp::SplitMix64& rng) {
  graph::GraphDelta delta;
  delta.added_vertices.reserve(kGrowBurst);
  const auto anchor =
      static_cast<graph::VertexId>(rng.next_below(static_cast<std::uint64_t>(ids)));
  for (int i = 0; i < kGrowBurst; ++i) {
    graph::VertexAddition add;
    const auto jitter = static_cast<graph::VertexId>(rng.next_below(64));
    add.edges.emplace_back(std::min<graph::VertexId>(ids - 1, anchor + jitter),
                           1.0);
    if (i > 0) add.edges.emplace_back(ids + i - 1, 1.0);
    delta.added_vertices.push_back(std::move(add));
  }
  return delta;
}

/// Scattered structural churn: cut edges at random live vertices, retire
/// random live vertices, and add vertices attached to two live survivors.
graph::GraphDelta churn_delta(const graph::Graph& g,
                              std::vector<graph::VertexId>& alive,
                              pigp::SplitMix64& rng) {
  graph::GraphDelta delta;
  std::vector<graph::VertexId> touched;
  const auto pick = [&]() { return alive[rng.next_below(alive.size())]; };
  for (int i = 0; i < kChurnCutEdges; ++i) {
    const graph::VertexId u = pick();
    const auto nbrs = g.neighbors(u);
    if (nbrs.empty()) continue;
    const graph::VertexId v = nbrs[rng.next_below(nbrs.size())];
    const auto e = graph::canonical_edge(u, v);
    if (std::find(delta.removed_edges.begin(), delta.removed_edges.end(), e) !=
        delta.removed_edges.end()) {
      continue;
    }
    delta.removed_edges.push_back(e);
    touched.push_back(u);
    touched.push_back(v);
  }
  for (int i = 0; i < kChurnRemovedVertices; ++i) {
    // Retire a vertex no cut edge of this delta names (a removed edge may
    // not reference a vertex removed in the same delta).
    for (int attempt = 0; attempt < 64; ++attempt) {
      const std::size_t k = rng.next_below(alive.size());
      if (std::find(touched.begin(), touched.end(), alive[k]) !=
          touched.end()) {
        continue;
      }
      delta.removed_vertices.push_back(alive[k]);
      alive[k] = alive.back();
      alive.pop_back();
      break;
    }
  }
  for (int i = 0; i < kChurnAddedVertices; ++i) {
    graph::VertexAddition add;
    const graph::VertexId a = pick();
    const graph::VertexId b = pick();
    add.edges.emplace_back(a, 1.0);
    if (b != a) add.edges.emplace_back(b, 1.0);
    delta.added_vertices.push_back(std::move(add));
  }
  return delta;
}

}  // namespace

void replay_delta(graph::Graph& g, const graph::GraphDelta& delta) {
  for (const graph::VertexId v : delta.removed_vertices) {
    if (g.is_live(v)) g.remove_vertex(v);
  }
  std::vector<std::pair<graph::VertexId, graph::VertexId>> cut;
  cut.reserve(delta.removed_edges.size());
  for (const auto& [u, v] : delta.removed_edges) {
    cut.push_back(graph::canonical_edge(u, v));
  }
  std::sort(cut.begin(), cut.end());
  cut.erase(std::unique(cut.begin(), cut.end()), cut.end());
  for (const auto& [u, v] : cut) {
    if (g.is_live(u) && g.is_live(v)) (void)g.remove_edge(u, v);
  }
  for (const graph::VertexAddition& add : delta.added_vertices) {
    const graph::VertexId self = g.add_vertex(add.weight);
    for (const auto& [endpoint, weight] : add.edges) {
      (void)g.insert_edge(self, endpoint, weight);
    }
  }
  for (std::size_t i = 0; i < delta.added_edges.size(); ++i) {
    const auto [u, v] = delta.added_edges[i];
    (void)g.insert_edge(
        u, v, delta.added_edge_weights.empty() ? 1.0 : delta.added_edge_weights[i]);
  }
}

Stream make_stream(const graph::Graph& base, StreamKind kind, int count,
                   std::uint64_t seed) {
  Stream stream;
  stream.final_graph = base;
  graph::Graph& g = stream.final_graph;
  pigp::SplitMix64 rng(seed);
  std::vector<graph::VertexId> alive;
  if (kind == StreamKind::churn) {
    for (graph::VertexId v = 0; v < g.num_vertices(); ++v) {
      if (g.is_live(v)) alive.push_back(v);
    }
  }
  stream.deltas.reserve(static_cast<std::size_t>(count));
  for (int d = 0; d < count; ++d) {
    graph::GraphDelta delta = kind == StreamKind::grow
                                  ? grow_delta(g.num_vertices(), rng)
                                  : churn_delta(g, alive, rng);
    graph::validate_delta(g, delta);
    const graph::VertexId first_new = g.num_vertices();
    replay_delta(g, delta);
    if (kind == StreamKind::churn) {
      for (graph::VertexId v = first_new; v < g.num_vertices(); ++v) {
        alive.push_back(v);
      }
    }
    stream.ids_after.push_back(g.num_vertices());
    stream.deltas.push_back(std::move(delta));
  }
  return stream;
}

std::uint64_t hash_graph(const graph::Graph& g) {
  Hasher h;
  h.value(g.num_vertices());
  h.value(g.num_edges());
  for (graph::VertexId v = 0; v < g.num_vertices(); ++v) {
    const bool live = g.is_live(v);
    h.value(live);
    if (!live) continue;
    h.value(g.vertex_weight(v));
    const auto nbrs = g.neighbors(v);
    h.bytes(nbrs.data(), nbrs.size_bytes());
    const auto w = g.incident_edge_weights(v);
    h.bytes(w.data(), w.size_bytes());
  }
  return h.digest();
}

std::uint64_t hash_stream(const Stream& stream) {
  Hasher h;
  for (const graph::GraphDelta& d : stream.deltas) {
    h.value(d.added_vertices.size());
    for (const graph::VertexAddition& add : d.added_vertices) {
      h.value(add.weight);
      h.value(add.edges.size());
      for (const auto& [endpoint, weight] : add.edges) {  // no padding bytes
        h.value(endpoint);
        h.value(weight);
      }
    }
    h.range(d.added_edges);
    h.range(d.added_edge_weights);
    h.range(d.removed_vertices);
    h.range(d.removed_edges);
  }
  return h.digest();
}

std::uint64_t hash_partition(const std::vector<graph::PartId>& part) {
  Hasher h;
  h.range(part);
  return h.digest();
}

}  // namespace perfbench
