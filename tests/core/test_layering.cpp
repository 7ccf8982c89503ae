// Step 2: the layering algorithm of Figure 3 (§2.2).

#include "core/layering.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <vector>

#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "graph/partition_state.hpp"
#include "support/rng.hpp"

namespace pigp::core {
namespace {

using graph::Graph;
using graph::GraphBuilder;
using graph::Partitioning;
using graph::VertexId;

TEST(Layering, ZeroWeightBoundaryEdgesLeaveVerticesUnlabeled) {
  // Vertices {0,1} in partition 0, {2} in partition 1; the only cross edge
  // {0,2} has weight zero.  Vertex 0 is structurally boundary but carries
  // no label (all-zero tally), and vertex 1 — reachable only through the
  // unlabeled vertex 0 — must also stay unlabeled instead of reading a
  // tally slot at index -1 (regression: heap overflow under ASan).
  GraphBuilder b(3);
  b.add_edge(0, 2, 0.0);
  b.add_edge(0, 1, 1.0);
  const Graph g = b.build();
  Partitioning p;
  p.num_parts = 2;
  p.part = {0, 0, 1};

  const LayeringResult r = layer_partitions(g, p);
  EXPECT_EQ(r.label[0], -1);
  EXPECT_EQ(r.layer[0], 0);  // structurally boundary
  EXPECT_EQ(r.label[1], -1);
  EXPECT_EQ(r.label[2], -1);
  for (std::size_t i = 0; i < 2; ++i) {
    for (std::size_t j = 0; j < 2; ++j) {
      EXPECT_EQ(r.eps(i, j), 0);
    }
  }

  // The boundary-seeded path agrees bit for bit.
  const graph::PartitionState state(g, p);
  const LayeringResult boundary = layer_partitions_from(g, p, state);
  EXPECT_EQ(boundary.label, r.label);
  EXPECT_EQ(boundary.layer, r.layer);
  EXPECT_EQ(boundary.eps, r.eps);
}

TEST(Layering, TwoBlockPathLabelsTowardTheOtherSide) {
  // Path 0-1-2-3-4-5 split {0,1,2 | 3,4,5}: every vertex's closest outside
  // partition is the other one; layers count distance to the boundary.
  const Graph g = graph::path_graph(6);
  Partitioning p;
  p.num_parts = 2;
  p.part = {0, 0, 0, 1, 1, 1};
  const LayeringResult r = layer_partitions(g, p);

  for (int v = 0; v < 3; ++v) {
    EXPECT_EQ(r.label[static_cast<std::size_t>(v)], 1) << v;
  }
  for (int v = 3; v < 6; ++v) {
    EXPECT_EQ(r.label[static_cast<std::size_t>(v)], 0) << v;
  }
  EXPECT_EQ(r.layer[2], 0);  // boundary
  EXPECT_EQ(r.layer[1], 1);
  EXPECT_EQ(r.layer[0], 2);
  EXPECT_EQ(r.layer[3], 0);
  EXPECT_EQ(r.layer[5], 2);

  EXPECT_EQ(r.eps(0, 1), 3);
  EXPECT_EQ(r.eps(1, 0), 3);
  EXPECT_EQ(r.eps(0, 0), 0);
}

TEST(Layering, BoundaryTagFollowsMajorityEdgeCount) {
  // Vertex 0 (part 0) has two edges into part 2 and one into part 1: its
  // label must be 2.
  GraphBuilder b(4);
  b.add_edge(0, 1);  // part 1
  b.add_edge(0, 2);  // part 2
  b.add_edge(0, 3);  // part 2
  const Graph g = b.build();
  Partitioning p;
  p.num_parts = 3;
  p.part = {0, 1, 2, 2};
  const LayeringResult r = layer_partitions(g, p);
  EXPECT_EQ(r.label[0], 2);
  EXPECT_EQ(r.eps(0, 2), 1);
  EXPECT_EQ(r.eps(0, 1), 0);
}

TEST(Layering, MajorityTieBreaksToSmallerPartition) {
  GraphBuilder b(3);
  b.add_edge(0, 1);  // part 2
  b.add_edge(0, 2);  // part 1
  const Graph g = b.build();
  Partitioning p;
  p.num_parts = 3;
  p.part = {0, 2, 1};
  const LayeringResult r = layer_partitions(g, p);
  EXPECT_EQ(r.label[0], 1);  // tie between 1 and 2 -> smaller id
}

TEST(Layering, EdgeWeightsDriveTheMajority) {
  GraphBuilder b(3);
  b.add_edge(0, 1, 5.0);  // heavy edge into part 2
  b.add_edge(0, 2, 1.0);  // light edge into part 1
  const Graph g = b.build();
  Partitioning p;
  p.num_parts = 3;
  p.part = {0, 2, 1};
  const LayeringResult r = layer_partitions(g, p);
  EXPECT_EQ(r.label[0], 2);
}

TEST(Layering, InnerLayersInheritFromPreviousLayer) {
  // Grid strip: part 0 is a 3x3 block neighboring part 1 on the right.
  // Column x=2 is layer 0, x=1 layer 1, x=0 layer 2, all labeled 1.
  const Graph g = graph::grid_graph(3, 6);
  Partitioning p;
  p.num_parts = 2;
  p.part.assign(18, 0);
  for (int r = 0; r < 3; ++r) {
    for (int c = 3; c < 6; ++c) {
      p.part[static_cast<std::size_t>(r * 6 + c)] = 1;
    }
  }
  const LayeringResult res = layer_partitions(g, p);
  for (int r = 0; r < 3; ++r) {
    EXPECT_EQ(res.layer[static_cast<std::size_t>(r * 6 + 2)], 0);
    EXPECT_EQ(res.layer[static_cast<std::size_t>(r * 6 + 1)], 1);
    EXPECT_EQ(res.layer[static_cast<std::size_t>(r * 6 + 0)], 2);
    for (int c = 0; c < 3; ++c) {
      EXPECT_EQ(res.label[static_cast<std::size_t>(r * 6 + c)], 1);
    }
  }
  EXPECT_EQ(res.eps(0, 1), 9);
  EXPECT_EQ(res.eps(1, 0), 9);
}

TEST(Layering, EpsRowSumsEqualPartitionSizesWhenConnected) {
  const Graph g = graph::random_geometric_graph(800, 0.06, 41);
  Partitioning p;
  p.num_parts = 8;
  p.part.resize(800);
  for (VertexId v = 0; v < 800; ++v) {
    p.part[static_cast<std::size_t>(v)] = v % 8;
  }
  const LayeringResult r = layer_partitions(g, p);
  // Every labeled vertex contributes to exactly one eps entry.
  std::vector<std::int64_t> labeled(8, 0);
  for (VertexId v = 0; v < 800; ++v) {
    if (r.label[static_cast<std::size_t>(v)] >= 0) {
      ++labeled[static_cast<std::size_t>(p.part[static_cast<std::size_t>(v)])];
    }
  }
  for (int q = 0; q < 8; ++q) {
    std::int64_t row_sum = 0;
    for (int j = 0; j < 8; ++j) {
      row_sum += r.eps(static_cast<std::size_t>(q), static_cast<std::size_t>(j));
    }
    EXPECT_EQ(row_sum, labeled[static_cast<std::size_t>(q)]);
  }
}

TEST(Layering, InteriorOnlyPartitionStaysUnlabeled) {
  // Two disconnected edges in different partitions: no cross edges at all,
  // so nothing can be labeled.
  GraphBuilder b(4);
  b.add_edge(0, 1);
  b.add_edge(2, 3);
  const Graph g = b.build();
  Partitioning p;
  p.num_parts = 2;
  p.part = {0, 0, 1, 1};
  const LayeringResult r = layer_partitions(g, p);
  for (int v = 0; v < 4; ++v) {
    EXPECT_EQ(r.label[static_cast<std::size_t>(v)], -1);
    EXPECT_EQ(r.layer[static_cast<std::size_t>(v)], -1);
  }
  EXPECT_EQ(r.eps(0, 1), 0);
}

TEST(Layering, ParallelMatchesSerial) {
  const Graph g = graph::random_geometric_graph(1500, 0.05, 29);
  Partitioning p;
  p.num_parts = 16;
  p.part.resize(1500);
  for (VertexId v = 0; v < 1500; ++v) {
    p.part[static_cast<std::size_t>(v)] = v % 16;
  }
  const LayeringResult serial = layer_partitions(g, p, 1);
  const LayeringResult parallel = layer_partitions(g, p, 8);
  EXPECT_EQ(serial.label, parallel.label);
  EXPECT_EQ(serial.layer, parallel.layer);
  EXPECT_EQ(serial.eps, parallel.eps);
}

TEST(Layering, MatchesPaperFigure4Shape) {
  // Reproduce the microscopic structure of Figure 4(a): a partition whose
  // vertices peel layer by layer toward the closest neighbor partitions.
  const Graph g = graph::grid_graph(6, 6);
  Partitioning p;
  p.num_parts = 4;
  p.part.resize(36);
  for (int r = 0; r < 6; ++r) {
    for (int c = 0; c < 6; ++c) {
      p.part[static_cast<std::size_t>(r * 6 + c)] =
          (r < 3 ? 0 : 2) + (c < 3 ? 0 : 1);
    }
  }
  const LayeringResult res = layer_partitions(g, p);
  // Corner vertex of each quadrant block touching the two neighbors has
  // layer 0; the far corner has the deepest layer (2 within a 3x3 block).
  EXPECT_EQ(res.layer[0], 2);   // (0,0): farthest from other partitions
  EXPECT_EQ(res.layer[14], 0);  // (2,2): touches both neighbors
  // All vertices are labeled (grid is connected).
  for (int v = 0; v < 36; ++v) {
    EXPECT_GE(res.label[static_cast<std::size_t>(v)], 0);
  }
}

// --- Tie rule and dense oracle -------------------------------------------
// The layering tallies only the labels a vertex's neighbours carry.  These
// cases pin the decisions of the dense O(P) tally it replaced: ties are
// walked in ascending label id and picked by mix(v) % count.

/// The layering's tie hash (murmur3 finalizer), copied so the expected
/// picks are computed independently of the library.
std::uint64_t oracle_mix(std::uint64_t x) {
  x ^= x >> 33;
  x *= 0xFF51AFD7ED558CCDULL;
  x ^= x >> 33;
  x *= 0xC4CEB9FE1A85EC53ULL;
  x ^= x >> 33;
  return x;
}

/// Dense majority label over all P slots.
graph::PartId oracle_majority_label(const std::vector<double>& tally,
                                    VertexId v) {
  double best = 0.0;
  for (const double t : tally) best = std::max(best, t);
  if (best <= 0.0) return -1;
  int tied_count = 0;
  graph::PartId only = -1;
  for (std::size_t q = 0; q < tally.size(); ++q) {
    if (tally[q] == best) {
      only = static_cast<graph::PartId>(q);
      ++tied_count;
    }
  }
  if (tied_count == 1) return only;
  const int pick = static_cast<int>(
      oracle_mix(static_cast<std::uint64_t>(v)) %
      static_cast<std::uint64_t>(tied_count));
  int seen = 0;
  for (std::size_t q = 0; q < tally.size(); ++q) {
    if (tally[q] == best) {
      if (seen == pick) return static_cast<graph::PartId>(q);
      ++seen;
    }
  }
  return only;
}

/// Dense layering of every partition: seed from a member scan, grow level
/// by level, clear and scan all P tally slots per vertex.
LayeringResult oracle_layering(const Graph& g, const Partitioning& p) {
  const auto n = static_cast<std::size_t>(g.num_vertices());
  const auto parts = static_cast<std::size_t>(p.num_parts);
  LayeringResult r;
  r.label.assign(n, -1);
  r.layer.assign(n, -1);
  r.eps = pigp::DenseMatrix<std::int64_t>(parts, parts, 0);
  std::vector<double> tally(parts, 0.0);
  for (graph::PartId q = 0; q < p.num_parts; ++q) {
    std::vector<VertexId> frontier;
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      if (p.part[static_cast<std::size_t>(v)] != q) continue;
      std::fill(tally.begin(), tally.end(), 0.0);
      const auto nbrs = g.neighbors(v);
      const auto weights = g.incident_edge_weights(v);
      bool boundary = false;
      for (std::size_t i = 0; i < nbrs.size(); ++i) {
        const graph::PartId o = p.part[static_cast<std::size_t>(nbrs[i])];
        if (o != q) {
          tally[static_cast<std::size_t>(o)] += weights[i];
          boundary = true;
        }
      }
      if (!boundary) continue;
      const graph::PartId best = oracle_majority_label(tally, v);
      r.label[static_cast<std::size_t>(v)] = best;
      r.layer[static_cast<std::size_t>(v)] = 0;
      if (best >= 0) {
        ++r.eps(static_cast<std::size_t>(q), static_cast<std::size_t>(best));
      }
      frontier.push_back(v);
    }
    for (std::int32_t level = 0; !frontier.empty(); ++level) {
      std::vector<VertexId> next;
      for (const VertexId u : frontier) {
        for (const VertexId w : g.neighbors(u)) {
          if (p.part[static_cast<std::size_t>(w)] != q) continue;
          if (r.layer[static_cast<std::size_t>(w)] >= 0) continue;
          r.layer[static_cast<std::size_t>(w)] = level + 1;
          next.push_back(w);
        }
      }
      std::sort(next.begin(), next.end());
      for (const VertexId w : next) {
        std::fill(tally.begin(), tally.end(), 0.0);
        const auto nbrs = g.neighbors(w);
        const auto weights = g.incident_edge_weights(w);
        for (std::size_t i = 0; i < nbrs.size(); ++i) {
          const auto u = static_cast<std::size_t>(nbrs[i]);
          if (p.part[u] == q && r.layer[u] == level && r.label[u] >= 0) {
            tally[static_cast<std::size_t>(r.label[u])] += weights[i];
          }
        }
        const graph::PartId best = oracle_majority_label(tally, w);
        r.label[static_cast<std::size_t>(w)] = best;
        if (best >= 0) {
          ++r.eps(static_cast<std::size_t>(q),
                  static_cast<std::size_t>(best));
        }
      }
      frontier.swap(next);
    }
  }
  return r;
}

TEST(Layering, ThreeWayTieWalksLabelsInAscendingId) {
  // Gadget k: centre 4k+3 in partition 0 and leaves 4k, 4k+1, 4k+2 in
  // partitions 3, 2, 1 — the centre meets its neighbours' labels in
  // descending id order, and all three tie.  Its label must be the
  // (mix(centre) % 3)-th of {1, 2, 3} in ascending order.
  constexpr int kGadgets = 12;
  GraphBuilder b(4 * kGadgets);
  Partitioning p;
  p.num_parts = 4;
  p.part.resize(4 * kGadgets);
  for (int k = 0; k < kGadgets; ++k) {
    const VertexId centre = 4 * k + 3;
    p.part[static_cast<std::size_t>(centre)] = 0;
    for (int i = 0; i < 3; ++i) {
      p.part[static_cast<std::size_t>(4 * k + i)] = 3 - i;
      b.add_edge(centre, 4 * k + i);
    }
  }
  const Graph g = b.build();
  const LayeringResult r = layer_partitions(g, p);
  const graph::PartitionState state(g, p);
  const LayeringResult from = layer_partitions_from(g, p, state);

  std::set<std::uint64_t> positions;
  for (int k = 0; k < kGadgets; ++k) {
    const VertexId centre = 4 * k + 3;
    const std::uint64_t pos =
        oracle_mix(static_cast<std::uint64_t>(centre)) % 3;
    positions.insert(pos);
    const auto expected = static_cast<graph::PartId>(1 + pos);
    EXPECT_EQ(r.label[static_cast<std::size_t>(centre)], expected)
        << "centre " << centre;
    EXPECT_EQ(from.label[static_cast<std::size_t>(centre)], expected)
        << "centre " << centre;
  }
  // The gadget ids exercise every tie position.
  EXPECT_EQ(positions.size(), 3U);
}

TEST(Layering, RandomGraphsMatchDenseOracle) {
  // Unit weights make ties common; a tenth of the edges weigh zero, so some
  // labels are reached only through weightless edges and some vertices
  // stay unlabeled.  Blocked partitions with random flips give layers
  // several levels deep.
  for (const graph::PartId parts : {2, 7, 32}) {
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
      SplitMix64 rng(seed * 131 + static_cast<std::uint64_t>(parts));
      const auto n = static_cast<VertexId>(40 + rng.next_below(160));
      GraphBuilder b(n);
      std::set<std::pair<VertexId, VertexId>> edges;
      const auto add = [&](VertexId u, VertexId v) {
        if (u == v) return;
        if (!edges.insert({std::min(u, v), std::max(u, v)}).second) return;
        b.add_edge(u, v, rng.next_below(10) == 0 ? 0.0 : 1.0);
      };
      for (VertexId v = 0; v < n; ++v) {
        for (VertexId d = 1; d <= 3; ++d) {
          if (v + d < n && rng.next_below(3) != 0) add(v, v + d);
        }
        if (rng.next_below(4) == 0) {
          add(v, static_cast<VertexId>(rng.next_below(
                     static_cast<std::uint64_t>(n))));
        }
      }
      const Graph g = b.build();
      Partitioning p;
      p.num_parts = parts;
      p.part.resize(static_cast<std::size_t>(n));
      for (VertexId v = 0; v < n; ++v) {
        graph::PartId q = static_cast<graph::PartId>(
            static_cast<std::int64_t>(v) * parts / n);
        if (rng.next_below(8) == 0) {
          q = static_cast<graph::PartId>(
              rng.next_below(static_cast<std::uint64_t>(parts)));
        }
        p.part[static_cast<std::size_t>(v)] = q;
      }

      const LayeringResult want = oracle_layering(g, p);
      const LayeringResult batch = layer_partitions(g, p);
      const graph::PartitionState state(g, p);
      const LayeringResult from = layer_partitions_from(g, p, state);
      SCOPED_TRACE(::testing::Message()
                   << "parts " << parts << " seed " << seed);
      EXPECT_EQ(batch.label, want.label);
      EXPECT_EQ(batch.layer, want.layer);
      EXPECT_EQ(batch.eps, want.eps);
      EXPECT_EQ(from.label, want.label);
      EXPECT_EQ(from.layer, want.layer);
      EXPECT_EQ(from.eps, want.eps);
    }
  }
}

}  // namespace
}  // namespace pigp::core
