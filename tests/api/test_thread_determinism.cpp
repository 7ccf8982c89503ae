// End-to-end determinism across thread counts and engines: one seeded
// structural stream (vertex adds, edge cuts, vertex removals) driven
// through a Session must end in the bit-identical assignment whether the
// flat igpr backend runs on 1, 2 or 4 threads, or the SPMD backend runs on
// 3 in-process ranks — for each LP solver.  Threads and ranks only split
// the work; no decision may depend on them.

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "api/session.hpp"
#include "graph/delta.hpp"
#include "graph/generators.hpp"
#include "spectral/partitioners.hpp"
#include "support/rng.hpp"

namespace pigp {
namespace {

using graph::Graph;
using graph::GraphDelta;
using graph::Partitioning;
using graph::VertexAddition;
using graph::VertexId;

constexpr graph::PartId kParts = 8;
constexpr int kDeltas = 4;

/// Uniformly random vertex of \p g that is not in \p excluded.
VertexId pick_vertex(const Graph& g, const std::set<VertexId>& excluded,
                     SplitMix64& rng) {
  for (;;) {
    const auto v = static_cast<VertexId>(
        rng.next_below(static_cast<std::uint64_t>(g.num_vertices())));
    if (excluded.count(v) == 0) return v;
  }
}

/// One mixed delta against \p g: 3 vertex removals, up to 6 edge cuts
/// between survivors, and a localized burst of 30 new vertices around one
/// surviving center (the §1.1 refinement pattern), each chained to the
/// previous new vertex.  The burst overloads the center's partition, so
/// balancing has to move whole layers, not a few boundary vertices.
GraphDelta mixed_delta(const Graph& g, SplitMix64& rng) {
  GraphDelta delta;
  std::set<VertexId> removed;
  while (removed.size() < 3) removed.insert(pick_vertex(g, removed, rng));
  delta.removed_vertices.assign(removed.begin(), removed.end());

  std::set<std::pair<VertexId, VertexId>> cut;
  for (int attempt = 0; attempt < 6; ++attempt) {
    const VertexId u = pick_vertex(g, removed, rng);
    const auto nbrs = g.neighbors(u);
    if (nbrs.empty()) continue;
    const VertexId v = nbrs[rng.next_below(nbrs.size())];
    if (removed.count(v) == 0) cut.insert(graph::canonical_edge(u, v));
  }
  delta.removed_edges.assign(cut.begin(), cut.end());

  const VertexId center = pick_vertex(g, removed, rng);
  std::vector<VertexId> anchors = {center};
  for (const VertexId w : g.neighbors(center)) {
    if (removed.count(w) == 0) anchors.push_back(w);
  }
  const VertexId n = g.num_vertices();
  for (VertexId i = 0; i < 30; ++i) {
    const auto slot = static_cast<std::size_t>(i) % anchors.size();
    VertexAddition add;
    add.edges.emplace_back(anchors[slot], 1.0);
    if (i > 0) add.edges.emplace_back(n + i - 1, 1.0);
    delta.added_vertices.push_back(std::move(add));
  }
  return delta;
}

struct Stream {
  Graph base;
  Partitioning initial;
  std::vector<GraphDelta> deltas;
};

/// The seeded stream, generated once against the apply_delta oracle chain
/// (the id space an eager-compaction Session reproduces exactly).
Stream make_stream() {
  Stream stream;
  stream.base = graph::random_geometric_graph(600, 0.07, 4242);
  stream.initial = spectral::recursive_spectral_bisection(stream.base, kParts);
  SplitMix64 rng(977);
  Graph g = stream.base;
  for (int step = 0; step < kDeltas; ++step) {
    stream.deltas.push_back(mixed_delta(g, rng));
    g = graph::apply_delta(g, stream.deltas.back()).graph;
  }
  return stream;
}

std::vector<graph::PartId> run(const Stream& stream, const std::string& backend,
                               core::LpSolverKind solver, int threads) {
  SessionConfig config;
  config.num_parts = kParts;
  config.backend = backend;
  config.solver = solver;
  config.num_threads = threads;
  config.spmd_ranks = 3;
  config.spmd_transport = "in_process";
  Session session(config, stream.base, stream.initial);
  for (const GraphDelta& delta : stream.deltas) {
    const SessionReport report = session.apply(delta);
    EXPECT_TRUE(report.repartitioned) << backend << " threads=" << threads;
  }
  session.partitioning().validate(session.graph());
  return session.partitioning().part;
}

void expect_deterministic(core::LpSolverKind solver) {
  const Stream stream = make_stream();
  const std::vector<graph::PartId> reference = run(stream, "igpr", solver, 1);
  ASSERT_EQ(reference.size(),
            static_cast<std::size_t>(stream.base.num_vertices() +
                                     kDeltas * (30 - 3)));
  for (const int threads : {2, 4}) {
    EXPECT_EQ(run(stream, "igpr", solver, threads), reference)
        << "igpr on " << threads << " threads";
  }
  EXPECT_EQ(run(stream, "spmd", solver, 1), reference) << "spmd, 3 ranks";
}

TEST(ThreadDeterminism, DenseSolverIsBitIdenticalAcrossThreadsAndRanks) {
  expect_deterministic(core::LpSolverKind::dense);
}

TEST(ThreadDeterminism, BoundedSolverIsBitIdenticalAcrossThreadsAndRanks) {
  expect_deterministic(core::LpSolverKind::bounded);
}

}  // namespace
}  // namespace pigp
