// SPMD (message-passing) driver vs shared-memory driver equivalence.

#include "core/spmd_igp.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/igp.hpp"
#include "core/transfer.hpp"
#include "graph/generators.hpp"
#include "graph/partition.hpp"
#include "graph/partition_state.hpp"
#include "graph/shard.hpp"
#include "mesh/paper_meshes.hpp"
#include "spectral/partitioners.hpp"

namespace pigp::core {
namespace {

using graph::Graph;
using graph::Partitioning;

struct SpmdCase {
  int ranks;
  int parts;
};

class SpmdEquivalence : public ::testing::TestWithParam<SpmdCase> {};

/// Both drivers run one stage protocol, so the whole stage record, the
/// final deviation and the refinement outcome match — not only the parts.
void expect_same_record(const IgpResult& expected, const IgpResult& actual) {
  const BalanceResult& want = expected.balance_result;
  const BalanceResult& got = actual.balance_result;
  ASSERT_EQ(want.stages.size(), got.stages.size());
  for (std::size_t s = 0; s < want.stages.size(); ++s) {
    EXPECT_EQ(want.stages[s].alpha, got.stages[s].alpha) << "stage " << s;
    EXPECT_EQ(want.stages[s].layer_depth, got.stages[s].layer_depth)
        << "stage " << s;
    EXPECT_EQ(want.stages[s].lp_rows, got.stages[s].lp_rows) << "stage " << s;
    EXPECT_EQ(want.stages[s].lp_variables, got.stages[s].lp_variables)
        << "stage " << s;
    EXPECT_EQ(want.stages[s].lp_iterations, got.stages[s].lp_iterations)
        << "stage " << s;
    EXPECT_EQ(want.stages[s].vertices_moved, got.stages[s].vertices_moved)
        << "stage " << s;
  }
  EXPECT_EQ(want.final_max_deviation, got.final_max_deviation);
  EXPECT_EQ(expected.refine_stats.rounds, actual.refine_stats.rounds);
  EXPECT_EQ(expected.refine_stats.vertices_moved,
            actual.refine_stats.vertices_moved);
  EXPECT_EQ(expected.refine_stats.cut_after, actual.refine_stats.cut_after);
}

TEST_P(SpmdEquivalence, MatchesSharedMemoryDriver) {
  const SpmdCase param = GetParam();
  const mesh::MeshSequence seq = mesh::make_small_mesh_sequence(
      600, {80}, 91 + static_cast<std::uint64_t>(param.ranks));
  const Partitioning initial = spectral::recursive_spectral_bisection(
      seq.graphs[0], param.parts);

  IncrementalPartitioner serial;
  const IgpResult expected = serial.repartition(
      seq.graphs[1], initial, seq.graphs[0].num_vertices());

  MachineExecutor executor(param.ranks);
  const IgpResult actual = spmd_repartition(
      executor, seq.graphs[1], initial, seq.graphs[0].num_vertices());

  EXPECT_EQ(expected.partitioning.part, actual.partitioning.part);
  EXPECT_EQ(expected.balanced, actual.balanced);
  EXPECT_EQ(expected.stages, actual.stages);
  expect_same_record(expected, actual);
}

INSTANTIATE_TEST_SUITE_P(RankCounts, SpmdEquivalence,
                         ::testing::Values(SpmdCase{1, 8}, SpmdCase{2, 8},
                                           SpmdCase{4, 8}, SpmdCase{8, 8},
                                           SpmdCase{3, 7}, SpmdCase{8, 16}));

TEST(SpmdIgp, WithoutRefinement) {
  const mesh::MeshSequence seq = mesh::make_small_mesh_sequence(500, {60}, 5);
  const Partitioning initial =
      spectral::recursive_spectral_bisection(seq.graphs[0], 8);

  IgpOptions options;
  options.refine = false;
  IncrementalPartitioner serial(options);
  const IgpResult expected = serial.repartition(
      seq.graphs[1], initial, seq.graphs[0].num_vertices());

  MachineExecutor executor(4);
  const IgpResult actual =
      spmd_repartition(executor, seq.graphs[1], initial,
                       seq.graphs[0].num_vertices(), options);
  EXPECT_EQ(expected.partitioning.part, actual.partitioning.part);
  expect_same_record(expected, actual);
}

TEST(SpmdIgp, MachineIsReusable) {
  const mesh::MeshSequence seq =
      mesh::make_small_mesh_sequence(500, {40, 40}, 7);
  Partitioning current =
      spectral::recursive_spectral_bisection(seq.graphs[0], 8);

  MachineExecutor executor(4);
  for (std::size_t step = 0; step + 1 < seq.graphs.size(); ++step) {
    const IgpResult result =
        spmd_repartition(executor, seq.graphs[step + 1], current,
                         seq.graphs[step].num_vertices());
    EXPECT_TRUE(graph::is_balanced(seq.graphs[step + 1],
                                   result.partitioning, 1.0))
        << "step " << step;
    current = result.partitioning;
  }
}

/// One rank's side of a balance stage run with its own part count: an
/// imbalanced contiguous partitioning of a small geometric graph, layering
/// seeded for \p owned, the stage handshake, then the engine's selection
/// over the settled move matrix.
void settle_with_parts(net::Transport& t, graph::PartId parts,
                       const std::vector<graph::PartId>& owned) {
  const Graph g = graph::random_geometric_graph(400, 0.1, 7);
  const Partitioning p =
      graph::contiguous_partitioning(g.num_vertices(), parts, 1.0);
  graph::PartitionState state(g, p);
  BoundaryLayering layering(g, p);
  layering.reseed(state, 1, &owned);
  std::vector<double> excess(static_cast<std::size_t>(parts), 0.0);
  (void)compute_excess(
      state.weights(),
      graph::balance_targets(g.total_vertex_weight(), parts), excess);
  std::vector<std::int64_t> eps_rows;
  std::vector<std::int64_t> moves;
  const SpmdStage stage = spmd_settle_stage(t, layering, owned, excess,
                                            BalanceOptions{}, eps_rows, moves);
  if (!stage.progress) return;
  for (const graph::PartId q : owned) {
    (void)select_partition_transfers(
        g, p, layering.label(), layering.layer(), layering.labeled(q), q,
        moves.data() + static_cast<std::size_t>(q) * p.num_parts);
  }
}

std::vector<graph::PartId> round_robin_owned(graph::PartId parts, int rank) {
  std::vector<graph::PartId> owned;
  for (graph::PartId q = 0; q < parts; ++q) {
    if (graph::shard_owner(q, 2) == rank) owned.push_back(q);
  }
  return owned;
}

TEST(SpmdIgp, PartCountMismatchFailsTypedOnRankZero) {
  // Rank 0 runs P = 6, rank 1 P = 8: rank 1's 4 owned rows of 8 do not fit
  // the 3 rows of 6 rank 0 expects from it.  Rank 0 must refuse the packet
  // with a fatal TransportError naming both counts, instead of deciding
  // moves rank 1 would read as an 8x8 matrix.
  net::TcpOptions options;
  options.recv_timeout_ms = 5000;
  bool rank0_fatal = false;
  std::string rank0_message;
  EXPECT_THROW(
      net::run_tcp_loopback(
          2, options,
          [&](net::Transport& t) {
            const graph::PartId parts = t.rank() == 0 ? 6 : 8;
            try {
              settle_with_parts(t, parts, round_robin_owned(parts, t.rank()));
            } catch (const net::TransportError& e) {
              if (t.rank() == 0) {
                rank0_fatal = !e.retryable();
                rank0_message = e.what();
              }
              throw;
            }
          }),
      net::TransportError);
  EXPECT_TRUE(rank0_fatal);
  EXPECT_NE(rank0_message.find("32"), std::string::npos) << rank0_message;
  EXPECT_NE(rank0_message.find("18"), std::string::npos) << rank0_message;
}

TEST(SpmdIgp, PartCountMismatchFailsTypedOnReceivers) {
  // Rank 1 runs P = 9 but offers only 2 rows, so its 18 eps entries pass
  // rank 0's length check for P = 6.  The 6x6 move matrix rank 0 then
  // broadcasts must be refused by rank 1, which expects 9x9.
  net::TcpOptions options;
  options.recv_timeout_ms = 5000;
  bool rank1_fatal = false;
  EXPECT_THROW(net::run_tcp_loopback(
                   2, options,
                   [&](net::Transport& t) {
                     try {
                       if (t.rank() == 0) {
                         settle_with_parts(t, 6, round_robin_owned(6, 0));
                       } else {
                         settle_with_parts(t, 9, {1, 3});
                       }
                     } catch (const net::TransportError& e) {
                       if (t.rank() == 1) rank1_fatal = !e.retryable();
                       throw;
                     }
                   }),
               net::TransportError);
  EXPECT_TRUE(rank1_fatal);
}

}  // namespace
}  // namespace pigp::core
