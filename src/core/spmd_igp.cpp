#include "core/spmd_igp.hpp"

#include <algorithm>
#include <optional>
#include <string>
#include <utility>

#include "core/layering.hpp"
#include "core/transfer.hpp"
#include "core/workspace.hpp"
#include "graph/shard.hpp"

namespace pigp::core {
namespace {

using graph::PartId;
using graph::VertexId;
using net::Packet;

/// A handshake packet whose length does not fit this rank's part count:
/// the ranks run with different P, which no retry can fix.
[[noreturn]] void throw_part_count_mismatch(const std::string& what,
                                            std::size_t got,
                                            std::size_t expected) {
  throw net::TransportError(what + " holds " + std::to_string(got) +
                                " entries, expected " +
                                std::to_string(expected) +
                                ": the ranks disagree on the part count",
                            net::FaultClass::fatal);
}

/// This rank's handshake offer: (exhausted flag, owned ε rows packed in
/// owned order through the \p eps_rows scratch).
Packet stage_offer(const BoundaryLayering& layering,
                   const std::vector<PartId>& owned, std::size_t parts,
                   std::vector<std::int64_t>& eps_rows) {
  eps_rows.assign(owned.size() * parts, 0);
  for (std::size_t k = 0; k < owned.size(); ++k) {
    const auto row = layering.eps().row(static_cast<std::size_t>(owned[k]));
    std::copy(row.begin(), row.end(), eps_rows.begin() + k * parts);
  }
  Packet offer;
  offer.pack(layering.exhausted() ? 1 : 0);
  offer.pack_vector(eps_rows);
  return offer;
}

/// Balance stages + refinement on an already-extended (g_new, shared,
/// state) triple — everything after step 1.  \p rank_ws holds one
/// persistent Workspace per rank (resumable layering + gather/pack
/// staging); \p refine_ws is the caller's workspace for the refinement
/// pass.
IgpResult run_spmd_engine(SpmdExecutor& executor, const graph::Graph& g_new,
                          graph::Partitioning& shared,
                          const IgpOptions& options,
                          graph::PartitionState& state,
                          std::vector<Workspace>& rank_ws,
                          Workspace& refine_ws) {
  rank_ws.resize(static_cast<std::size_t>(executor.num_ranks()));
  const auto parts = static_cast<std::size_t>(shared.num_parts);
  const std::vector<double> targets =
      graph::balance_targets(g_new.total_vertex_weight(), shared.num_parts);

  IgpResult result;

  // ---------------------------------------------------- balance stages
  executor.run([&](net::Transport& ctx) {
    // Rank-local ownership and resumable layering.  The per-vertex arrays
    // live in this rank's persistent Workspace: bind() refreshes the
    // graph/partitioning pointers and only pays a full reset after an
    // id remap or a shrink, so steady-state stages reset in O(labeled).
    Workspace& mine_ws = rank_ws[static_cast<std::size_t>(ctx.rank())];
    std::vector<PartId> owned;
    for (PartId q = 0; q < shared.num_parts; ++q) {
      if (graph::shard_owner(q, ctx.num_ranks()) == ctx.rank()) {
        owned.push_back(q);
      }
    }
    bool layering_bound = false;
    std::vector<double> excess(parts, 0.0);
    std::vector<std::int64_t>& moves_flat = mine_ws.spmd_moves_flat;

    for (int stage = 0; stage < options.balance.max_stages; ++stage) {
      // Every rank reads the excess off the shared state's maintained
      // weights — O(P), identical on all ranks (rank 0 is the only writer
      // and the stage ends in a barrier).
      if (compute_excess(state.weights(), targets, excess) <=
          options.balance.tolerance) {
        break;
      }

      // Boundary-seeded layering of the owned partitions, then the shared
      // deepen-vs-decide handshake.
      BoundaryLayering& layering = mine_ws.layering;
      if (!layering_bound) {
        layering.bind(g_new, shared);
        layering_bound = true;
      }
      layering.reseed(state, 1, &owned);
      const SpmdStage settled =
          spmd_settle_stage(ctx, layering, owned, excess, options.balance,
                            mine_ws.spmd_eps_rows, moves_flat);
      if (!settled.progress) break;
      if (ctx.rank() == 0) {
        result.balance_result.stages.push_back(settled.stats);
      }

      // Each rank selects the transfers out of its owned partitions with
      // the same ordering as the shared-memory driver (selection reads the
      // pre-move `shared` state).  The selections are then gathered and
      // rank 0 applies every move through the state in the flat driver's
      // order (source asc, dest asc, selection order) so the aggregates
      // and the boundary index evolve bit-identically.
      Packet sel_packet;
      for (const PartId q : owned) {
        const auto selections = select_partition_transfers(
            g_new, shared, layering.label(), layering.layer(),
            layering.labeled(q), q,
            moves_flat.data() + static_cast<std::size_t>(q) * parts);
        for (std::size_t j = 0; j < parts; ++j) {
          sel_packet.pack_vector(selections[j]);
        }
      }
      const std::vector<Packet> all_selections =
          ctx.allgather(std::move(sel_packet));
      if (ctx.rank() == 0) {
        std::vector<std::vector<std::vector<VertexId>>> by_source(parts);
        for (int r = 0; r < ctx.num_ranks(); ++r) {
          Packet p = all_selections[static_cast<std::size_t>(r)];
          for (PartId q = 0; q < shared.num_parts; ++q) {
            if (graph::shard_owner(q, ctx.num_ranks()) != r) continue;
            auto& rows = by_source[static_cast<std::size_t>(q)];
            rows.resize(parts);
            for (std::size_t j = 0; j < parts; ++j) {
              rows[j] = p.unpack_vector<VertexId>();
            }
          }
        }
        for (std::size_t i = 0; i < parts; ++i) {
          if (by_source[i].empty()) continue;
          for (std::size_t j = 0; j < parts; ++j) {
            for (const VertexId v : by_source[i][j]) {
              state.move_vertex(g_new, shared, v,
                                static_cast<PartId>(j));
            }
          }
        }
      }
      ctx.barrier();  // all transfers + state updates visible everywhere
    }
  });

  // Final deviation — O(P) off the maintained weights, reported like the
  // flat driver's however the stage loop ended.
  std::vector<double> excess(parts, 0.0);
  BalanceResult& balance = result.balance_result;
  balance.final_max_deviation =
      compute_excess(state.weights(), targets, excess);
  balance.balanced = balance.final_max_deviation <= options.balance.tolerance;
  result.balanced = balance.balanced;
  result.stages = static_cast<int>(balance.stages.size());

  // ---------------------------------------------------- refinement
  // The refinement LP is identical to the shared-memory path; candidate
  // gathering is the parallel part and reuses the OpenMP implementation.
  if (options.refine) {
    result.refine_stats = refine_partitioning(g_new, shared, state,
                                              options.refinement, &refine_ws);
  }
  return result;
}

}  // namespace

SpmdStage spmd_settle_stage(net::Transport& transport,
                            BoundaryLayering& layering,
                            const std::vector<PartId>& owned,
                            const std::vector<double>& excess,
                            const BalanceOptions& options,
                            std::vector<std::int64_t>& eps_rows,
                            std::vector<std::int64_t>& moves) {
  const std::size_t parts = excess.size();
  LayeringDepth depth(layering, options.max_layers, 1);
  SpmdStage stage;
  while (true) {
    const std::vector<Packet> gathered =
        transport.allgather(stage_offer(layering, owned, parts, eps_rows));

    Packet decision_packet;
    if (transport.rank() == 0) {
      bool all_exhausted = true;
      pigp::DenseMatrix<std::int64_t> eps(parts, parts, 0);
      for (int r = 0; r < transport.num_ranks(); ++r) {
        Packet p = gathered[static_cast<std::size_t>(r)];
        const bool rank_exhausted = p.unpack<int>() != 0;
        all_exhausted = all_exhausted && rank_exhausted;
        const std::vector<std::int64_t> rows = p.unpack_vector<std::int64_t>();
        std::size_t rank_parts = 0;
        for (PartId q = 0; q < static_cast<PartId>(parts); ++q) {
          if (graph::shard_owner(q, transport.num_ranks()) == r) ++rank_parts;
        }
        if (rows.size() != rank_parts * parts) {
          throw_part_count_mismatch("eps rows from rank " + std::to_string(r),
                                    rows.size(), rank_parts * parts);
        }
        const std::int64_t* next_row = rows.data();
        for (PartId q = 0; q < static_cast<PartId>(parts); ++q) {
          if (graph::shard_owner(q, transport.num_ranks()) != r) continue;
          std::copy_n(next_row, parts,
                      eps.row(static_cast<std::size_t>(q)).begin());
          next_row += parts;
        }
      }
      const std::optional<StageDecision> decision =
          settle_stage(eps, excess, all_exhausted, depth.depth(), options);
      decision_packet.pack(decision ? 0 : 1);  // 0 = moves ready, 1 = deepen
      if (decision) {
        stage.stats = decision->stats;
        decision_packet.pack(decision->progress ? 1 : 0);
        moves.assign(decision->moves.data(),
                     decision->moves.data() + parts * parts);
        decision_packet.pack_vector(moves);
      }
    }
    Packet received = transport.broadcast(0, std::move(decision_packet));
    if (received.unpack<int>() == 1) {
      depth.deepen();
      continue;
    }
    stage.progress = received.unpack<int>() != 0;
    if (stage.progress) {
      moves = received.unpack_vector<std::int64_t>();
      if (moves.size() != parts * parts) {
        throw_part_count_mismatch(
            "move matrix on rank " + std::to_string(transport.rank()),
            moves.size(), parts * parts);
      }
    }
    return stage;
  }
}

IgpResult spmd_repartition_in_place(SpmdExecutor& executor,
                                    const graph::Graph& g_new,
                                    graph::Partitioning& partitioning,
                                    VertexId n_old, const IgpOptions& options,
                                    graph::PartitionState& state,
                                    Workspace& ws,
                                    std::vector<Workspace>& rank_ws) {
  // Step 1: seeded in-place assignment through the maintained state (the
  // SPMD engine replicates the graph, so step 1 is a single global pass).
  AssignOptions assign_options;
  assign_options.num_threads = 1;
  extend_assignment_state(g_new, partitioning, n_old, state, ws,
                          assign_options);
  return run_spmd_engine(executor, g_new, partitioning, options, state,
                         rank_ws, ws);
}

IgpResult spmd_repartition(SpmdExecutor& executor,
                           const graph::Graph& g_new,
                           const graph::Partitioning& old_partitioning,
                           VertexId n_old, const IgpOptions& options) {
  graph::Partitioning working;
  graph::PartitionState state;
  seed_in_place(g_new, old_partitioning, n_old, working, state);
  Workspace ws;
  std::vector<Workspace> rank_ws;
  IgpResult result = spmd_repartition_in_place(
      executor, g_new, working, n_old, options, state, ws, rank_ws);
  result.partitioning = std::move(working);
  return result;
}

}  // namespace pigp::core
