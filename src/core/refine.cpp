#include "core/refine.hpp"

#include <algorithm>
#include <cmath>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "core/transfer.hpp"
#include "core/workspace.hpp"
#include "graph/partition_state.hpp"
#include "support/check.hpp"

namespace pigp::core {
namespace {

/// Candidate analysis for one round, restricted to the vertices of
/// \p boundary (every candidate is a boundary vertex by definition, so
/// scanning the maintained index instead of [0, V) yields the identical
/// candidate set).  \p boundary must be sorted ascending — bucket order
/// within each (i, j) list feeds a floating-point gain sum in the LP
/// objective, so it must match the historical full-scan order.  Results
/// land in \p candidates (cells cleared, capacity reused) with per-thread
/// tallies from \p scratch, so a warm call allocates nothing.
void collect_candidates(
    const graph::Graph& g, const graph::Partitioning& p,
    const std::vector<graph::VertexId>& boundary, bool strict,
    int num_threads,
    std::vector<Workspace::RefineThreadScratch>& scratch,
    pigp::DenseMatrix<std::vector<GainCandidate>>& candidates) {
  const auto parts = static_cast<std::size_t>(p.num_parts);
  if (candidates.rows() != parts || candidates.cols() != parts) {
    candidates = pigp::DenseMatrix<std::vector<GainCandidate>>(parts, parts);
  } else {
    for (std::size_t i = 0; i < parts; ++i) {
      for (std::size_t j = 0; j < parts; ++j) candidates(i, j).clear();
    }
  }
  scratch.resize(static_cast<std::size_t>(std::max(1, num_threads)));
  for (auto& s : scratch) s.found.clear();
  const bool parallel = num_threads > 1 && boundary.size() > 4096;

#pragma omp parallel num_threads(num_threads) if (parallel)
  {
#ifdef _OPENMP
    const int tid = parallel ? omp_get_thread_num() : 0;
#else
    const int tid = 0;
#endif
    auto& mine = scratch[static_cast<std::size_t>(tid)].found;
    auto& out = scratch[static_cast<std::size_t>(tid)].out;
    out.reset(parts);
#pragma omp for schedule(static)
    for (std::size_t b = 0; b < boundary.size(); ++b) {
      const graph::VertexId v = boundary[b];
      const graph::PartId from = p.part[static_cast<std::size_t>(v)];
      const auto nbrs = g.neighbors(v);
      const auto weights = g.incident_edge_weights(v);
      // out(v, j) per touched partition and in(v).
      double in = 0.0;
      for (std::size_t i = 0; i < nbrs.size(); ++i) {
        const graph::PartId q = p.part[static_cast<std::size_t>(nbrs[i])];
        if (q == from) {
          in += weights[i];
        } else {
          out.add(q, weights[i]);
        }
      }
      // Best destination by gain, ties to the smaller partition id (the
      // touched labels come in neighbour order, so ties compare ids).
      graph::PartId best = -1;
      double best_gain = 0.0;
      for (const graph::PartId q : out.touched()) {
        if (out.weight(q) <= 0.0) continue;
        const double gain = out.weight(q) - in;
        if (best < 0 || gain > best_gain || (gain == best_gain && q < best)) {
          best = q;
          best_gain = gain;
        }
      }
      out.clear();
      if (best < 0) continue;
      if (strict ? best_gain > 0.0 : best_gain >= 0.0) {
        mine.emplace_back(
            static_cast<std::size_t>(from) * parts +
                static_cast<std::size_t>(best),
            GainCandidate{v, best_gain});
      }
    }
  }
  // Static scheduling hands thread t a contiguous ascending chunk, so
  // concatenating in tid order keeps each bucket ascending by vertex id —
  // the same order the historical 0..V scan produced.
  for (const auto& chunk : scratch) {
    for (const auto& [slot, cand] : chunk.found) {
      candidates(slot / parts, slot % parts).push_back(cand);
    }
  }
}

/// Sorted union of all partitions' boundary buckets, into \p boundary
/// (capacity reused).
void sorted_boundary(const graph::PartitionState& state,
                     std::vector<graph::VertexId>& boundary) {
  boundary.clear();
  for (graph::PartId q = 0; q < state.num_parts(); ++q) {
    const auto& bucket = state.boundary_vertices(q);
    boundary.insert(boundary.end(), bucket.begin(), bucket.end());
  }
  std::sort(boundary.begin(), boundary.end());
}

/// The refinement LP (eqs. 14–16) with a gain-aware objective.  The paper
/// maximizes raw movement Σ l_ij; taken literally that lets zero-gain
/// vertices (out == in, admitted by the non-strict inequality) dominate the
/// solution and churn the boundary without improving the cut.  The paper's
/// own justification for including them is that "these vertices can be
/// moved to satisfy load balance constraints" — i.e. they exist to *route
/// flow*, not to be goals in themselves.  We encode exactly that: each pair
/// gets a positive-gain variable (capacity = number of gain>0 candidates,
/// objective = their mean gain) and a zero-gain variable (capacity =
/// remaining candidates, objective = tiny ε), so the simplex moves
/// improving vertices and uses zero-gain ones only to close circulation.
/// \p cap_scale < 1 shrinks batches after a regression (batch moves can
/// interact; smaller batches interact less).
lp::LinearProgram build_refinement_lp(
    const pigp::DenseMatrix<std::vector<GainCandidate>>& candidates,
    double cap_scale, pigp::DenseMatrix<int>* pos_vars,
    pigp::DenseMatrix<int>* zero_vars) {
  const std::size_t parts = candidates.rows();
  lp::LinearProgram program(lp::Sense::maximize);
  pigp::DenseMatrix<int> vp(parts, parts, -1);
  pigp::DenseMatrix<int> vz(parts, parts, -1);
  for (std::size_t i = 0; i < parts; ++i) {
    for (std::size_t j = 0; j < parts; ++j) {
      const auto& bucket = candidates(i, j);
      if (i == j || bucket.empty()) continue;
      double positive = 0.0;
      double gain_sum = 0.0;
      for (const GainCandidate& c : bucket) {
        if (c.gain > 0.0) {
          positive += 1.0;
          gain_sum += c.gain;
        }
      }
      const double zero = static_cast<double>(bucket.size()) - positive;
      const std::string tag =
          std::to_string(i) + "_" + std::to_string(j);
      if (positive > 0.0) {
        const double cap = std::max(1.0, std::floor(positive * cap_scale));
        vp(i, j) = program.add_variable(gain_sum / positive, 0.0, cap,
                                        "p" + tag);
      }
      if (zero > 0.0) {
        const double cap = std::max(1.0, std::floor(zero * cap_scale));
        vz(i, j) = program.add_variable(1e-3, 0.0, cap, "z" + tag);
      }
    }
  }
  for (std::size_t q = 0; q < parts; ++q) {
    std::vector<std::pair<int, double>> coeffs;
    for (std::size_t k = 0; k < parts; ++k) {
      if (vp(q, k) >= 0) coeffs.emplace_back(vp(q, k), 1.0);
      if (vz(q, k) >= 0) coeffs.emplace_back(vz(q, k), 1.0);
      if (vp(k, q) >= 0) coeffs.emplace_back(vp(k, q), -1.0);
      if (vz(k, q) >= 0) coeffs.emplace_back(vz(k, q), -1.0);
    }
    if (!coeffs.empty()) {
      program.add_row(lp::RowType::equal, std::move(coeffs), 0.0,
                      "flow" + std::to_string(q));
    }
  }
  if (pos_vars != nullptr) *pos_vars = std::move(vp);
  if (zero_vars != nullptr) *zero_vars = std::move(vz);
  return program;
}

}  // namespace

RefineStats refine_partitioning(const graph::Graph& g,
                                graph::Partitioning& partitioning,
                                const RefineOptions& options) {
  // One full rescan to seed the incremental state (it also validates);
  // every round after this maintains the cut in O(deg) per moved vertex.
  graph::PartitionState state(g, partitioning);
  return refine_partitioning(g, partitioning, state, options);
}

RefineStats refine_partitioning(const graph::Graph& g,
                                graph::Partitioning& partitioning,
                                graph::PartitionState& state,
                                const RefineOptions& options, Workspace* ws) {
  RefineStats stats;
  const auto parts = static_cast<std::size_t>(partitioning.num_parts);
  double cut = state.cut_total();
  stats.cut_before = cut;
  stats.cut_after = cut;

  bool force_strict = false;
  double cap_scale = 1.0;
  // Working storage: pooled in the session workspace when given, call-local
  // otherwise — identical decisions either way.
  std::vector<std::pair<graph::VertexId, graph::PartId>> local_journal;
  std::vector<graph::VertexId> local_boundary;
  pigp::DenseMatrix<std::vector<GainCandidate>> local_candidates;
  std::vector<Workspace::RefineThreadScratch> local_scratch;
  auto& journal = ws ? ws->refine_journal : local_journal;
  auto& boundary = ws ? ws->refine_boundary : local_boundary;
  auto& candidates = ws ? ws->refine_candidates : local_candidates;
  auto& scratch = ws ? ws->refine_scratch : local_scratch;

  // The sorted boundary only changes when a round's moves are kept; a
  // reverted round restores the index exactly, so the retry reuses it.
  sorted_boundary(state, boundary);
  for (int round = 0; round < options.max_rounds; ++round) {
    const bool strict = force_strict || round >= options.strict_after_round;
    collect_candidates(g, partitioning, boundary, strict, options.num_threads,
                       scratch, candidates);
    // No candidates at all: the LP would have zero variables — skip its
    // construction entirely (same terminal decision, no model churn).
    bool any_candidate = false;
    for (std::size_t i = 0; i < parts && !any_candidate; ++i) {
      for (std::size_t j = 0; j < parts && !any_candidate; ++j) {
        any_candidate = !candidates(i, j).empty();
      }
    }
    if (!any_candidate) break;

    pigp::DenseMatrix<int> pos_vars;
    pigp::DenseMatrix<int> zero_vars;
    const lp::LinearProgram program =
        build_refinement_lp(candidates, cap_scale, &pos_vars, &zero_vars);
    if (program.num_variables() == 0) break;

    const lp::Solution solution =
        solve_lp(program, options.solver, options.simplex);
    PIGP_CHECK(solution.status == lp::SolveStatus::optimal,
               "refinement LP must be solvable (l = 0 is feasible)");
    stats.lp_iterations += solution.iterations;
    // Objective is gain-weighted; below this threshold only zero-gain
    // circulation remains.
    if (solution.objective < 0.5) break;

    pigp::DenseMatrix<std::int64_t> moves(parts, parts, 0);
    std::int64_t moved = 0;
    for (std::size_t i = 0; i < parts; ++i) {
      for (std::size_t j = 0; j < parts; ++j) {
        std::int64_t count = 0;
        if (pos_vars(i, j) >= 0) {
          count += std::llround(
              solution.x[static_cast<std::size_t>(pos_vars(i, j))]);
        }
        if (zero_vars(i, j) >= 0) {
          count += std::llround(
              solution.x[static_cast<std::size_t>(zero_vars(i, j))]);
        }
        moves(i, j) = count;
        moved += count;
      }
    }

    // Undo unit: the aggregate snapshot is O(P); the partitioning and the
    // (integer) boundary index are restored exactly by replaying the move
    // journal in reverse — no O(V) copies per round.
    const graph::PartitionState::AggregateSnapshot saved =
        state.save_aggregates();
    journal.clear();
    apply_gain_transfers(g, partitioning, candidates, moves, state, &journal);
    ++stats.rounds;

    const double new_cut = state.cut_total();
    if (new_cut > cut && options.revert_on_regression) {
      // Batch interactions hurt (usually zero-gain vertices oscillating or
      // dense candidate clusters moving together); roll back and retry in
      // strict mode first, then with progressively smaller batches.
      for (auto it = journal.rbegin(); it != journal.rend(); ++it) {
        state.move_vertex(g, partitioning, it->first, it->second);
      }
      state.restore_aggregates(saved);  // erase any floating-point drift
      if (!strict) {
        force_strict = true;
        continue;
      }
      if (cap_scale > 0.2) {
        cap_scale *= 0.5;
        continue;
      }
      break;
    }
    stats.vertices_moved += moved;
    const double gain = cut - new_cut;
    cut = new_cut;
    stats.cut_after = cut;
    if (gain < options.min_gain) break;
    sorted_boundary(state, boundary);  // moves kept: boundary changed
  }
  return stats;
}

}  // namespace pigp::core
