#include "core/balance.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <optional>

#include "core/transfer.hpp"
#include "core/workspace.hpp"
#include "lp/bounded_simplex.hpp"
#include "support/check.hpp"

namespace pigp::core {

lp::Solution solve_lp(const lp::LinearProgram& program, LpSolverKind kind,
                      const lp::SimplexOptions& options) {
  if (kind == LpSolverKind::bounded) {
    return lp::BoundedSimplex(options).solve(program);
  }
  return lp::DenseSimplex(options).solve(program);
}

std::vector<double> staged_requirements(const std::vector<double>& excess,
                                        double alpha) {
  PIGP_CHECK(alpha >= 1.0, "alpha must be at least 1");
  const std::size_t parts = excess.size();
  std::vector<double> rhs(parts, 0.0);
  std::vector<double> remainder(parts, 0.0);
  double base_sum = 0.0;
  for (std::size_t q = 0; q < parts; ++q) {
    const double raw = excess[q] / alpha;
    rhs[q] = std::floor(raw);
    remainder[q] = raw - rhs[q];
    base_sum += rhs[q];
  }
  // Σ raw = 0 (targets sum to the total weight), so the remainders sum to
  // -base_sum, a non-negative integer; bump that many largest remainders.
  auto bumps = static_cast<std::int64_t>(std::llround(-base_sum));
  std::vector<std::size_t> order(parts);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&remainder](std::size_t a,
                                                     std::size_t b) {
    if (remainder[a] != remainder[b]) return remainder[a] > remainder[b];
    return a < b;
  });
  for (std::size_t i = 0; bumps > 0 && i < parts; ++i, --bumps) {
    rhs[order[i]] += 1.0;
  }
  return rhs;
}

lp::LinearProgram build_balance_lp(
    const pigp::DenseMatrix<std::int64_t>& eps, const std::vector<double>& rhs,
    pigp::DenseMatrix<int>* pair_vars) {
  const std::size_t parts = eps.rows();
  PIGP_CHECK(eps.cols() == parts, "eps must be square");
  PIGP_CHECK(rhs.size() == parts, "rhs size mismatch");

  lp::LinearProgram program(lp::Sense::minimize);
  pigp::DenseMatrix<int> vars(parts, parts, -1);
  for (std::size_t i = 0; i < parts; ++i) {
    for (std::size_t j = 0; j < parts; ++j) {
      if (i == j || eps(i, j) <= 0) continue;
      vars(i, j) = program.add_variable(
          1.0, 0.0, static_cast<double>(eps(i, j)),
          "l" + std::to_string(i) + "_" + std::to_string(j));
    }
  }
  for (std::size_t q = 0; q < parts; ++q) {
    std::vector<std::pair<int, double>> coeffs;
    for (std::size_t k = 0; k < parts; ++k) {
      if (vars(q, k) >= 0) coeffs.emplace_back(vars(q, k), 1.0);
      if (vars(k, q) >= 0) coeffs.emplace_back(vars(k, q), -1.0);
    }
    program.add_row(lp::RowType::equal, std::move(coeffs), rhs[q],
                    "balance" + std::to_string(q));
  }
  if (pair_vars != nullptr) *pair_vars = std::move(vars);
  return program;
}

namespace {

/// Read the LP solution back into a move matrix.
void harvest_moves(const lp::Solution& solution,
                   const pigp::DenseMatrix<int>& pair_vars,
                   StageDecision& decision) {
  const std::size_t parts = decision.moves.rows();
  for (std::size_t i = 0; i < parts; ++i) {
    for (std::size_t j = 0; j < parts; ++j) {
      if (pair_vars(i, j) < 0) continue;
      const double value =
          solution.x[static_cast<std::size_t>(pair_vars(i, j))];
      decision.moves(i, j) = std::llround(value);
      decision.stats.vertices_moved += static_cast<double>(
          decision.moves(i, j));
    }
  }
}

/// The α ladder (the paper's staging): smallest feasible α by doubling up
/// to options.alpha_max, no fallback (nullopt when none works).
std::optional<StageDecision> decide_stage_moves_alpha(
    const pigp::DenseMatrix<std::int64_t>& eps,
    const std::vector<double>& excess, const BalanceOptions& options) {
  const std::size_t parts = eps.rows();
  pigp::DenseMatrix<int> pair_vars;
  for (double alpha = 1.0; alpha <= options.alpha_max; alpha *= 2.0) {
    const std::vector<double> rhs = staged_requirements(excess, alpha);
    if (std::all_of(rhs.begin(), rhs.end(),
                    [](double r) { return r == 0.0; })) {
      break;  // excess too small relative to alpha; nothing to request
    }
    const lp::LinearProgram program = build_balance_lp(eps, rhs, &pair_vars);
    const lp::Solution solution =
        solve_lp(program, options.solver, options.simplex);
    if (solution.status == lp::SolveStatus::optimal) {
      StageDecision decision;
      decision.moves = pigp::DenseMatrix<std::int64_t>(parts, parts, 0);
      decision.stats.alpha = alpha;
      decision.stats.lp_variables = program.num_variables();
      decision.stats.lp_rows = program.num_rows();
      decision.stats.lp_iterations = solution.iterations;
      harvest_moves(solution, pair_vars, decision);
      decision.progress = decision.stats.vertices_moved > 0.5;
      return decision;
    }
  }
  return std::nullopt;
}

/// The best-effort fallback for capacities no α fits: relax the balance
/// rows with penalized slack and move whatever the ε capacities admit this
/// stage; the next stage re-layers and continues.
StageDecision best_effort_stage_moves(
    const pigp::DenseMatrix<std::int64_t>& eps,
    const std::vector<double>& excess, const BalanceOptions& options) {
  const std::size_t parts = eps.rows();
  StageDecision decision;
  decision.moves = pigp::DenseMatrix<std::int64_t>(parts, parts, 0);

  const std::vector<double> rhs = staged_requirements(excess, 1.0);
  lp::LinearProgram program(lp::Sense::minimize);
  pigp::DenseMatrix<int> vars(parts, parts, -1);
  for (std::size_t i = 0; i < parts; ++i) {
    for (std::size_t j = 0; j < parts; ++j) {
      if (i == j || eps(i, j) <= 0) continue;
      // Light penalty keeps total movement minimal among max-progress
      // solutions while leaving slack reduction dominant.
      vars(i, j) = program.add_variable(
          1e-3, 0.0, static_cast<double>(eps(i, j)));
    }
  }
  for (std::size_t q = 0; q < parts; ++q) {
    std::vector<std::pair<int, double>> coeffs;
    for (std::size_t k = 0; k < parts; ++k) {
      if (vars(q, k) >= 0) coeffs.emplace_back(vars(q, k), 1.0);
      if (vars(k, q) >= 0) coeffs.emplace_back(vars(k, q), -1.0);
    }
    const int slack_pos = program.add_variable(1.0);
    const int slack_neg = program.add_variable(1.0);
    coeffs.emplace_back(slack_pos, 1.0);
    coeffs.emplace_back(slack_neg, -1.0);
    program.add_row(lp::RowType::equal, std::move(coeffs), rhs[q]);
  }
  const lp::Solution solution =
      solve_lp(program, options.solver, options.simplex);
  PIGP_CHECK(solution.status == lp::SolveStatus::optimal,
             "relaxed balance LP is always feasible");
  decision.stats.alpha = 0.0;  // flags the best-effort path
  decision.stats.lp_variables = program.num_variables();
  decision.stats.lp_rows = program.num_rows();
  decision.stats.lp_iterations = solution.iterations;
  harvest_moves(solution, vars, decision);
  decision.progress = decision.stats.vertices_moved > 0.5;
  return decision;
}

}  // namespace

double compute_excess(const std::vector<double>& weight,
                      const std::vector<double>& targets,
                      std::vector<double>& excess) {
  double max_dev = 0.0;
  for (std::size_t q = 0; q < weight.size(); ++q) {
    excess[q] = weight[q] - targets[q];
    max_dev = std::max(max_dev, std::abs(excess[q]));
  }
  return max_dev;
}

std::optional<StageDecision> settle_stage(
    const pigp::DenseMatrix<std::int64_t>& eps,
    const std::vector<double>& excess, bool exhausted, int depth,
    const BalanceOptions& options) {
  BalanceOptions ladder = options;
  if (!exhausted) ladder.alpha_max = 1.0;
  std::optional<StageDecision> decision =
      decide_stage_moves_alpha(eps, excess, ladder);
  if (!decision) {
    if (!exhausted) return std::nullopt;  // deepen
    decision = best_effort_stage_moves(eps, excess, options);
  }
  decision->stats.layer_depth = exhausted ? -1 : depth;
  return decision;
}

BalanceResult balance_load(const graph::Graph& g,
                           graph::Partitioning& partitioning,
                           const BalanceOptions& options) {
  // One O(V+E) rescan to seed the maintained state (it also validates),
  // then the single state-driven driver below.
  graph::PartitionState state(g, partitioning);
  return balance_load(g, partitioning, state, options);
}

BalanceResult balance_load(const graph::Graph& g,
                           graph::Partitioning& partitioning,
                           graph::PartitionState& state,
                           const BalanceOptions& options, Workspace* ws) {
  BalanceResult result;
  const auto parts = static_cast<std::size_t>(partitioning.num_parts);
  std::vector<double> local_targets;
  std::vector<double> local_excess;
  std::vector<double>& targets = ws ? ws->balance_targets : local_targets;
  std::vector<double>& excess = ws ? ws->balance_excess : local_excess;
  graph::balance_targets_into(g.total_vertex_weight(), partitioning.num_parts,
                              targets);
  excess.assign(parts, 0.0);
  // Bound on first use: an already-balanced call (the common case on a
  // well-behaved stream) never pays any per-vertex array setup.  With a
  // workspace the layering is the session-persistent one — its bind() is
  // O(1) at steady state; without one, a call-local instance.
  std::optional<BoundaryLayering> layering_storage;

  for (int stage = 0; stage < options.max_stages; ++stage) {
    // Current excess per partition from the maintained weights — O(P).
    result.final_max_deviation =
        compute_excess(state.weights(), targets, excess);
    if (result.final_max_deviation <= options.tolerance) {
      result.balanced = true;
      return result;
    }
    if (ws == nullptr && !layering_storage) {
      layering_storage.emplace(g, partitioning);
    }
    BoundaryLayering& layering = ws ? ws->layering : *layering_storage;
    if (ws != nullptr && stage == 0) ws->layering.bind(g, partitioning);

    // Boundary-seeded layering, depth-capped with lazy deepening: a mildly
    // imbalanced stream labels a thin shell and stops as soon as the
    // one-shot (α = 1) LP fits in it.  settle_stage accepts a relaxed α or
    // the best-effort fallback only at exhaustion — where the capacities
    // equal the batch layering's — so every stage decides exactly what the
    // batch pipeline would have.
    layering.reseed(state, options.num_threads);
    LayeringDepth depth(layering, options.max_layers, options.num_threads);
    std::optional<StageDecision> decision;
    while (!(decision = settle_stage(layering.eps(), excess,
                                     layering.exhausted(), depth.depth(),
                                     options))) {
      depth.deepen();
    }

    if (!decision->progress) {
      // Nothing can move at all (e.g. a partition with no boundary);
      // report imbalance to the caller, who may fall back to
      // repartitioning from scratch (§2.3).
      return result;
    }
    result.stages.push_back(decision->stats);
    apply_balance_transfers(g, partitioning, layering, decision->moves,
                            state);
  }

  // Stage budget exhausted; report the residual deviation — O(P).
  result.final_max_deviation =
      compute_excess(state.weights(), targets, excess);
  result.balanced = result.final_max_deviation <= options.tolerance;
  return result;
}

}  // namespace pigp::core
