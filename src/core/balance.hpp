#pragma once

/// \file balance.hpp
/// Step 3 of the incremental partitioner: LP-based load balancing
/// (Ou & Ranka §2.3, equations 10–13).
///
/// Given the layering counts ε_ij, solve
///     minimize   Σ l_ij                                   (10)
///     subject to 0 ≤ l_ij ≤ ε_ij                          (11)
///                Σ_k (l_qk − l_kq) = W'(q) − μ_q   ∀q     (12)
/// and move the selected vertices (boundary layers first).  When the
/// one-shot LP is infeasible — the localized refinement dumped more excess
/// into a partition than its boundary can shed — the balance condition is
/// relaxed to move only 1/α of the excess per stage (13) and the procedure
/// iterates; the paper reports 1–3 stages on its workloads.

#include <cstdint>
#include <optional>
#include <vector>

#include "core/layering.hpp"
#include "graph/graph.hpp"
#include "graph/partition.hpp"
#include "graph/partition_state.hpp"
#include "lp/dense_simplex.hpp"
#include "lp/program.hpp"
#include "support/dense_matrix.hpp"

namespace pigp::core {

struct Workspace;

/// Which simplex implementation to use.
enum class LpSolverKind {
  dense,    ///< the paper's dense two-phase simplex
  bounded,  ///< bounded-variable simplex (the paper's future-work variant)
};

[[nodiscard]] lp::Solution solve_lp(const lp::LinearProgram& program,
                                    LpSolverKind kind,
                                    const lp::SimplexOptions& options);

struct BalanceOptions {
  /// Upper bound C on the relaxation factor α (paper: C > α > 1).
  double alpha_max = 64.0;
  int max_stages = 12;
  /// |W(q) − target_q| ≤ tolerance counts as balanced.
  double tolerance = 0.5;
  LpSolverKind solver = LpSolverKind::bounded;
  lp::SimplexOptions simplex;
  int num_threads = 1;
  /// Initial depth cap for the boundary-seeded layering (state-driven
  /// path): each stage labels only this many BFS levels past the boundary
  /// and deepens lazily — doubling the total depth — while the staged LP
  /// is infeasible at the current depth; the best-effort fallback only
  /// runs once layering is exhausted, so terminal decisions match the
  /// batch pipeline.  0 = unlimited (always grow to exhaustion, exactly
  /// the batch layering's labels and capacities).
  int max_layers = 4;
};

/// Telemetry for one balance stage.
struct BalanceStage {
  double alpha = 1.0;
  int lp_variables = 0;
  int lp_rows = 0;
  std::int64_t lp_iterations = 0;
  double vertices_moved = 0.0;
  /// Layering depth the stage decision was made at; -1 when the layering
  /// was grown to exhaustion (batch-equivalent capacities).
  int layer_depth = -1;
};

struct BalanceResult {
  bool balanced = false;
  std::vector<BalanceStage> stages;
  double final_max_deviation = 0.0;
};

/// The movement LP for one stage.  \p rhs gives each partition's net
/// outflow requirement; variables exist for ordered pairs with eps > 0.
/// \p pair_vars receives the variable index per (i, j) pair (-1 when
/// absent).  Exposed for tests and benches.
[[nodiscard]] lp::LinearProgram build_balance_lp(
    const pigp::DenseMatrix<std::int64_t>& eps, const std::vector<double>& rhs,
    pigp::DenseMatrix<int>* pair_vars);

/// Round per-partition flow requirements excess/alpha to integers that sum
/// to zero (largest-remainder).  Exposed for tests.
[[nodiscard]] std::vector<double> staged_requirements(
    const std::vector<double>& excess, double alpha);

/// W(q) − target_q per partition into \p excess (sized like \p weight);
/// returns the max |excess|.  Every balance engine reads its per-stage
/// excess and final deviation through this one function.
[[nodiscard]] double compute_excess(const std::vector<double>& weight,
                                    const std::vector<double>& targets,
                                    std::vector<double>& excess);

/// One stage's settled movement decision.  `progress` is false when
/// nothing can move.
struct StageDecision {
  bool progress = false;
  BalanceStage stats;
  pigp::DenseMatrix<std::int64_t> moves;
};

/// The stage acceptance rule every balance engine runs (the flat driver
/// below and rank 0 of both SPMD engines): on capacities \p eps labeled to
/// \p depth levels, take the smallest feasible α of the paper's ladder —
/// before exhaustion only the α = 1 rung, since a relaxed α is accepted
/// only on exhausted (batch-equivalent) capacities.  Returns nullopt for
/// "deepen" (infeasible, not yet exhausted); infeasible at exhaustion runs
/// the best-effort LP (stats.alpha == 0: penalized slack, move what the
/// capacities admit).  stats.layer_depth is \p depth, or -1 at exhaustion.
[[nodiscard]] std::optional<StageDecision> settle_stage(
    const pigp::DenseMatrix<std::int64_t>& eps,
    const std::vector<double>& excess, bool exhausted, int depth,
    const BalanceOptions& options);

/// The lazy-deepening depth schedule of one stage, defined once for every
/// engine: construction grows a freshly reseeded \p layering \p max_layers
/// levels past the boundary (BalanceOptions.max_layers; 0 = unlimited:
/// straight to exhaustion), and each deepen() grows it by a step that
/// doubles, so the total depth doubles per retry.
class LayeringDepth {
 public:
  LayeringDepth(BoundaryLayering& layering, int max_layers, int num_threads)
      : layering_(layering),
        num_threads_(num_threads),
        depth_budget_(max_layers == 0 ? -1 : max_layers),
        grow_step_(max_layers) {
    layering_.grow(depth_budget_, num_threads_);
  }

  /// Total depth grown so far (-1 = unlimited).
  [[nodiscard]] int depth() const { return depth_budget_; }

  void deepen() {
    layering_.grow(grow_step_, num_threads_);
    depth_budget_ += grow_step_;
    grow_step_ *= 2;
  }

 private:
  BoundaryLayering& layering_;
  int num_threads_;
  int depth_budget_;
  int grow_step_;
};

/// Run balance stages in place on \p partitioning until balanced or the
/// stage limit is hit.  Layering is recomputed each stage.  This batch
/// entry builds a PartitionState (one O(V+E) rescan) and delegates to the
/// state-driven overload below — there is exactly one balance driver.
[[nodiscard]] BalanceResult balance_load(const graph::Graph& g,
                                         graph::Partitioning& partitioning,
                                         const BalanceOptions& options = {});

/// Boundary-local balance driver: per-stage excess comes from \p state's
/// maintained weights (O(P), not an O(V) rescan), layering seeds come from
/// its boundary index, growth is depth-capped per options.max_layers with
/// lazy deepening on infeasibility, and transfers are applied through the
/// state so it ends consistent with \p partitioning.  \p state must
/// describe (g, partitioning) on entry and partitioning must be fully
/// assigned.  A non-null \p ws supplies the target/excess buffers and the
/// persistent BoundaryLayering, making an already-balanced call (and the
/// per-stage layering setup) allocation-free; decisions are identical
/// either way.
[[nodiscard]] BalanceResult balance_load(const graph::Graph& g,
                                         graph::Partitioning& partitioning,
                                         graph::PartitionState& state,
                                         const BalanceOptions& options = {},
                                         Workspace* ws = nullptr);

}  // namespace pigp::core
