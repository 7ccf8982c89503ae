#include "probes.hpp"

#include <algorithm>
#include <exception>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "api/async_session.hpp"
#include "api/session.hpp"
#include "api/view.hpp"
#include "core/assign.hpp"
#include "core/balance.hpp"
#include "core/layering.hpp"
#include "core/refine.hpp"
#include "core/spmd_igp.hpp"
#include "core/workspace.hpp"
#include "graph/partition_state.hpp"
#include "runtime/net/tcp_transport.hpp"
#include "support/rng.hpp"

namespace perfbench {

namespace graph = pigp::graph;
namespace core = pigp::core;
namespace net = pigp::net;

namespace {

/// Deltas replayed by the absorb probe.
constexpr int kAbsorbProbeDeltas = 256;
/// Rebalance probe: fixed points of the stream, deltas absorbed per point.
constexpr int kFixedPoints = 3;
constexpr int kDeltasPerPoint = 8;
/// Vertices moved away and back by the PartitionState probe, per point.
constexpr int kStateMoves = 4096;

/// Times one call as a span named \p name covering \p ops operations.
template <typename F>
decltype(auto) timed(Tracer& tracer, const char* name, std::int64_t ops, F&& fn) {
  ScopedSpan span(&tracer, name, ops);
  return fn();
}

// ------------------------------------------------------ absorb probe

/// Replays the stream through graph::Graph's mutators, PartitionState and
/// step-1 assignment on copies, in Session::apply's order, grouping each
/// kind of mutation so every group is one span.  Then retires the vertices
/// of the last deltas (one incident edge, then the vertex), so removal
/// costs are measured on every workload.
void absorb_probe(const WorkloadSpec& spec, const graph::Graph& base,
                  const graph::Partitioning& initial, const Stream& stream,
                  Tracer& tracer) {
  const pigp::ResolvedConfig resolved = spec.config.resolve();
  graph::Graph g = base;
  graph::Partitioning p = initial;
  graph::PartitionState state(g, p);
  core::Workspace ws;
  const int deltas =
      std::min<int>(kAbsorbProbeDeltas, static_cast<int>(stream.deltas.size()));
  std::vector<graph::VertexId> removed;
  std::vector<std::pair<graph::VertexId, graph::VertexId>> cut;
  std::vector<double> cut_weight;
  struct Edge {
    graph::VertexId u, v;
    double w;
  };
  std::vector<Edge> attach;
  std::vector<char> structural;
  for (int d = 0; d < deltas; ++d) {
    const graph::GraphDelta& delta = stream.deltas[static_cast<std::size_t>(d)];
    timed(tracer, "graph.validate_delta", 1,
          [&] { graph::validate_delta(g, delta); });

    removed.clear();
    for (const graph::VertexId v : delta.removed_vertices) {
      if (g.is_live(v)) removed.push_back(v);
    }
    for (const graph::VertexId v : removed) {
      state.move_vertex(g, p, v, graph::kUnassigned);
    }
    if (!removed.empty()) {
      timed(tracer, "graph.remove_vertex", static_cast<std::int64_t>(removed.size()), [&] {
        for (const graph::VertexId v : removed) g.remove_vertex(v);
      });
    }

    cut.clear();
    for (const auto& [u, v] : delta.removed_edges) {
      if (p.part[static_cast<std::size_t>(u)] == graph::kUnassigned ||
          p.part[static_cast<std::size_t>(v)] == graph::kUnassigned) {
        continue;
      }
      cut.push_back(graph::canonical_edge(u, v));
    }
    std::sort(cut.begin(), cut.end());
    cut.erase(std::unique(cut.begin(), cut.end()), cut.end());
    if (!cut.empty()) {
      cut_weight.resize(cut.size());
      timed(tracer, "graph.remove_edge", static_cast<std::int64_t>(cut.size()), [&] {
        for (std::size_t i = 0; i < cut.size(); ++i) {
          cut_weight[i] = g.remove_edge(cut[i].first, cut[i].second);
        }
      });
      for (std::size_t i = 0; i < cut.size(); ++i) {
        state.remove_edge(p, cut[i].first, cut[i].second, cut_weight[i]);
      }
    }

    const auto added = static_cast<graph::VertexId>(delta.added_vertices.size());
    const graph::VertexId first_new = g.num_vertices();
    if (added > 0) {
      timed(tracer, "graph.add_vertex", added, [&] {
        for (const graph::VertexAddition& add : delta.added_vertices) {
          (void)g.add_vertex(add.weight);
        }
      });
      p.part.resize(static_cast<std::size_t>(g.num_vertices()), graph::kUnassigned);
    }
    attach.clear();
    for (graph::VertexId i = 0; i < added; ++i) {
      for (const auto& [endpoint, weight] :
           delta.added_vertices[static_cast<std::size_t>(i)].edges) {
        attach.push_back({first_new + i, endpoint, weight});
      }
    }
    for (std::size_t i = 0; i < delta.added_edges.size(); ++i) {
      attach.push_back({delta.added_edges[i].first, delta.added_edges[i].second,
                        delta.added_edge_weights.empty() ? 1.0
                                                         : delta.added_edge_weights[i]});
    }
    if (!attach.empty()) {
      structural.resize(attach.size());
      timed(tracer, "graph.insert_edge", static_cast<std::int64_t>(attach.size()), [&] {
        for (std::size_t i = 0; i < attach.size(); ++i) {
          structural[i] = g.insert_edge(attach[i].u, attach[i].v, attach[i].w) ? 1 : 0;
        }
      });
    }
    state.grow_vertices(g.num_vertices());
    // Explicit added edges (the tail of `attach`) enter the state now;
    // attachment edges enter when step 1 places their new endpoint.
    const std::size_t explicit_begin = attach.size() - delta.added_edges.size();
    for (std::size_t i = explicit_begin; i < attach.size(); ++i) {
      const Edge& e = attach[i];
      if (structural[i] != 0) {
        state.add_edge(p, e.u, e.v, e.w);
      } else {
        state.adjust_edge_weight(p, e.u, e.v, e.w);
      }
    }
    p.part.resize(static_cast<std::size_t>(first_new));
    timed(tracer, "core.assign", 1, [&] {
      core::extend_assignment_state(g, p, first_new, state, ws, resolved.assign);
    });
  }

  // Retire the vertices the last deltas added: one incident edge each,
  // then the vertex.
  std::vector<graph::VertexId> retire;
  for (graph::VertexId v = g.num_vertices() - 1;
       v >= base.num_vertices() && retire.size() < 2048; --v) {
    if (g.is_live(v) && g.degree(v) > 0) retire.push_back(v);
  }
  cut.clear();
  for (const graph::VertexId v : retire) {
    const graph::VertexId u = g.neighbors(v).front();
    cut.push_back(graph::canonical_edge(u, v));
  }
  std::sort(cut.begin(), cut.end());
  cut.erase(std::unique(cut.begin(), cut.end()), cut.end());
  timed(tracer, "graph.remove_edge", static_cast<std::int64_t>(cut.size()), [&] {
    for (const auto& [u, v] : cut) (void)g.remove_edge(u, v);
  });
  timed(tracer, "graph.remove_vertex", static_cast<std::int64_t>(retire.size()), [&] {
    for (const graph::VertexId v : retire) g.remove_vertex(v);
  });
}

// ------------------------------------------------------ SPMD wire probe

struct WireCounters {
  std::int64_t messages = 0;
  std::int64_t bytes = 0;
  std::int64_t recv_wait_ns = 0;
};

/// Transport decorator counting messages and payload bytes sent, and the
/// time spent blocked in recv.  Collectives use the Transport defaults,
/// which are built on send/recv (as TcpTransport's are), so they are
/// counted too and decisions stay bit-identical.
class CountingTransport final : public net::Transport {
 public:
  CountingTransport(net::Transport& inner, WireCounters& counters)
      : inner_(inner), counters_(counters) {}

  [[nodiscard]] int rank() const noexcept override { return inner_.rank(); }
  [[nodiscard]] int num_ranks() const noexcept override {
    return inner_.num_ranks();
  }
  void send(int to, net::Packet packet) override {
    counters_.messages += 1;
    counters_.bytes += static_cast<std::int64_t>(packet.size_bytes());
    inner_.send(to, std::move(packet));
  }
  [[nodiscard]] net::Packet recv(int from) override {
    const std::int64_t t0 = now_ns();
    net::Packet packet = inner_.recv(from);
    counters_.recv_wait_ns += now_ns() - t0;
    return packet;
  }

 private:
  net::Transport& inner_;
  WireCounters& counters_;
};

/// Loopback-TCP executor whose ranks talk through CountingTransport.
class CountingTcpExecutor final : public core::SpmdExecutor {
 public:
  CountingTcpExecutor(int ranks, net::TcpOptions options)
      : inner_(ranks, std::move(options)),
        counters_(static_cast<std::size_t>(ranks)) {}

  [[nodiscard]] int num_ranks() const noexcept override {
    return inner_.num_ranks();
  }
  void run(const std::function<void(net::Transport&)>& body) override {
    inner_.run([&](net::Transport& transport) {
      CountingTransport counting(
          transport, counters_[static_cast<std::size_t>(transport.rank())]);
      body(counting);
    });
  }
  [[nodiscard]] WireCounters total() const {
    WireCounters sum;
    for (const WireCounters& c : counters_) {
      sum.messages += c.messages;
      sum.bytes += c.bytes;
      sum.recv_wait_ns += c.recv_wait_ns;
    }
    return sum;
  }

 private:
  core::TcpLoopbackExecutor inner_;
  std::vector<WireCounters> counters_;  ///< one per rank thread
};

// ------------------------------------------------------ rebalance probe

/// PartitionState::move_vertex: move boundary vertices to a neighboring
/// part and back.
void state_move_probe(const graph::Graph& g, graph::Partitioning p,
                      graph::PartitionState state, Tracer& tracer) {
  std::vector<std::pair<graph::VertexId, graph::PartId>> moves;
  for (std::size_t k = 0; moves.size() < kStateMoves; ++k) {
    bool any = false;
    for (graph::PartId q = 0; q < p.num_parts && moves.size() < kStateMoves; ++q) {
      const auto& boundary = state.boundary_vertices(q);
      if (k >= boundary.size()) continue;
      any = true;
      const graph::VertexId v = boundary[k];
      for (const graph::VertexId u : g.neighbors(v)) {
        const graph::PartId to = p.part[static_cast<std::size_t>(u)];
        if (to != q && to != graph::kUnassigned) {
          moves.emplace_back(v, to);
          break;
        }
      }
    }
    if (!any) break;
  }
  std::vector<graph::PartId> home(moves.size());
  for (std::size_t i = 0; i < moves.size(); ++i) {
    home[i] = p.part[static_cast<std::size_t>(moves[i].first)];
  }
  timed(tracer, "graph.state_move", static_cast<std::int64_t>(2 * moves.size()), [&] {
    for (const auto& [v, to] : moves) state.move_vertex(g, p, v, to);
    for (std::size_t i = moves.size(); i-- > 0;) {
      state.move_vertex(g, p, moves[i].first, home[i]);
    }
  });
}

/// At fixed points of the stream, a probe session absorbs a few deltas
/// without rebalancing; the snapshot is then layered, its balance LP
/// solved, balanced, refined and adopted back, its PartitionState probed,
/// and one SPMD tick run over counting loopback TCP.
void rebalance_probe(const WorkloadSpec& spec, const graph::Graph& base,
                     const graph::Partitioning& initial, const Stream& stream,
                     Tracer& tracer, ProbeResult& out) {
  pigp::SessionConfig config = spec.config;
  config.batch_policy = pigp::BatchPolicy::vertex_count;
  config.batch_vertex_limit = 1 << 30;  // absorb only
  const pigp::ResolvedConfig resolved = config.resolve();
  std::optional<pigp::Session> session;
  session.emplace(config, base, initial);
  pigp::Session& s = *session;

  double stages = 0, rounds = 0, moved = 0, balance_pivots = 0,
         refine_pivots = 0, rows = 0, cols = 0;
  WireCounters wire;
  std::size_t next = 0;
  for (int point = 0; point < kFixedPoints; ++point) {
    for (int i = 0; i < kDeltasPerPoint && next < stream.deltas.size(); ++i) {
      (void)s.apply(stream.deltas[next++]);
    }
    const graph::Graph& g = s.graph();
    const graph::Partitioning p0 = s.partitioning();
    const graph::PartitionState st0 = s.partition_state();
    const int threads = spec.config.num_threads;

    core::Workspace ws;
    timed(tracer, "core.layering", 1, [&] {
      ws.layering.bind(g, p0);
      ws.layering.reseed(st0, threads);
      ws.layering.grow(4, threads);
    });

    {  // The first balance LP the workload solves: the 4-level boundary
       // layering's eps and the full (alpha = 1) excess.
      const std::vector<double> targets =
          graph::balance_targets(g.total_vertex_weight(), p0.num_parts);
      std::vector<double> excess(targets.size());
      for (std::size_t q = 0; q < targets.size(); ++q) {
        excess[q] = st0.weights()[q] - targets[q];
      }
      const pigp::lp::LinearProgram program = core::build_balance_lp(
          ws.layering.eps(), core::staged_requirements(excess, 1.0), nullptr);
      rows += program.num_rows();
      cols += program.num_variables();
      (void)timed(tracer, "lp.solve", 1, [&] {
        return core::solve_lp(program, resolved.igp.balance.solver,
                              resolved.igp.balance.simplex);
      });
    }

    graph::Partitioning p1 = p0;
    graph::PartitionState st1 = st0;
    const core::BalanceResult balance = timed(tracer, "core.balance", 1, [&] {
      return core::balance_load(g, p1, st1, resolved.igp.balance, &ws);
    });
    const core::RefineStats refine = timed(tracer, "core.refine", 1, [&] {
      return core::refine_partitioning(g, p1, st1, resolved.igp.refinement, &ws);
    });
    stages += static_cast<double>(balance.stages.size());
    for (const core::BalanceStage& stage : balance.stages) {
      balance_pivots += static_cast<double>(stage.lp_iterations);
      moved += stage.vertices_moved;
    }
    rounds += refine.rounds;
    refine_pivots += static_cast<double>(refine.lp_iterations);
    moved += static_cast<double>(refine.vertices_moved);

    timed(tracer, "api.adopt", 1, [&] { s.adopt_rebalance(p1); });
    ++out.attempted;
    if (s.partitioning().part != p1.part) {
      ++out.failed;
      out.failures.push_back("adopt_rebalance did not install the rebalanced partition");
    }
    state_move_probe(g, p1, st1, tracer);

    {  // One SPMD tick (2 ranks, loopback TCP) on the absorbed snapshot.
      net::TcpOptions tcp;
      tcp.send_timeout_ms = spec.config.spmd_timeout_ms;
      tcp.recv_timeout_ms = spec.config.spmd_timeout_ms;
      CountingTcpExecutor executor(2, tcp);
      graph::Partitioning p2 = p0;
      graph::PartitionState st2 = st0;
      core::Workspace ws2;
      std::vector<core::Workspace> rank_ws;
      (void)timed(tracer, "net.tick", 1, [&] {
        return core::spmd_repartition_in_place(executor, g, p2, g.num_vertices(),
                                               resolved.igp, st2, ws2, rank_ws);
      });
      const WireCounters c = executor.total();
      wire.messages += c.messages;
      wire.bytes += c.bytes;
      wire.recv_wait_ns += c.recv_wait_ns;
    }
  }
  const double n = kFixedPoints;
  out.counts["core.balance_stages"] = stages / n;
  out.counts["core.refine_rounds"] = rounds / n;
  out.counts["core.vertices_moved"] = moved / n;
  out.counts["lp.balance_pivots"] = balance_pivots / n;
  out.counts["lp.refine_pivots"] = refine_pivots / n;
  out.counts["lp.rows"] = rows / n;
  out.counts["lp.cols"] = cols / n;
  out.counts["net.messages_per_tick"] = static_cast<double>(wire.messages) / n;
  out.counts["net.bytes_per_tick"] = static_cast<double>(wire.bytes) / n;
  out.counts["net.recv_wait_ms"] = static_cast<double>(wire.recv_wait_ns) * 1e-6 / n;

  // PartitionView construction and part_of at the workload's size.
  for (int i = 0; i < 16; ++i) {
    timed(tracer, "api.view_build", 1, [&] {
      const pigp::PartitionView view(1, s.partitioning(), s.summary());
      return view.num_vertices();
    });
  }
  const pigp::PartitionView view(1, s.partitioning(), s.summary());
  pigp::SplitMix64 rng(0x70617274ULL);
  constexpr int kLookups = 1 << 20;
  std::vector<graph::VertexId> ids(kLookups);
  for (graph::VertexId& v : ids) {
    v = static_cast<graph::VertexId>(
        rng.next_below(static_cast<std::uint64_t>(view.num_vertices())));
  }
  const std::int64_t sum = timed(tracer, "api.part_of", kLookups, [&] {
    std::int64_t acc = 0;
    for (const graph::VertexId v : ids) acc += view.part_of(v);
    return acc;
  });
  keep(static_cast<std::uint64_t>(sum));
}

/// AsyncSession statistics from a short closed-loop run, for workloads
/// that do not run one themselves.
pigp::AsyncStats async_probe(const WorkloadSpec& spec, const graph::Graph& base,
                             const graph::Partitioning& initial,
                             const Stream& stream) {
  pigp::AsyncSession session(spec.config, base, initial);
  const std::size_t n = std::min<std::size_t>(32, stream.deltas.size());
  for (std::size_t i = 0; i < n; ++i) session.submit(stream.deltas[i]);
  session.flush();
  const pigp::AsyncStats stats = session.stats();
  session.close();
  return stats;
}

}  // namespace

ProbeResult run_probes(const WorkloadSpec& spec, const graph::Graph& base,
                       const graph::Partitioning& initial, const Stream& stream,
                       const std::optional<pigp::AsyncStats>& async_stats,
                       Tracer& tracer) {
  ProbeResult out;
  const auto guarded = [&](const char* what, auto&& fn) {
    ++out.attempted;
    try {
      fn();
    } catch (const std::exception& e) {
      ++out.failed;
      out.failures.push_back(std::string(what) + ": " + e.what());
    }
  };
  guarded("absorb probe", [&] { absorb_probe(spec, base, initial, stream, tracer); });
  guarded("rebalance probe",
          [&] { rebalance_probe(spec, base, initial, stream, tracer, out); });
  guarded("tcp connect probe", [&] {
    for (int i = 0; i < 5; ++i) {
      timed(tracer, "net.connect", 1, [&] {
        net::run_tcp_loopback(2, net::TcpOptions{}, [](net::Transport&) {});
      });
    }
  });
  guarded("async probe", [&] {
    const pigp::AsyncStats stats =
        async_stats ? *async_stats : async_probe(spec, base, initial, stream);
    out.counts["api.commit_ratio"] =
        stats.rebalances_started > 0
            ? static_cast<double>(stats.rebalances_committed) /
                  static_cast<double>(stats.rebalances_started)
            : 0.0;
    out.counts["api.queue_high_watermark"] =
        static_cast<double>(stats.queue_high_watermark);
  });
  return out;
}

}  // namespace perfbench
