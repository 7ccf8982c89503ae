#pragma once

/// \file spmd_igp.hpp
/// Distributed-memory (SPMD) incremental partitioner.
///
/// The paper ran on a 32-node CM-5 where each node owned a partition,
/// layered it locally, and cooperated on the LP solve.  This driver
/// reproduces that structure against the pluggable net::Transport
/// interface: every rank owns the partitions graph::shard_owner assigns it
/// (round-robin), layers them independently, and runs each balance stage
/// through spmd_settle_stage — ε rows allgathered, rank 0 applies the flat
/// driver's settle_stage rule to the (tiny) LP and broadcasts "deepen" or
/// the movement matrix — then selects the transfers out of its owned
/// partitions.  The sharded worker (core/spmd_worker.hpp) runs the same
/// handshake, so the stage protocol is written once.  Results are
/// bit-identical to the
/// shared-memory driver — test_spmd_igp asserts it — so the communication
/// structure is exercised without changing semantics.  Like the flat
/// driver it has one implementation, spmd_repartition_in_place, running on
/// a caller-owned partitioning and PartitionState; spmd_repartition is the
/// batch adapter that seeds both from a copy of the old assignment.
///
/// An SpmdExecutor decides what carries the messages: MachineExecutor runs
/// the ranks as threads over the runtime::Machine mailboxes (the original
/// and fastest shape), TcpLoopbackExecutor runs them as threads speaking
/// real TCP over loopback sockets (the full wire path — framing, filters,
/// timeouts — without managing processes).  The fully distributed
/// one-process-per-rank shape lives in core/spmd_worker.hpp, which shards
/// the graph instead of replicating it.

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "core/igp.hpp"
#include "core/layering.hpp"
#include "graph/graph.hpp"
#include "graph/partition.hpp"
#include "runtime/net/fault_transport.hpp"
#include "runtime/net/tcp_transport.hpp"
#include "runtime/net/transport.hpp"
#include "runtime/spmd.hpp"

namespace pigp::core {

struct Workspace;

/// How the SPMD ranks run and talk: an executor owns the rank threads and
/// hands each one a net::Transport.  The engine is written against this
/// seam only, so swapping mailboxes for sockets changes no engine code.
class SpmdExecutor {
 public:
  virtual ~SpmdExecutor() = default;
  [[nodiscard]] virtual int num_ranks() const noexcept = 0;
  /// Execute \p body once per rank; returns when all ranks finish.  A
  /// rank's exception aborts the group and is rethrown (first by arrival).
  virtual void run(const std::function<void(net::Transport&)>& body) = 0;
};

/// Ranks as threads over the runtime::Machine mailboxes — the bit-parity
/// oracle and the default backend shape.
class MachineExecutor final : public SpmdExecutor {
 public:
  explicit MachineExecutor(int num_ranks) : machine_(num_ranks) {}

  [[nodiscard]] int num_ranks() const noexcept override {
    return machine_.num_ranks();
  }
  void run(const std::function<void(net::Transport&)>& body) override {
    machine_.run([&body](runtime::RankContext& ctx) {
      net::InProcessTransport transport(ctx);
      body(transport);
    });
  }

 private:
  runtime::Machine machine_;
};

/// Ranks as threads speaking real TCP over loopback sockets — the whole
/// wire path (framing, filter chain, socket timeouts) under one process.
class TcpLoopbackExecutor final : public SpmdExecutor {
 public:
  explicit TcpLoopbackExecutor(int num_ranks, net::TcpOptions options = {})
      : num_ranks_(num_ranks), options_(std::move(options)) {}

  [[nodiscard]] int num_ranks() const noexcept override {
    return num_ranks_;
  }
  void run(const std::function<void(net::Transport&)>& body) override {
    net::run_tcp_loopback(num_ranks_, options_, body);
  }

 private:
  int num_ranks_;
  net::TcpOptions options_;
};

/// Decorator: wraps every rank's transport of an inner executor in a
/// net::FaultInjectingTransport, all sharing one FaultScript (see
/// runtime/net/fault_transport.hpp).  The script's fire budget persists
/// across run() calls while the wrappers — and their per-attempt operation
/// counters — are fresh per call, so a one-shot scripted fault poisons
/// exactly one attempt and the retry that follows runs clean.  The inner
/// executor must outlive this decorator.
class FaultInjectingExecutor final : public SpmdExecutor {
 public:
  FaultInjectingExecutor(SpmdExecutor& inner,
                         std::shared_ptr<net::FaultScript> script)
      : inner_(inner), script_(std::move(script)) {}

  [[nodiscard]] int num_ranks() const noexcept override {
    return inner_.num_ranks();
  }
  void run(const std::function<void(net::Transport&)>& body) override {
    inner_.run([&body, this](net::Transport& transport) {
      net::FaultInjectingTransport chaos(transport, script_);
      body(chaos);
    });
  }

 private:
  SpmdExecutor& inner_;
  std::shared_ptr<net::FaultScript> script_;
};

/// What one SPMD balance stage settled on.
struct SpmdStage {
  /// False when nothing can move; the caller's stage loop ends.
  bool progress = false;
  /// The stage record (α, LP size and iterations, layer depth); filled on
  /// rank 0 only.
  BalanceStage stats;
};

/// The deepen-vs-decide handshake of one balance stage — the one stage
/// protocol both SPMD engines run (spmd_repartition_in_place below and
/// core/spmd_worker's spmd_worker_rebalance; each keeps its own seeding,
/// selection packets and move application).  \p layering must be freshly
/// reseeded with this rank's \p owned partitions (graph::shard_owner's
/// round-robin); the handshake grows it on the LayeringDepth schedule.  Per
/// round every rank allgathers (exhausted flag, owned ε rows); rank 0
/// assembles ε, applies settle_stage to the same \p excess every rank
/// holds, and broadcasts either "deepen" — every rank grows one step and
/// the round repeats — or (progress flag, P×P move matrix).  With progress,
/// \p moves holds the matrix row-major on every rank on return.
/// \p eps_rows is packing scratch.
[[nodiscard]] SpmdStage spmd_settle_stage(
    net::Transport& transport, BoundaryLayering& layering,
    const std::vector<graph::PartId>& owned, const std::vector<double>& excess,
    const BalanceOptions& options, std::vector<std::int64_t>& eps_rows,
    std::vector<std::int64_t>& moves);

/// Run the full IGP/IGPR pipeline in place on \p executor's ranks,
/// mirroring IncrementalPartitioner::repartition_in_place: \p partitioning
/// covers [0, n_old) on entry and \p state describes it with the appended
/// tail unassigned; on return both describe the result (result.partitioning
/// is left empty — the answer IS \p partitioning).  The graph is
/// replicated (the CM-5 implementation also kept the small meshes resident
/// per node); partition ownership is graph::shard_owner's round-robin.
///
/// Step 1 is one global pass through \p ws.  Then each rank seeds its
/// owned partitions' layering from the shared PartitionState's boundary
/// index and runs spmd_settle_stage, so every stage settles on the same
/// lazily-deepened ε capacities and the decisions stay bit-identical to
/// the shared-memory pipeline.  Selected transfers are gathered and
/// applied by rank 0 through the state (the writes were always trivial —
/// layering and selection are the parallel work).  One persistent
/// Workspace per rank (\p rank_ws, resized to the executor's rank count)
/// holds the per-rank resumable layering and the gather/pack staging
/// buffers, so a steady-state SPMD repartition reuses all per-vertex
/// storage instead of reallocating it every call.
[[nodiscard]] IgpResult spmd_repartition_in_place(
    SpmdExecutor& executor, const graph::Graph& g_new,
    graph::Partitioning& partitioning, graph::VertexId n_old,
    const IgpOptions& options, graph::PartitionState& state, Workspace& ws,
    std::vector<Workspace>& rank_ws);

/// Batch adapter: seed a state over a copy of \p old_partitioning
/// (seed_in_place) and run spmd_repartition_in_place with call-local
/// workspaces; result.partitioning is the answer.
[[nodiscard]] IgpResult spmd_repartition(
    SpmdExecutor& executor, const graph::Graph& g_new,
    const graph::Partitioning& old_partitioning, graph::VertexId n_old,
    const IgpOptions& options = {});

}  // namespace pigp::core
