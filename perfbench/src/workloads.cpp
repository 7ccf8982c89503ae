#include "workloads.hpp"

#include <algorithm>
#include <exception>
#include <memory>
#include <stop_token>
#include <thread>
#include <utility>

#include <malloc.h>

#include "api/session.hpp"
#include "api/view.hpp"
#include "spectral/partitioners.hpp"
#include "support/rng.hpp"

namespace perfbench {

namespace graph = pigp::graph;

namespace {

constexpr graph::PartId kParts = 32;

pigp::SessionConfig base_config() {
  pigp::SessionConfig config;
  config.num_parts = kParts;
  config.backend = "igpr";
  config.scratch_method = "rgb";
  return config;
}

/// Deltas per nominal second of each workload: a run does
/// constant * --seconds deltas.  The work never depends on elapsed time:
/// per-delta cost rises along the stream, so a time-boxed run would compare
/// different work.
constexpr double kGrowDeltasPerSecond = 11.0;
constexpr double kChurnDeltasPerSecond = 120.0;
constexpr double kSpmdDeltasPerSecond = 11.0;
constexpr double kServeRate = 16.0;

/// Round \p x down to a multiple of \p m (at least m).
int multiple_of(double x, int m) {
  return std::max(m, static_cast<int>(x) / m * m);
}

/// The maintained O(P) summary must equal a from-scratch compute_metrics.
bool summary_matches(const graph::PartitionSummary& s,
                     const graph::PartitionMetrics& m) {
  return s.cut_total == m.cut_total && s.cut_max == m.cut_max &&
         s.cut_min == m.cut_min && s.max_weight == m.max_weight &&
         s.min_weight == m.min_weight && s.avg_weight == m.avg_weight &&
         s.imbalance == m.imbalance;
}

/// Validate + summary parity (+ structural equality with the stream's
/// oracle graph when given); records one check each.
void check_final(RunResult& r, const graph::Graph& g,
                 const graph::Partitioning& p,
                 const graph::PartitionSummary& summary,
                 const graph::Graph* oracle) {
  ++r.attempted;
  try {
    p.validate(g);
  } catch (const std::exception& e) {
    r.fail(std::string("final partitioning invalid: ") + e.what());
  }
  const graph::PartitionMetrics full = graph::compute_metrics(g, p);
  r.check(summary_matches(summary, full),
          "maintained summary differs from compute_metrics");
  if (oracle != nullptr) {
    r.check(g == *oracle, "final graph differs from the replayed stream");
  }
  r.final_cut = full.cut_total;
  r.final_imbalance = full.imbalance;
  r.partition_hash = hash_partition(p.part);
  r.graph_hash = hash_graph(g);
}

/// Random 32-bit lookup keys, scaled to the live id range per use.
std::vector<std::uint32_t> lookup_keys(std::uint64_t seed, int count) {
  pigp::SplitMix64 rng(seed ^ 0x6c6f6f6b7570ULL);
  std::vector<std::uint32_t> keys(static_cast<std::size_t>(count));
  for (std::uint32_t& k : keys) k = static_cast<std::uint32_t>(rng.next());
  return keys;
}

inline std::size_t scale_key(std::uint32_t key, std::size_t n) {
  return static_cast<std::size_t>((static_cast<std::uint64_t>(key) * n) >> 32);
}

/// Timed set-up: the from-scratch RGB partition plus session construction.
/// Graph copies are made outside the timed region.
template <typename SessionT>
void set_up(std::optional<SessionT>& session, const WorkloadSpec& spec,
            const graph::Graph& base, int setups, HostSpeed& host,
            Tracer* tracer, RunResult& r) {
  for (int k = 0; k < setups; ++k) {
    session.reset();
    // Hand the torn-down session's memory back to the system, so the
    // process's peak RSS reflects the live session, not allocator history.
    malloc_trim(0);
    host.sample();
    graph::Graph copy = base;
    ScopedSpan setup(tracer, "setup");
    const std::int64_t t0 = now_ns();
    {
      ScopedSpan span(tracer, "spectral.rgb");
      r.initial = pigp::spectral::recursive_graph_bisection(
          copy, spec.config.num_parts);
    }
    const std::int64_t t1 = now_ns();
    graph::Partitioning initial = r.initial;  // untimed copy
    const std::int64_t t2 = now_ns();
    {
      ScopedSpan span(tracer, "api.session_ctor");
      session.emplace(spec.config, std::move(copy), std::move(initial));
    }
    r.setup_s.push_back(static_cast<double>((t1 - t0) + (now_ns() - t2)) * 1e-9);
  }
}

// ---------------------------------------------------------------- sync

RunResult run_sync(const WorkloadSpec& spec, const graph::Graph& base,
                   const Stream& stream, std::uint64_t seed, int setups,
                   HostSpeed& host, Tracer* tracer) {
  RunResult r;
  std::optional<pigp::Session> session;
  set_up(session, spec, base, setups, host, tracer, r);
  pigp::Session& s = *session;

  const auto apply = [&](const graph::GraphDelta& delta,
                         pigp::SessionReport& report) {
    ++r.attempted;
    try {
      ScopedSpan span(tracer, "api.apply");
      report = s.apply(delta);
    } catch (const std::exception& e) {
      r.fail(std::string("apply rejected: ") + e.what());
      return false;
    }
    if (report.compacted) {
      r.fail("unexpected compaction: the stream's vertex ids no longer apply");
    }
    return true;
  };

  pigp::SessionReport report;
  for (int i = 0; i < spec.warmup_deltas; ++i) {
    (void)apply(stream.deltas[static_cast<std::size_t>(i)], report);
  }

  const std::vector<std::uint32_t> keys =
      lookup_keys(seed, spec.lookups_per_delta);
  std::uint64_t sink = 0;
  double busy_s = 0.0;
  constexpr std::int64_t kHostSampleNs = 2'000'000'000;
  host.sample();
  std::int64_t next_host_sample = now_ns() + kHostSampleNs;
  for (int i = 0; i < spec.measured_deltas; ++i) {
    const auto& delta =
        stream.deltas[static_cast<std::size_t>(spec.warmup_deltas + i)];
    const double update_before = s.counters().update_seconds;
    const std::int64_t t0 = now_ns();
    const bool ok = apply(delta, report);
    const std::int64_t t1 = now_ns();
    if (!ok) continue;
    const double call_ms = static_cast<double>(t1 - t0) * 1e-6;
    busy_s += call_ms * 1e-3;
    r.visible_ms.push_back(call_ms);
    r.absorb_us.push_back((s.counters().update_seconds - update_before) * 1e6);
    if (report.repartitioned) {
      r.rebalance_ms.push_back(call_ms);
      double moved = static_cast<double>(report.refine.vertices_moved);
      for (const auto& stage : report.balance.stages) {
        moved += stage.vertices_moved;
      }
      r.migrated.push_back(moved);
    }
    // The caller reads partitions between applies (closed loop, same
    // thread): random ids of the current id space.
    const std::vector<graph::PartId>& part = s.partitioning().part;
    const std::int64_t l0 = now_ns();
    {
      ScopedSpan span(tracer, "api.lookups", spec.lookups_per_delta);
      for (const std::uint32_t key : keys) {
        sink += static_cast<std::uint64_t>(part[scale_key(key, part.size())]);
      }
    }
    r.lookup_rates.push_back(static_cast<double>(spec.lookups_per_delta) /
                             (static_cast<double>(now_ns() - l0) * 1e-9));
    if (now_ns() >= next_host_sample) {
      host.sample();
      next_host_sample = now_ns() + kHostSampleNs;
    }
  }
  host.sample();
  r.measured_s = busy_s;
  r.deltas_per_s = static_cast<double>(spec.measured_deltas) / busy_s;
  keep(sink);

  // A batched tail ends balanced, outside the timed phase.
  if (s.pending_updates() > 0) {
    ++r.attempted;
    try {
      (void)s.repartition();
    } catch (const std::exception& e) {
      r.fail(std::string("final repartition failed: ") + e.what());
    }
  }
  check_final(r, s.graph(), s.partitioning(), s.summary(), &stream.final_graph);
  return r;
}

// ---------------------------------------------------------------- async

/// The reader thread of serve_async: closed-loop part_of lookups on the
/// latest view, refreshed only when the epoch moves.  It also logs when
/// each view became readable, and polls the session statistics (every
/// 100 us) to log when each background rebalance was dispatched, how many
/// deltas its snapshot held, and when it was committed.
struct Reader {
  struct Seen {
    std::int64_t t_ns;
    graph::VertexId vertices;
  };
  struct Commit {
    std::int64_t t_ns;
    std::int64_t deltas_covered;  ///< deltas absorbed at dispatch
  };
  std::vector<Seen> seen;
  std::vector<Commit> commits;
  std::vector<double> rates;  ///< lookups per second, per poll window
  std::int64_t lookups = 0;
  std::uint64_t sink = 0;
  bool overflow = false;

  void run(const pigp::AsyncSession& session,
           const std::vector<std::uint32_t>& keys, std::stop_token stop) {
    constexpr std::int64_t kPollNs = 100000;
    seen.reserve(1 << 16);
    commits.reserve(1 << 12);
    rates.reserve(1 << 18);
    const pigp::ViewChannel& channel = session.channel();
    std::shared_ptr<const pigp::PartitionView> view = channel.acquire();
    std::uint64_t epoch = view->epoch();
    pigp::AsyncStats last = session.stats();
    std::int64_t in_flight = -1;  // deltas covered by the running rebalance
    std::int64_t window_start = now_ns();
    std::int64_t window_lookups = 0;
    std::int64_t next_poll = window_start + kPollNs;
    std::size_t k = 0;
    while (!stop.stop_requested()) {
      for (int i = 0; i < 64; ++i) {
        sink += static_cast<std::uint64_t>(view->part_of(static_cast<graph::VertexId>(
            scale_key(keys[k], static_cast<std::size_t>(view->num_vertices())))));
        k = k + 1 == keys.size() ? 0 : k + 1;
      }
      lookups += 64;
      if (channel.epoch() != epoch) {
        view = channel.acquire();
        epoch = view->epoch();
        if (seen.size() < seen.capacity()) {
          seen.push_back({now_ns(), view->num_vertices()});
        } else {
          overflow = true;
        }
      }
      if ((lookups & 1023) == 0 && now_ns() >= next_poll) {
        const std::int64_t t = now_ns();
        next_poll = t + kPollNs;
        if (rates.size() < rates.capacity()) {
          rates.push_back(static_cast<double>(lookups - window_lookups) /
                          (static_cast<double>(t - window_start) * 1e-9));
        }
        window_start = t;
        window_lookups = lookups;
        const pigp::AsyncStats st = session.stats();
        if (st.rebalances_committed > last.rebalances_committed &&
            in_flight >= 0) {
          if (commits.size() < commits.capacity()) {
            commits.push_back({t, in_flight});
          } else {
            overflow = true;
          }
        }
        const std::int64_t done = st.rebalances_committed +
                                  st.commits_discarded + st.rebalance_failures;
        if (done > last.rebalances_committed + last.commits_discarded +
                       last.rebalance_failures) {
          in_flight = -1;
        }
        if (st.rebalances_started > last.rebalances_started &&
            st.rebalances_started > done) {
          in_flight = st.deltas_absorbed;
        }
        last = st;
      }
    }
  }
};

RunResult run_async(const WorkloadSpec& spec, const graph::Graph& base,
                    const Stream& stream, std::uint64_t seed, int setups,
                    HostSpeed& host, Tracer* tracer) {
  RunResult r;
  std::optional<pigp::AsyncSession> session;
  set_up(session, spec, base, setups, host, tracer, r);
  pigp::AsyncSession& s = *session;

  const auto submit = [&](graph::GraphDelta delta) {
    ++r.attempted;
    try {
      ScopedSpan span(tracer, "api.submit");
      s.submit(std::move(delta));
    } catch (const std::exception& e) {
      r.fail(std::string("submit failed: ") + e.what());
      s.clear_error();
    }
  };
  const auto flush = [&]() {
    ++r.attempted;
    try {
      ScopedSpan span(tracer, "api.flush");
      s.flush();
    } catch (const std::exception& e) {
      r.fail(std::string("flush failed: ") + e.what());
      s.clear_error();
    }
  };
  const std::int64_t period_ns =
      static_cast<std::int64_t>(1e9 / spec.paced_rate);
  // Open loop: delta i is due at start + i * period, whatever the session
  // does; the generator sleeps to just before the due time and spins the
  // rest, and how late it still ran is reported.
  const auto wait_until = [](std::int64_t due) {
    constexpr std::int64_t kSpinNs = 200000;
    for (std::int64_t t = now_ns(); t < due; t = now_ns()) {
      if (due - t > kSpinNs) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(due - t - kSpinNs));
      }
    }
  };

  std::size_t next = 0;
  {  // Warm-up at the paced rate, so the queue high-watermark afterwards
     // reflects the paced phase only.
    const std::int64_t start = now_ns() + 1000000;
    for (int i = 0; i < spec.warmup_deltas; ++i) {
      graph::GraphDelta delta = stream.deltas[next++];
      wait_until(start + i * period_ns);
      submit(std::move(delta));
    }
    flush();
  }

  // Paced phase: producer (this thread) + one reader thread.
  host.sample();
  Reader reader;
  const std::vector<std::uint32_t> keys = lookup_keys(seed, 1 << 16);
  std::exception_ptr reader_error;
  // A jthread asks the reader to stop and joins it on every exit path.
  std::jthread reader_thread([&](std::stop_token stop) {
    try {
      reader.run(s, keys, stop);
    } catch (...) {
      reader_error = std::current_exception();
    }
  });
  std::vector<std::int64_t> due(static_cast<std::size_t>(spec.measured_deltas));
  std::shared_ptr<const pigp::PartitionView> seen_view = s.view();
  const std::int64_t start = now_ns() + 1000000;
  for (int i = 0; i < spec.measured_deltas; ++i) {
    graph::GraphDelta delta = stream.deltas[next++];
    const std::int64_t due_ns = start + i * period_ns;
    due[static_cast<std::size_t>(i)] = due_ns;
    wait_until(due_ns);
    const std::int64_t t0 = now_ns();
    submit(std::move(delta));
    const std::int64_t t1 = now_ns();
    r.lateness_ms.push_back(static_cast<double>(t0 - due_ns) * 1e-6);
    r.absorb_us.push_back(static_cast<double>(t1 - t0) * 1e-3);
    // Vertices reassigned between the views this producer saw: the moves
    // committed rebalances published.
    if (s.channel().epoch() != seen_view->epoch()) {
      std::shared_ptr<const pigp::PartitionView> view = s.view();
      const auto& a = seen_view->assignment();
      const auto& b = view->assignment();
      const std::size_t n = std::min(a.size(), b.size());
      double moved = 0.0;
      for (std::size_t v = 0; v < n; ++v) moved += a[v] != b[v] ? 1.0 : 0.0;
      if (moved > 0.0) r.migrated.push_back(moved);
      seen_view = std::move(view);
    }
  }
  const std::int64_t paced_end = now_ns();
  flush();
  const std::int64_t flushed = now_ns();
  r.paced_stats = s.stats();
  reader_thread.request_stop();
  reader_thread.join();
  if (reader_error) {
    try {
      std::rethrow_exception(reader_error);
    } catch (const std::exception& e) {
      r.fail(std::string("reader failed: ") + e.what());
    }
  }
  r.measured_s = static_cast<double>(paced_end - start) * 1e-9;
  r.lookup_rates = std::move(reader.rates);
  r.check(!reader.overflow, "reader log overflowed");
  host.sample();
  keep(reader.sink);

  // Visibility: the first view the reader saw that covers a delta's ids.
  for (int i = 0; i < spec.measured_deltas; ++i) {
    const graph::VertexId need =
        stream.ids_after[static_cast<std::size_t>(spec.warmup_deltas + i)];
    const auto it = std::find_if(
        reader.seen.begin(), reader.seen.end(),
        [need](const Reader::Seen& v) { return v.vertices >= need; });
    ++r.attempted;
    if (it == reader.seen.end()) {
      r.fail("a delta never became visible to the reader");
      continue;
    }
    r.visible_ms.push_back(
        static_cast<double>(it->t_ns - due[static_cast<std::size_t>(i)]) * 1e-6);
  }

  // Rebalance latency: due time -> commit of the first rebalance whose
  // snapshot held the delta (the final flush covers a partial last batch).
  std::int64_t batched_rebalances = 0;
  for (const Reader::Commit& c : reader.commits) {
    batched_rebalances += c.deltas_covered > spec.warmup_deltas ? 1 : 0;
  }
  for (int i = 0; i < spec.measured_deltas; ++i) {
    const std::int64_t ordinal = spec.warmup_deltas + i + 1;
    const auto it = std::find_if(
        reader.commits.begin(), reader.commits.end(),
        [ordinal](const Reader::Commit& c) { return c.deltas_covered >= ordinal; });
    const std::int64_t committed = it == reader.commits.end() ? flushed : it->t_ns;
    r.rebalance_ms.push_back(
        static_cast<double>(committed - due[static_cast<std::size_t>(i)]) * 1e-6);
  }

  // Open-loop hygiene: the paced rate must not build a backlog.  The ingest
  // queue must stay short, and the rebalancer must keep up with the batch
  // trigger (a slow rebalancer coalesces batches, so fewer start).
  const pigp::AsyncStats& paced = *r.paced_stats;
  r.check(paced.queue_high_watermark <= 8,
          "ingest queue backlog: high-watermark " +
              std::to_string(paced.queue_high_watermark));
  const std::int64_t batches =
      static_cast<std::int64_t>(spec.measured_deltas) * kGrowBurst /
      spec.config.batch_vertex_limit;
  r.check(batched_rebalances * 10 >= batches * 9,
          "rebalance backlog: " + std::to_string(batched_rebalances) + " of " +
              std::to_string(batches) + " batches rebalanced on time");

  // Closed loop: the ingest path's throughput ceiling.  Each burst starts
  // from a flushed session and ends when the reader-visible view covers its
  // last delta; rebalances keep running in the background meanwhile.
  std::vector<double> burst_rates;
  for (int b = 0; b < spec.closed_loop_bursts; ++b) {
    std::vector<graph::GraphDelta> burst(
        stream.deltas.begin() + static_cast<std::ptrdiff_t>(next),
        stream.deltas.begin() +
            static_cast<std::ptrdiff_t>(next + static_cast<std::size_t>(
                                                   spec.closed_loop_burst_deltas)));
    next += burst.size();
    const graph::VertexId need = stream.ids_after[next - 1];
    const std::int64_t c0 = now_ns();
    for (graph::GraphDelta& delta : burst) submit(std::move(delta));
    std::uint64_t epoch = 0;
    bool visible = false;
    while (!visible && now_ns() - c0 < 60'000'000'000LL) {
      if (s.channel().epoch() == epoch) continue;
      const std::shared_ptr<const pigp::PartitionView> view = s.view();
      epoch = view->epoch();
      visible = view->num_vertices() >= need;
    }
    burst_rates.push_back(static_cast<double>(burst.size()) / seconds_since(c0));
    r.check(visible, "a closed-loop burst never became visible");
    flush();
  }
  r.deltas_per_s = median(burst_rates);
  host.sample();

  // Correctness: every submitted delta absorbed, every started rebalance
  // accounted for, and the final view a valid partition of the replayed
  // graph whose published summary matches a from-scratch recount.
  const pigp::AsyncStats fin = s.stats();
  r.check(fin.deltas_rejected == 0 && fin.deltas_absorbed == fin.deltas_submitted,
          "deltas absorbed != deltas submitted");
  r.check(fin.rebalances_started == fin.rebalances_committed +
                                        fin.commits_discarded +
                                        fin.rebalance_failures,
          "started != committed + discarded + failures");
  const std::shared_ptr<const pigp::PartitionView> view = s.view();
  graph::Partitioning final_part;
  final_part.num_parts = view->num_parts();
  final_part.part = view->assignment();
  check_final(r, stream.final_graph, final_part, view->summary(), nullptr);
  r.check(next == stream.deltas.size(), "stream not fully consumed");
  s.close();
  return r;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "grow_every_delta", "churn_batched", "serve_async", "spmd_tcp"};
  return names;
}

std::optional<WorkloadSpec> make_spec(const std::string& name, int seconds) {
  WorkloadSpec spec;
  spec.name = name;
  spec.config = base_config();
  const double secs = static_cast<double>(std::max(1, seconds));
  if (name == "grow_every_delta") {
    spec.config.num_threads = 4;
    spec.config.batch_policy = pigp::BatchPolicy::every_delta;
    spec.warmup_deltas = 8;
    spec.measured_deltas = multiple_of(kGrowDeltasPerSecond * secs, 1);
    spec.lookups_per_delta = 4096;
    spec.threads_total = 4;
  } else if (name == "churn_batched") {
    spec.stream = StreamKind::churn;
    spec.config.num_threads = 1;
    spec.config.batch_policy = pigp::BatchPolicy::vertex_count;
    spec.config.batch_vertex_limit = 256;
    spec.config.graph_compaction = pigp::GraphCompaction::deferred;
    // 16 vertex changes per delta: every 16th apply() rebalances.
    spec.warmup_deltas = 32;
    spec.measured_deltas = multiple_of(kChurnDeltasPerSecond * secs, 16);
    spec.lookups_per_delta = 4096;
    spec.threads_total = 1;
  } else if (name == "serve_async") {
    spec.async = true;
    spec.config.num_threads = 1;
    spec.config.batch_policy = pigp::BatchPolicy::vertex_count;
    spec.config.batch_vertex_limit = 8 * kGrowBurst;
    spec.warmup_deltas = 16;
    spec.paced_rate = kServeRate;
    spec.measured_deltas = multiple_of(kServeRate * secs, 8);
    spec.closed_loop_bursts = 4;
    spec.closed_loop_burst_deltas = 48;
    spec.threads_total = 4;  // producer, reader, ingest, repartition
  } else if (name == "spmd_tcp") {
    spec.config.backend = "spmd";
    spec.config.spmd_ranks = 2;
    spec.config.spmd_transport = "tcp";
    spec.config.batch_policy = pigp::BatchPolicy::every_delta;
    spec.warmup_deltas = 4;
    spec.measured_deltas = multiple_of(kSpmdDeltasPerSecond * secs, 1);
    spec.lookups_per_delta = 4096;
    spec.threads_total = 3;  // caller + 2 rank threads
  } else {
    return std::nullopt;
  }
  return spec;
}

RunResult run_workload(const WorkloadSpec& spec, const graph::Graph& base,
                       const Stream& stream, std::uint64_t seed, int setups,
                       HostSpeed& host, Tracer* tracer) {
  return spec.async
             ? run_async(spec, base, stream, seed, setups, host, tracer)
             : run_sync(spec, base, stream, seed, setups, host, tracer);
}

}  // namespace perfbench
