// pigp end-to-end benchmark program (pigp_perfbench).
//
//   pigp_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  [--commit <id>] [--trace-out <file>]
//
// Generates the seeded inputs (base graph + delta stream) before any
// timing, runs the workload through the public Session / AsyncSession API,
// checks the outputs, and prints one JSON object as the last line of
// stdout: {"correct", "attempted", "failed", "metrics"}.  --trace 0 reports
// the end-to-end metrics; --trace 1 runs the workload untraced and traced,
// checks the two final partitions are bit-identical, runs the layer
// probes, and reports the per-layer metrics.  The exit code is non-zero
// when any correctness check failed.  See README.md.

#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "probes.hpp"
#include "stream.hpp"
#include "support/rng.hpp"
#include "util.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 20;
  int trace = 0;
  std::string commit = "unknown";
  std::string trace_out;
};

bool parse_args(int argc, char** argv, Args& args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::atoi(value.c_str());
    } else if (key == "--trace") {
      args.trace = std::atoi(value.c_str());
    } else if (key == "--commit") {
      args.commit = value;
    } else if (key == "--trace-out") {
      args.trace_out = value;
    } else {
      std::cerr << "unknown argument " << key << "\n";
      return false;
    }
  }
  return (argc % 2) == 1 && !args.workload.empty() && args.seconds >= 1 &&
         (args.trace == 0 || args.trace == 1);
}

/// Independent sub-seeds for the graph generator and the stream generator.
std::uint64_t sub_seed(std::uint64_t seed, std::uint64_t salt) {
  pigp::SplitMix64 rng(seed * 0x9e3779b97f4a7c15ULL + salt);
  return rng.next();
}

void print_table(const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("  %-28s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
}

void print_result(bool correct, std::int64_t attempted, std::int64_t failed,
                  const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    if (i > 0) out += ", ";
    out += json_string(m.name) + ": {\"value\": " + json_number(m.value) +
           ", \"unit\": " + json_string(m.unit) + "}";
  }
  out += "}}";
  std::cout << out << std::endl;
}

/// Median and 90th percentile of a sample; records a failed check when
/// fewer than ten samples lie beyond the 90th percentile.
struct Tail {
  double p50 = 0.0;
  double p90 = 0.0;
  std::size_t n = 0;
};

Tail tail(const std::vector<double>& samples, const char* what,
          RunResult& r) {
  Tail t{median(samples), quantile(samples, 0.9), samples.size()};
  const std::size_t beyond = samples_beyond(samples, 0.9);
  std::printf("  %-28s n=%zu (%zu beyond p90)\n", what, t.n, beyond);
  r.check(beyond >= 10, std::string(what) + ": fewer than 10 samples beyond p90");
  return t;
}

/// End-to-end metrics.  Times are divided by the run's host slow-down
/// factor and rates multiplied by it (see HostSpeed); the raw values are
/// printed beside them.
std::vector<Metric> end_to_end(RunResult& r, const HostSpeed& host) {
  std::printf("samples:\n");
  const Tail rebalance = tail(r.rebalance_ms, "rebalance_ms", r);
  const Tail visible = tail(r.visible_ms, "visible_ms", r);
  std::printf("  %-28s n=%zu\n", "migrated (per repartition)", r.migrated.size());
  std::printf("  %-28s n=%zu\n", "lookup windows", r.lookup_rates.size());
  std::printf("  %-28s n=%zu\n", "setup_s", r.setup_s.size());
  std::printf("  %-28s n=%zu\n", "host speed samples", host.samples());
  r.check(!r.migrated.empty(), "no repartition moved a vertex");
  // Absorb latency is printed but not gated: on the every_delta workloads
  // it is bimodal (about 30 or 60 us per delta, fixed by the allocation
  // layout of a run), far wider than any usable bound.  On churn_batched
  // the same calls are gated through visible_p50/p90_ms.
  double migrated_total = 0.0;
  for (const double m : r.migrated) migrated_total += m;
  std::printf("diagnostics (not gated): absorb p50 %.4f us, p90 %.4f us "
              "(n=%zu); vertices migrated in total %.0f\n",
              median(r.absorb_us), quantile(r.absorb_us, 0.9),
              r.absorb_us.size(), migrated_total);
  const double f = host.factor();
  const std::vector<Metric> raw = {
      {"setup_s", median(r.setup_s), "s"},
      {"deltas_per_s", r.deltas_per_s, "1/s"},
      {"rebalance_p50_ms", rebalance.p50, "ms"},
      {"rebalance_p90_ms", rebalance.p90, "ms"},
      {"visible_p50_ms", visible.p50, "ms"},
      {"visible_p90_ms", visible.p90, "ms"},
      {"lookups_per_s", median(r.lookup_rates), "1/s"},
  };
  std::printf("raw timings (host slow-down factor %.4f):\n", f);
  print_table(raw);
  return {
      {"setup_s", raw[0].value / f, "s"},
      {"peak_rss_mb", peak_rss_mb(), "MiB"},
      {"deltas_per_s", raw[1].value * f, "1/s"},
      {"rebalance_p50_ms", raw[2].value / f, "ms"},
      {"rebalance_p90_ms", raw[3].value / f, "ms"},
      {"final_cut", r.final_cut, "edges"},
      {"final_imbalance", r.final_imbalance, "ratio"},
      {"migrated_vertices", median(r.migrated), "vertices"},
      {"visible_p50_ms", raw[4].value / f, "ms"},
      {"visible_p90_ms", raw[5].value / f, "ms"},
      {"lookups_per_s", raw[6].value * f, "1/s"},
  };
}

/// Mean cost per operation of every span called \p span, scaled by \p unit_ns.
double per_op(const Tracer& tracer, const std::string& span, double unit_ns) {
  const auto [ns, ops] = tracer.totals(span);
  return ops > 0 ? ns / static_cast<double>(ops) / unit_ns : 0.0;
}

double median_span(const Tracer& tracer, const std::string& span,
                   double unit_ns) {
  return median(tracer.durations(span)) / unit_ns;
}

std::vector<Metric> per_layer(const Tracer& tracer, const ProbeResult& probes,
                              double overhead_ms) {
  const auto count = [&](const std::string& name) {
    const auto it = probes.counts.find(name);
    return it == probes.counts.end() ? 0.0 : it->second;
  };
  return {
      {"spectral.rgb_s", median_span(tracer, "spectral.rgb", 1e9), "s"},
      {"api.session_ctor_ms", median_span(tracer, "api.session_ctor", 1e6), "ms"},
      {"api.view_build_us", median_span(tracer, "api.view_build", 1e3), "us"},
      {"api.adopt_ms", median_span(tracer, "api.adopt", 1e6), "ms"},
      {"api.commit_ratio", count("api.commit_ratio"), "ratio"},
      {"api.queue_high_watermark", count("api.queue_high_watermark"), "count"},
      {"api.part_of_ns", per_op(tracer, "api.part_of", 1.0), "ns"},
      {"graph.validate_delta_us", per_op(tracer, "graph.validate_delta", 1e3), "us"},
      {"graph.insert_edge_ns", per_op(tracer, "graph.insert_edge", 1.0), "ns"},
      {"graph.remove_edge_ns", per_op(tracer, "graph.remove_edge", 1.0), "ns"},
      {"graph.add_vertex_ns", per_op(tracer, "graph.add_vertex", 1.0), "ns"},
      {"graph.remove_vertex_ns", per_op(tracer, "graph.remove_vertex", 1.0), "ns"},
      {"graph.state_move_ns", per_op(tracer, "graph.state_move", 1.0), "ns"},
      {"core.assign_us", median_span(tracer, "core.assign", 1e3), "us"},
      {"core.layering_ms", median_span(tracer, "core.layering", 1e6), "ms"},
      {"core.balance_ms", median_span(tracer, "core.balance", 1e6), "ms"},
      {"core.refine_ms", median_span(tracer, "core.refine", 1e6), "ms"},
      {"core.balance_stages", count("core.balance_stages"), "count"},
      {"core.refine_rounds", count("core.refine_rounds"), "count"},
      {"core.vertices_moved", count("core.vertices_moved"), "vertices"},
      {"lp.solve_ms", median_span(tracer, "lp.solve", 1e6), "ms"},
      {"lp.balance_pivots", count("lp.balance_pivots"), "count"},
      {"lp.refine_pivots", count("lp.refine_pivots"), "count"},
      {"lp.rows", count("lp.rows"), "count"},
      {"lp.cols", count("lp.cols"), "count"},
      {"net.connect_ms", median_span(tracer, "net.connect", 1e6), "ms"},
      {"net.messages_per_tick", count("net.messages_per_tick"), "count"},
      {"net.bytes_per_tick", count("net.bytes_per_tick"), "bytes"},
      {"net.recv_wait_ms", count("net.recv_wait_ms"), "ms"},
      {"trace.overhead_ms", overhead_ms, "ms"},
  };
}

void print_failures(const RunResult& r) {
  for (const std::string& f : r.failures) std::printf("FAILED: %s\n", f.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::cerr << "usage: pigp_perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--commit <id>] "
                 "[--trace-out <file>]\n";
    return 2;
  }
  const std::optional<WorkloadSpec> spec = make_spec(args.workload, args.seconds);
  if (!spec) {
    std::cerr << "unknown workload " << args.workload << "\n";
    return 2;
  }

  try {
    // Inputs: generated before any timing, from the seed alone.
    const std::int64_t gen0 = now_ns();
    const pigp::graph::Graph base =
        make_base_graph(kBaseVertices, sub_seed(args.seed, 1));
    const Stream stream = make_stream(base, spec->stream, spec->total_deltas(),
                                      sub_seed(args.seed, 2));
    const double gen_s = seconds_since(gen0);
    HostSpeed host;
    const std::uint64_t input_hash = hash_graph(base) ^ hash_stream(stream);

    const long llc = sysconf(_SC_LEVEL3_CACHE_SIZE);
    std::printf(
        "# meta {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %d, "
        "\"trace\": %d, \"nproc\": %u, \"llc_bytes\": %ld, \"compiler\": "
        "\"%s\", \"build_type\": \"%s\", \"commit\": \"%s\", "
        "\"library_threads\": %d, \"threads_total\": %d, \"vertices\": %d, "
        "\"deltas\": %d, \"input_hash\": \"%s\", \"generate_s\": %.3f}\n",
        spec->name.c_str(), static_cast<unsigned long long>(args.seed),
        args.seconds, args.trace, std::thread::hardware_concurrency(), llc,
        PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE, args.commit.c_str(),
        spec->config.num_threads, spec->threads_total, kBaseVertices,
        spec->total_deltas(), hex64(input_hash).c_str(), gen_s);
    std::fflush(stdout);

    if (args.trace == 0) {
      RunResult r = run_workload(*spec, base, stream, args.seed, 3, host, nullptr);
      const std::vector<Metric> metrics = end_to_end(r, host);
      std::printf("result: final partition %s, final graph %s, %d measured "
                  "deltas in %.3f s\n",
                  hex64(r.partition_hash).c_str(), hex64(r.graph_hash).c_str(),
                  spec->measured_deltas, r.measured_s);
      if (r.paced_stats) {
        std::printf("open loop: rate %.1f/s, generator lateness p50 %.4f ms "
                    "p90 %.4f ms max %.4f ms, queue high-watermark %zu\n",
                    spec->paced_rate, median(r.lateness_ms),
                    quantile(r.lateness_ms, 0.9), quantile(r.lateness_ms, 1.0),
                    r.paced_stats->queue_high_watermark);
      }
      print_table(metrics);
      print_failures(r);
      print_result(r.failed == 0, r.attempted, r.failed, metrics);
      return r.failed == 0 ? 0 : 1;
    }

    // Traced run: untraced pass, traced pass, layer probes.
    RunResult plain = run_workload(*spec, base, stream, args.seed, 1, host, nullptr);
    Tracer tracer;
    RunResult traced = run_workload(*spec, base, stream, args.seed, 1, host, &tracer);
    RunResult checks;
    checks.attempted = plain.attempted + traced.attempted;
    checks.failed = plain.failed + traced.failed;
    checks.failures = plain.failures;
    checks.failures.insert(checks.failures.end(), traced.failures.begin(),
                           traced.failures.end());
    checks.check(plain.graph_hash == traced.graph_hash,
                 "traced final graph differs from the untraced one");
    // An AsyncSession's rebalance snapshots depend on thread timing, so
    // only the synchronous workloads promise bit-identical partitions.
    if (!spec->async) {
      checks.check(plain.partition_hash == traced.partition_hash,
                   "traced final partition differs from the untraced one");
    }
    const ProbeResult probes =
        run_probes(*spec, base, traced.initial, stream, traced.paced_stats, tracer);
    checks.attempted += probes.attempted;
    checks.failed += probes.failed;
    checks.failures.insert(checks.failures.end(), probes.failures.begin(),
                           probes.failures.end());
    // Overhead on the measured phase only: the warm-up of the first pass
    // also pays one-time process costs (page faults, thread start-up).
    const double overhead_ms = (traced.measured_s - plain.measured_s) * 1e3;
    const std::vector<Metric> metrics = per_layer(tracer, probes, overhead_ms);
    std::printf("trace: measured phase untraced %.3f s, traced %.3f s, overhead "
                "%.3f ms, %zu spans; final partitions %s / %s\n",
                plain.measured_s, traced.measured_s, overhead_ms,
                tracer.spans().size(),
                hex64(plain.partition_hash).c_str(),
                hex64(traced.partition_hash).c_str());
    if (!args.trace_out.empty() && !tracer.write_chrome_json(args.trace_out)) {
      std::printf("warning: could not write %s\n", args.trace_out.c_str());
    }
    print_table(metrics);
    print_failures(checks);
    print_result(checks.failed == 0, checks.attempted, checks.failed, metrics);
    return checks.failed == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::printf("FAILED: %s\n", e.what());
    return 1;
  }
}
