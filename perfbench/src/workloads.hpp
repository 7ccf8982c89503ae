#pragma once

// The four benchmark workloads and the runner that pushes one of them through
// the public pigp::Session / pigp::AsyncSession API.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "api/async_session.hpp"
#include "api/config.hpp"
#include "graph/graph.hpp"
#include "graph/partition.hpp"
#include "stream.hpp"
#include "util.hpp"

namespace perfbench {

struct WorkloadSpec {
  std::string name;
  StreamKind stream = StreamKind::grow;
  pigp::SessionConfig config;
  bool async = false;
  /// Deltas applied before timing starts (caches warm, pools sized).
  int warmup_deltas = 0;
  /// Deltas in the measured phase: applied closed-loop (sync) or submitted
  /// open-loop at paced_rate (async).
  int measured_deltas = 0;
  /// Async only: open-loop submission rate of the measured phase, deltas/s.
  double paced_rate = 0.0;
  /// Async only: bursts of deltas submitted back to back after the paced
  /// phase, to measure the ingest path's throughput ceiling.
  int closed_loop_bursts = 0;
  int closed_loop_burst_deltas = 0;
  /// Sync only: part_of lookups the caller makes after every apply().
  int lookups_per_delta = 0;
  /// Threads the workload runs: library workers plus benchmark threads.
  int threads_total = 1;

  [[nodiscard]] int total_deltas() const {
    return warmup_deltas + measured_deltas +
           closed_loop_bursts * closed_loop_burst_deltas;
  }
};

/// Known workload names, in BENCHMARK.json order.
[[nodiscard]] const std::vector<std::string>& workload_names();

/// The spec of \p name with a fixed amount of work for a run of nominally
/// \p seconds; nullopt for an unknown name.
[[nodiscard]] std::optional<WorkloadSpec> make_spec(const std::string& name,
                                                    int seconds);

/// Everything one pass of a workload measured.
struct RunResult {
  std::vector<double> setup_s;       ///< one sample per set-up
  std::vector<double> rebalance_ms;  ///< per repartition
  std::vector<double> absorb_us;     ///< per delta handed to the session
  std::vector<double> visible_ms;    ///< per delta, due time -> readable
  std::vector<double> lateness_ms;   ///< async: generator lateness per delta
  std::vector<double> migrated;      ///< vertices moved, per repartition
  std::vector<double> lookup_rates;  ///< part_of per second, per window
  double measured_s = 0.0;           ///< wall time of the measured phase
  double deltas_per_s = 0.0;
  double final_cut = 0.0;
  double final_imbalance = 0.0;
  std::uint64_t partition_hash = 0;
  std::uint64_t graph_hash = 0;
  /// The set-up's from-scratch partition of the base graph.
  pigp::graph::Partitioning initial;
  /// Async only: session statistics after the paced phase.
  std::optional<pigp::AsyncStats> paced_stats;

  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> failures;  ///< first few failure messages

  void fail(const std::string& what) {
    ++failed;
    if (failures.size() < 8) failures.push_back(what);
  }
  /// Count one correctness check; record a failure unless \p ok.
  void check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) fail(what);
  }
};

/// Run \p spec once: \p setups timed set-ups of the session (the last one
/// is kept), the warm-up, the measured phase and the correctness checks.
/// \p host is sampled outside the timed regions: before each set-up,
/// around each phase, and every 2 s of a synchronous measured phase.
/// With a tracer, every benchmark call into the library is recorded as a
/// span; the work done is identical.
[[nodiscard]] RunResult run_workload(const WorkloadSpec& spec,
                                     const pigp::graph::Graph& base,
                                     const Stream& stream, std::uint64_t seed,
                                     int setups, HostSpeed& host,
                                     Tracer* tracer);

}  // namespace perfbench
