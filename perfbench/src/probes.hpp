#pragma once

// Layer probes of the traced run: the benchmark's own calls into the public
// functions of each pigp module, on copies of the workload's graph,
// partition and delta stream.  Each probe records spans in the tracer and
// counts in the returned map; main.cpp turns both into per-layer metrics.

#include <map>
#include <string>

#include "graph/graph.hpp"
#include "graph/partition.hpp"
#include "stream.hpp"
#include "util.hpp"
#include "workloads.hpp"

namespace perfbench {

struct ProbeResult {
  /// Count-valued per-layer metrics, keyed by metric name.
  std::map<std::string, double> counts;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> failures;
};

/// Run every layer probe for \p spec.  \p initial is the set-up partition
/// of \p base; \p async_stats, when present, are the workload's own
/// AsyncSession statistics (otherwise a short AsyncSession probe runs).
[[nodiscard]] ProbeResult run_probes(const WorkloadSpec& spec,
                                     const pigp::graph::Graph& base,
                                     const pigp::graph::Partitioning& initial,
                                     const Stream& stream,
                                     const std::optional<pigp::AsyncStats>& async_stats,
                                     Tracer& tracer);

}  // namespace perfbench
