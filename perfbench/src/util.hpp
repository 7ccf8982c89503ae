#pragma once

// Small helpers shared by the benchmark program: a monotonic clock, sample
// statistics, an in-memory span tracer, result hashing, process memory and
// a minimal JSON writer.  Nothing here calls into the pigp library.

#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include <sys/resource.h>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

inline double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

/// Linear-interpolated quantile (q in [0, 1]) of an unsorted sample.
inline double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

inline double median(const std::vector<double>& values) {
  return quantile(values, 0.5);
}

/// Samples strictly above the q-quantile: the tail that backs a percentile.
inline std::size_t samples_beyond(const std::vector<double>& values,
                                  double q) {
  const double cut = quantile(values, q);
  return static_cast<std::size_t>(
      std::count_if(values.begin(), values.end(),
                    [cut](double v) { return v > cut; }));
}

/// Publishes \p v where the optimizer cannot see it is unused, so timed
/// lookup loops are not optimized away.
inline void keep(std::uint64_t v) {
  static std::atomic<std::uint64_t> sink{0};
  sink.store(v, std::memory_order_relaxed);
}

/// Peak resident set size of this process, in MiB.
inline double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Host-speed probe.  The reference host shares its memory system with
/// other tenants, and their load moves the speed of memory-bound code by
/// up to 40% over minutes.  A fixed pointer chase over 64 MiB (one random
/// cycle, built once from a fixed seed, independent of the workload) is
/// timed at fixed points of every run; the ratio of its median step time to
/// kReferenceStepNs is the run's slow-down factor.  Timings are divided by
/// it (rates multiplied), so the gated numbers read as at the reference
/// speed; the raw values are printed beside them.
class HostSpeed {
 public:
  /// Median step time of the chase on the reference host at its usual
  /// load (4-vCPU x86-64 VM, 105 MiB L3).
  static constexpr double kReferenceStepNs = 180.0;

  HostSpeed() : next_(std::size_t{1} << 24) {
    // Sattolo's shuffle: a single cycle through every slot.
    std::uint64_t x = 0x243f6a8885a308d3ULL;
    for (std::size_t i = 0; i < next_.size(); ++i) {
      next_[i] = static_cast<std::uint32_t>(i);
    }
    for (std::size_t i = next_.size() - 1; i > 0; --i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      std::swap(next_[i], next_[x % i]);
    }
  }

  /// Time one chase of kSteps dependent loads.
  void sample() {
    constexpr int kSteps = 1 << 18;
    const std::int64_t t0 = now_ns();
    std::uint32_t p = 0;
    for (int k = 0; k < kSteps; ++k) p = next_[p];
    const std::int64_t t1 = now_ns();
    keep(p);
    step_ns_.push_back(static_cast<double>(t1 - t0) / kSteps);
  }

  /// Median step time over this run's samples divided by the reference.
  [[nodiscard]] double factor() const {
    return step_ns_.empty() ? 1.0 : median(step_ns_) / kReferenceStepNs;
  }
  [[nodiscard]] std::size_t samples() const { return step_ns_.size(); }

 private:
  std::vector<std::uint32_t> next_;
  std::vector<double> step_ns_;
};

/// FNV-1a over raw bytes; used for input and final-partition fingerprints.
class Hasher {
 public:
  void bytes(const void* data, std::size_t size) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
      state_ ^= p[i];
      state_ *= 0x100000001b3ULL;
    }
  }
  template <typename T>
  void value(const T& v) {
    bytes(&v, sizeof(T));
  }
  template <typename T>
  void range(const std::vector<T>& v) {
    value(v.size());
    if (!v.empty()) bytes(v.data(), v.size() * sizeof(T));
  }
  [[nodiscard]] std::uint64_t digest() const { return state_; }

 private:
  std::uint64_t state_ = 0xcbf29ce484222325ULL;
};

inline std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

/// In-memory span recorder for the traced run.  Each span names the module
/// it times ("graph.insert_edge"), its parent span, and how many operations
/// it covered, so per-operation costs are measured where the work happens.
/// Spans are kept in memory and written out once, after the run.
class Tracer {
 public:
  struct Span {
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    int parent = -1;
    std::int64_t ops = 1;
  };

  Tracer() { spans_.reserve(1 << 16); }

  /// Open a span; returns its id for end().
  int begin(std::string name, std::int64_t ops = 1) {
    Span s;
    s.name = std::move(name);
    s.parent = open_.empty() ? -1 : open_.back();
    s.ops = ops;
    s.start_ns = now_ns();
    spans_.push_back(std::move(s));
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
  }

  void end(int id) {
    spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
    if (!open_.empty() && open_.back() == id) open_.pop_back();
  }

  /// Per-span durations (ns) of every span called \p name.
  [[nodiscard]] std::vector<double> durations(const std::string& name) const {
    std::vector<double> out;
    for (const Span& s : spans_) {
      if (s.name == name) out.push_back(static_cast<double>(s.end_ns - s.start_ns));
    }
    return out;
  }

  /// Total time (ns) and total operations over every span called \p name.
  [[nodiscard]] std::pair<double, std::int64_t> totals(
      const std::string& name) const {
    double ns = 0.0;
    std::int64_t ops = 0;
    for (const Span& s : spans_) {
      if (s.name != name) continue;
      ns += static_cast<double>(s.end_ns - s.start_ns);
      ops += s.ops;
    }
    return {ns, ops};
  }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Chrome trace-event JSON ("X" complete events), readable by Perfetto.
  bool write_chrome_json(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"traceEvents\":[\n");
    const std::int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"ops\":%lld,"
                   "\"parent\":%d}}\n",
                   i == 0 ? "" : ",", s.name.c_str(),
                   static_cast<double>(s.start_ns - origin) * 1e-3,
                   static_cast<double>(s.end_ns - s.start_ns) * 1e-3,
                   static_cast<long long>(s.ops), s.parent);
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
  }

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// Opens a span on construction and closes it on destruction; a null
/// tracer makes it a no-op, so untraced passes run the same code.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, std::int64_t ops = 1)
      : tracer_(tracer), id_(tracer != nullptr ? tracer->begin(name, ops) : -1) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->end(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int id_;
};

/// One reported metric: value plus unit, in insertion order.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Shortest round-trip decimal form of \p v (all its digits, no rounding).
inline std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

/// Metric names and units are program constants: no escaping needed.
inline std::string json_string(const std::string& s) { return '"' + s + '"'; }

}  // namespace perfbench
