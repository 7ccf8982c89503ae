#pragma once

/// \file label_tally.hpp
/// Per-vertex edge-weight tally over partition labels, shared by the
/// layering BFS (core/layering.cpp) and the refinement candidate scan
/// (core/refine.cpp).
///
/// Both ask one question per vertex: how much edge weight leads to each
/// partition?  A dense P-slot array answers it, but clearing and scanning
/// all P slots per vertex costs O(P) where the vertex only has deg
/// neighbours (≈ 4.5 against P = 32 on the benchmark graphs).  LabelTally
/// keeps the dense slots for O(1) accumulation, records which labels the
/// current vertex touched, and lets callers scan and reset only those — an
/// O(deg) cost per vertex.
///
/// Sums accumulate per label in the order add() is called, so a caller
/// that adds in neighbour order gets sums bit-identical to the dense
/// array's.  A label reached only by zero-weight edges still counts as
/// touched.

#include <cstdint>
#include <vector>

#include "graph/partition.hpp"

namespace pigp::core {

/// Edge weight per partition label, for one vertex at a time.
class LabelTally {
 public:
  /// Size the slots for \p parts labels and clear them.  Allocates only
  /// when the part count grows past every earlier call.
  void reset(std::size_t parts) {
    clear();
    if (weight_.size() != parts) {
      weight_.assign(parts, 0.0);
      seen_.assign(parts, 0);
      touched_.reserve(parts);
    }
  }

  /// Add \p w to label \p q's sum.
  void add(graph::PartId q, double w) {
    const auto qi = static_cast<std::size_t>(q);
    if (seen_[qi] == 0) {
      seen_[qi] = 1;
      touched_.push_back(q);
    }
    weight_[qi] += w;
  }

  /// Labels added since the last clear(), in first-touch order (callers
  /// may reorder the list, e.g. sort it to walk ties by ascending id).
  [[nodiscard]] std::vector<graph::PartId>& touched() { return touched_; }

  [[nodiscard]] double weight(graph::PartId q) const {
    return weight_[static_cast<std::size_t>(q)];
  }

  /// Zero the touched slots only — O(touched), not O(P).
  void clear() {
    for (const graph::PartId q : touched_) {
      weight_[static_cast<std::size_t>(q)] = 0.0;
      seen_[static_cast<std::size_t>(q)] = 0;
    }
    touched_.clear();
  }

 private:
  std::vector<double> weight_;       ///< one slot per part, zero when idle
  std::vector<std::uint8_t> seen_;  ///< slot touched since the last clear
  std::vector<graph::PartId> touched_;
};

}  // namespace pigp::core
