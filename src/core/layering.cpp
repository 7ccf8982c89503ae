#include "core/layering.hpp"

#include <algorithm>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "support/check.hpp"

namespace pigp::core {
namespace {

/// Deterministic integer mixer (murmur3 finalizer).  Raw vertex ids are
/// heavily correlated with mesh structure (e.g. a grid column shares its id
/// parity), so ties must be spread by a hash, not by the id itself.
std::uint64_t mix(std::uint64_t x) {
  x ^= x >> 33;
  x *= 0xFF51AFD7ED558CCDULL;
  x ^= x >> 33;
  x *= 0xC4CEB9FE1A85EC53ULL;
  x ^= x >> 33;
  return x;
}

/// Pick the label with the largest tally, then clear the tally; the paper
/// breaks ties "arbitrarily" — we spread tied vertices across the tied
/// partitions by hashed vertex id, which is deterministic but avoids piling
/// all tied capacity onto one partition (that can make the balance LP
/// structurally infeasible, e.g. on striped partitionings).  Tied labels
/// are walked in ascending id order; only the touched labels are scanned,
/// so the pick costs O(deg), not O(P).
graph::PartId majority_label(LabelTally& tally, graph::VertexId v) {
  std::vector<graph::PartId>& touched = tally.touched();
  double best = 0.0;
  for (const graph::PartId q : touched) best = std::max(best, tally.weight(q));
  graph::PartId pick = -1;
  if (best > 0.0) {
    int tied_count = 0;
    for (const graph::PartId q : touched) {
      if (tally.weight(q) == best) {
        pick = q;
        ++tied_count;
      }
    }
    if (tied_count > 1) {
      const auto nth = mix(static_cast<std::uint64_t>(v)) %
                       static_cast<std::uint64_t>(tied_count);
      std::sort(touched.begin(), touched.end());
      std::uint64_t seen = 0;
      for (const graph::PartId q : touched) {
        if (tally.weight(q) == best && seen++ == nth) {
          pick = q;
          break;
        }
      }
    }
  }
  tally.clear();
  return pick;
}

/// Expand partition \p target's BFS one level past \p frontier (whose
/// vertices sit at \p level): discover, sort, and label the next layer
/// into \p out (also recorded in label/layer/eps_row).  The shared level
/// step of the batch and resumable layerings — their bit-identical results
/// come from sharing this code.
void advance_one_level(const graph::Graph& g, const graph::Partitioning& p,
                       graph::PartId target,
                       const std::vector<graph::VertexId>& frontier,
                       std::int32_t level,
                       std::vector<graph::PartId>& label,
                       std::vector<std::int32_t>& layer,
                       std::int64_t* eps_row, LabelTally& tally,
                       std::vector<graph::VertexId>& out) {
  out.clear();
  for (const graph::VertexId u : frontier) {
    for (const graph::VertexId w : g.neighbors(u)) {
      if (p.part[static_cast<std::size_t>(w)] != target) continue;
      if (layer[static_cast<std::size_t>(w)] >= 0) continue;  // seen
      layer[static_cast<std::size_t>(w)] = level + 1;  // enqueue marker
      out.push_back(w);
    }
  }
  std::sort(out.begin(), out.end());
  for (const graph::VertexId w : out) {
    const auto nbrs = g.neighbors(w);
    const auto weights = g.incident_edge_weights(w);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      const graph::VertexId u = nbrs[i];
      if (p.part[static_cast<std::size_t>(u)] == target &&
          layer[static_cast<std::size_t>(u)] == level &&
          label[static_cast<std::size_t>(u)] >= 0) {
        // label == -1 (a vertex whose edges into the boundary all have
        // weight zero) carries no label to propagate.
        tally.add(label[static_cast<std::size_t>(u)], weights[i]);
      }
    }
    const graph::PartId best = majority_label(tally, w);
    // best == -1 is only reachable when every edge into the previous
    // layer has weight zero; such a vertex stays unlabeled (and counts
    // toward no eps entry), exactly like the batch member sweep did.
    label[static_cast<std::size_t>(w)] = best;  // layer set at enqueue
    if (eps_row != nullptr && best >= 0) {
      ++eps_row[static_cast<std::size_t>(best)];
    }
  }
}

/// Label \p v as a layer-0 seed of \p target: closest outside partition by
/// edge weight.  Returns false when v has no external edge at all.
bool seed_vertex(const graph::Graph& g, const graph::Partitioning& p,
                 graph::PartId target, graph::VertexId v,
                 LabelTally& tally, std::vector<graph::PartId>& label,
                 std::vector<std::int32_t>& layer, std::int64_t* eps_row) {
  const auto nbrs = g.neighbors(v);
  const auto weights = g.incident_edge_weights(v);
  for (std::size_t i = 0; i < nbrs.size(); ++i) {
    const graph::PartId q = p.part[static_cast<std::size_t>(nbrs[i])];
    if (q != target) tally.add(q, weights[i]);
  }
  if (tally.touched().empty()) return false;
  const graph::PartId best = majority_label(tally, v);
  label[static_cast<std::size_t>(v)] = best;
  layer[static_cast<std::size_t>(v)] = 0;
  if (eps_row != nullptr && best >= 0) {
    ++eps_row[static_cast<std::size_t>(best)];
  }
  return true;
}

int scratch_slot(bool parallel) {
#ifdef _OPENMP
  return parallel ? omp_get_thread_num() : 0;
#else
  (void)parallel;
  return 0;
#endif
}

}  // namespace

std::vector<std::vector<graph::VertexId>> partition_members(
    const graph::Partitioning& p) {
  std::vector<std::vector<graph::VertexId>> members(
      static_cast<std::size_t>(p.num_parts));
  for (std::size_t v = 0; v < p.part.size(); ++v) {
    members[static_cast<std::size_t>(p.part[v])].push_back(
        static_cast<graph::VertexId>(v));
  }
  return members;
}

void layer_one_partition(const graph::Graph& g, const graph::Partitioning& p,
                         graph::PartId target,
                         const std::vector<graph::VertexId>& members,
                         std::vector<graph::PartId>& label,
                         std::vector<std::int32_t>& layer,
                         std::int64_t* eps_row, LayerScratch& scratch) {
  scratch.tally.reset(static_cast<std::size_t>(p.num_parts));
  scratch.frontier.clear();

  // Seed layer 0: boundary vertices labeled with the outside partition they
  // share the largest edge weight with.  eps is tallied per labeled vertex
  // (identical to a final member sweep — integer counts are order-free).
  for (const graph::VertexId v : members) {
    if (seed_vertex(g, p, target, v, scratch.tally, label, layer, eps_row)) {
      scratch.frontier.push_back(v);
    }
  }

  // Grow layers inward.  Each candidate adopts the label carried by the
  // largest edge weight into the previous layer.
  std::int32_t level = 0;
  while (!scratch.frontier.empty()) {
    advance_one_level(g, p, target, scratch.frontier, level, label, layer,
                      eps_row, scratch.tally, scratch.next);
    scratch.frontier.swap(scratch.next);
    ++level;
  }
}

void layer_one_partition(const graph::Graph& g, const graph::Partitioning& p,
                         graph::PartId target,
                         const std::vector<graph::VertexId>& members,
                         std::vector<graph::PartId>& label,
                         std::vector<std::int32_t>& layer,
                         std::int64_t* eps_row) {
  LayerScratch scratch;
  layer_one_partition(g, p, target, members, label, layer, eps_row, scratch);
}

LayeringResult layer_partitions(const graph::Graph& g,
                                const graph::Partitioning& p,
                                int num_threads) {
  p.validate(g);
  LayeringResult result;
  const auto n = static_cast<std::size_t>(g.num_vertices());
  result.label.assign(n, -1);
  result.layer.assign(n, -1);
  result.eps = pigp::DenseMatrix<std::int64_t>(
      static_cast<std::size_t>(p.num_parts),
      static_cast<std::size_t>(p.num_parts), 0);

  const auto members = partition_members(p);
  const bool parallel = num_threads > 1 && p.num_parts > 1;
  std::vector<LayerScratch> scratch(
      static_cast<std::size_t>(std::max(1, parallel ? num_threads : 1)));
#pragma omp parallel num_threads(num_threads) if (parallel)
  {
    const auto tid = static_cast<std::size_t>(scratch_slot(parallel));
#pragma omp for schedule(dynamic, 1)
    for (graph::PartId q = 0; q < p.num_parts; ++q) {
      // Partitions are vertex-disjoint, so the shared label/layer/eps
      // arrays are written without races.
      layer_one_partition(g, p, q, members[static_cast<std::size_t>(q)],
                          result.label, result.layer,
                          result.eps.row(static_cast<std::size_t>(q)).data(),
                          scratch[tid]);
    }
  }
  return result;
}

// ---------------------------------------------------------------------------
// BoundaryLayering

BoundaryLayering::BoundaryLayering(const graph::Graph& g,
                                   const graph::Partitioning& p) {
  bind(g, p);
}

void BoundaryLayering::bind(const graph::Graph& g,
                            const graph::Partitioning& p) {
  g_ = &g;
  p_ = &p;
  const auto n = static_cast<std::size_t>(g.num_vertices());
  const auto parts = static_cast<std::size_t>(p.num_parts);
  if (dirty_ || label_.size() > n || eps_.rows() != parts) {
    // Remapped ids / shrunk graph / changed part count / fresh or
    // taken-from object: the labeled lists can no longer undo the previous
    // stage, so reset everything once.  (This path is only reached after
    // a delta with removals — itself an O(V) operation — or on first use.)
    label_.assign(n, -1);
    layer_.assign(n, -1);
    eps_ = pigp::DenseMatrix<std::int64_t>(parts, parts, 0);
    frontier_.assign(parts, {});
    labeled_.assign(parts, {});
    depth_.assign(parts, 0);
    seeded_.clear();
    dirty_ = false;
  } else if (label_.size() < n) {
    // Appended vertices: grow with unlabeled tails (amortized, and only
    // when the graph actually grew).  Existing entries still match the
    // labeled lists, so the O(labeled) reseed undo stays valid.
    label_.resize(n, -1);
    layer_.resize(n, -1);
  }
}

void BoundaryLayering::begin_stage(
    const std::vector<graph::PartId>* owned_parts) {
  PIGP_CHECK(label_.size() ==
                 static_cast<std::size_t>(g_->num_vertices()),
             "BoundaryLayering reused after take_result()");
  // Undo the previous stage in O(labeled), not O(V).
  for (const graph::PartId q : seeded_) {
    const auto qi = static_cast<std::size_t>(q);
    for (const graph::VertexId v : labeled_[qi]) {
      label_[static_cast<std::size_t>(v)] = -1;
      layer_[static_cast<std::size_t>(v)] = -1;
    }
    labeled_[qi].clear();
    frontier_[qi].clear();
    depth_[qi] = 0;
  }
  eps_.fill(0);

  if (owned_parts != nullptr) {
    seeded_ = *owned_parts;
  } else {
    seeded_.resize(static_cast<std::size_t>(p_->num_parts));
    for (graph::PartId q = 0; q < p_->num_parts; ++q) {
      seeded_[static_cast<std::size_t>(q)] = q;
    }
  }
}

void BoundaryLayering::reseed(const graph::PartitionState& state,
                              int num_threads,
                              const std::vector<graph::PartId>* owned_parts) {
  begin_stage(owned_parts);

  const bool parallel = num_threads > 1 && seeded_.size() > 1;
  scratch_.resize(static_cast<std::size_t>(
      std::max(1, parallel ? num_threads : 1)));
#pragma omp parallel num_threads(num_threads) if (parallel)
  {
    const auto tid = static_cast<std::size_t>(scratch_slot(parallel));
    LayerScratch& scratch = scratch_[tid];
#pragma omp for schedule(dynamic, 1)
    for (std::size_t k = 0; k < seeded_.size(); ++k) {
      const graph::PartId q = seeded_[k];
      const auto qi = static_cast<std::size_t>(q);
      scratch.tally.reset(static_cast<std::size_t>(p_->num_parts));
      // Bucket order is unspecified (swap-remove); sort so seeds match the
      // batch member scan and stay deterministic.
      auto& seeds = labeled_[qi];
      seeds.assign(state.boundary_vertices(q).begin(),
                   state.boundary_vertices(q).end());
      std::sort(seeds.begin(), seeds.end());
      for (const graph::VertexId v : seeds) {
        const bool boundary =
            seed_vertex(*g_, *p_, q, v, scratch.tally, label_, layer_,
                        eps_.row(qi).data());
        PIGP_ASSERT(boundary);  // the index only holds boundary vertices
        (void)boundary;
      }
      frontier_[qi] = seeds;
    }
  }
}

void BoundaryLayering::reseed_from_buckets(
    const std::vector<std::vector<graph::VertexId>>& buckets,
    const std::vector<graph::PartId>& owned_parts, int num_threads) {
  PIGP_CHECK(buckets.size() == owned_parts.size(),
             "one boundary bucket per owned partition");
  begin_stage(&owned_parts);

  const bool parallel = num_threads > 1 && seeded_.size() > 1;
  scratch_.resize(static_cast<std::size_t>(
      std::max(1, parallel ? num_threads : 1)));
#pragma omp parallel num_threads(num_threads) if (parallel)
  {
    const auto tid = static_cast<std::size_t>(scratch_slot(parallel));
    LayerScratch& scratch = scratch_[tid];
#pragma omp for schedule(dynamic, 1)
    for (std::size_t k = 0; k < seeded_.size(); ++k) {
      const graph::PartId q = seeded_[k];
      const auto qi = static_cast<std::size_t>(q);
      scratch.tally.reset(static_cast<std::size_t>(p_->num_parts));
      scratch.next = buckets[k];
      std::sort(scratch.next.begin(), scratch.next.end());
      auto& seeds = labeled_[qi];
      seeds.clear();
      for (const graph::VertexId v : scratch.next) {
        // Unlike the PartitionState index, caller buckets may overstate
        // the boundary; skip anything that turns out interior.
        if (seed_vertex(*g_, *p_, q, v, scratch.tally, label_, layer_,
                        eps_.row(qi).data())) {
          seeds.push_back(v);
        }
      }
      frontier_[qi] = seeds;
    }
  }
}

void BoundaryLayering::release() {
  std::vector<graph::PartId>().swap(label_);
  std::vector<std::int32_t>().swap(layer_);
  eps_ = pigp::DenseMatrix<std::int64_t>();
  std::vector<std::vector<graph::VertexId>>().swap(frontier_);
  std::vector<std::vector<graph::VertexId>>().swap(labeled_);
  std::vector<std::int32_t>().swap(depth_);
  std::vector<graph::PartId>().swap(seeded_);
  std::vector<LayerScratch>().swap(scratch_);
  dirty_ = true;
}

void BoundaryLayering::grow(int levels, int num_threads) {
  if (levels == 0) return;
  const bool parallel = num_threads > 1 && seeded_.size() > 1;
  scratch_.resize(static_cast<std::size_t>(
      std::max(1, parallel ? num_threads : 1)));
#pragma omp parallel num_threads(num_threads) if (parallel)
  {
    const auto tid = static_cast<std::size_t>(scratch_slot(parallel));
    LayerScratch& scratch = scratch_[tid];
#pragma omp for schedule(dynamic, 1)
    for (std::size_t k = 0; k < seeded_.size(); ++k) {
      const graph::PartId q = seeded_[k];
      const auto qi = static_cast<std::size_t>(q);
      scratch.tally.reset(static_cast<std::size_t>(p_->num_parts));
      int remaining = levels;
      while (!frontier_[qi].empty() && remaining != 0) {
        advance_one_level(*g_, *p_, q, frontier_[qi], depth_[qi], label_,
                          layer_, eps_.row(qi).data(), scratch.tally,
                          scratch.next);
        labeled_[qi].insert(labeled_[qi].end(), scratch.next.begin(),
                            scratch.next.end());
        frontier_[qi].swap(scratch.next);
        ++depth_[qi];
        if (remaining > 0) --remaining;
      }
    }
  }
}

bool BoundaryLayering::exhausted() const {
  for (const graph::PartId q : seeded_) {
    if (!frontier_[static_cast<std::size_t>(q)].empty()) return false;
  }
  return true;
}

LayeringResult BoundaryLayering::take_result() {
  LayeringResult result;
  result.label = std::move(label_);
  result.layer = std::move(layer_);
  result.eps = std::move(eps_);
  seeded_.clear();
  // The moved-from eps_ may keep its shape (only the storage moved), which
  // bind()'s cheap checks cannot distinguish from a live matrix — force
  // the next bind() onto the full-reset path.
  dirty_ = true;
  return result;
}

LayeringResult layer_partitions_from(const graph::Graph& g,
                                     const graph::Partitioning& p,
                                     const graph::PartitionState& state,
                                     int num_threads) {
  BoundaryLayering layering(g, p);
  layering.reseed(state, num_threads);
  layering.grow(-1, num_threads);
  return layering.take_result();
}

}  // namespace pigp::core
