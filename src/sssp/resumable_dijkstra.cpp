#include "sssp/resumable_dijkstra.hpp"

#include <deque>

namespace peek::sssp {

ResumableDijkstra::ResumableDijkstra(const GraphView& view, vid_t source,
                                     Bans bans)
    : view_(view), source_(source), bans_(bans),
      heap_(view.num_vertices()) {
  const vid_t n = view_.num_vertices();
  dist_.assign(static_cast<size_t>(n), kInfDist);
  parent_.assign(static_cast<size_t>(n), kNoVertex);
  settled_.assign(static_cast<size_t>(n), 0);
  if (source_ < 0 || source_ >= n) return;
  if (!view_.vertex_alive(source_) || bans_.vertex_banned(source_)) return;
  dist_[source_] = 0;
  heap_.push_or_decrease(source_, 0);
}

ResumableDijkstra::ResumableDijkstra(const GraphView& view, vid_t source,
                                     const SsspResult& base, Bans bans)
    : view_(view), source_(source), bans_(bans),
      heap_(view.num_vertices()) {
  const vid_t n = view_.num_vertices();
  dist_.assign(static_cast<size_t>(n), kInfDist);
  parent_.assign(static_cast<size_t>(n), kNoVertex);
  settled_.assign(static_cast<size_t>(n), 0);
  if (source_ < 0 || source_ >= n) return;
  if (!view_.vertex_alive(source_) || bans_.vertex_banned(source_)) return;

  // Walk the base tree top-down; a vertex survives if it and its tree edge
  // survive the new bans and its parent survived.
  std::vector<std::vector<vid_t>> children(static_cast<size_t>(n));
  for (vid_t v = 0; v < n; ++v) {
    if (v == source_ || base.parent[v] == kNoVertex) continue;
    children[base.parent[v]].push_back(v);
  }
  dist_[source_] = 0;
  settled_[source_] = 1;
  std::deque<vid_t> queue{source_};
  while (!queue.empty()) {
    const vid_t u = queue.front();
    queue.pop_front();
    for (vid_t v : children[u]) {
      if (!view_.vertex_alive(v) || bans_.vertex_banned(v)) continue;
      // The base tree was computed on this same view, so its edges exist and
      // are in range; the (linear) find_edge lookup is only needed when
      // edge-level bans could invalidate one.
      if (bans_.edges != nullptr) {
        const eid_t e = view_.find_edge(u, v);
        if (e == kNoEdge || bans_.edge_banned(e)) continue;
      }
      dist_[v] = base.dist[v];
      parent_[v] = u;
      settled_[v] = 1;
      queue.push_back(v);
    }
  }
  // Re-open the frontier: relax every surviving vertex's out-edges into the
  // invalidated region.
  for (vid_t u = 0; u < n; ++u) {
    if (settled_[u]) relax_out_edges(u);
  }
}

ResumableDijkstra::ResumableDijkstra(const GraphView& view,
                                     const GraphView& rview, vid_t source,
                                     const SsspResult& base, weight_t threshold)
    : view_(view), source_(source), heap_(view.num_vertices()) {
  const vid_t n = view_.num_vertices();
  dist_.assign(static_cast<size_t>(n), kInfDist);
  parent_.assign(static_cast<size_t>(n), kNoVertex);
  settled_.assign(static_cast<size_t>(n), 0);
  if (source_ < 0 || source_ >= n) return;
  if (!view_.vertex_alive(source_)) return;

  // Epsilon-widened cone: rounding must only ever grow the poisoned region.
  const weight_t t = threshold == kInfDist
                         ? kInfDist
                         : threshold - (threshold * 1e-12 + 1e-12);
  const vid_t base_n = static_cast<vid_t>(base.dist.size());
  std::vector<vid_t> poisoned;
  for (vid_t v = 0; v < n; ++v) {
    const weight_t d = v < base_n ? base.dist[v] : kInfDist;
    if (d < t && view_.vertex_alive(v)) {
      // Survivor: its tree path stays below the threshold everywhere
      // (distances are monotone along it), so no batch edge touched it.
      dist_[v] = d;
      parent_[v] = v == source_ ? kNoVertex : base.parent[v];
      settled_[v] = 1;
    } else {
      poisoned.push_back(v);
    }
  }
  if (!settled_[source_]) {
    // threshold <= 0: the cone swallowed the root (and with non-negative
    // weights, everything else) — degenerate to a fresh full search.
    dist_[source_] = 0;
    heap_.push_or_decrease(source_, 0);
    return;
  }
  for (vid_t x : poisoned) {
    if (!view_.vertex_alive(x)) continue;
    for (eid_t e = rview.edge_begin(x); e < rview.edge_end(x); ++e) {
      if (!rview.edge_alive(e)) continue;
      const vid_t u = rview.edge_target(e);
      if (u < 0 || u >= n || !settled_[u]) continue;
      const weight_t nd = dist_[u] + rview.edge_weight(e);
      if (nd < dist_[x]) {
        dist_[x] = nd;
        parent_[x] = u;
        heap_.push_or_decrease(x, nd);
      }
    }
  }
}

void ResumableDijkstra::relax_out_edges(vid_t u) {
  const weight_t du = dist_[u];
  for (eid_t e = view_.edge_begin(u); e < view_.edge_end(u); ++e) {
    if (!view_.edge_alive(e) || bans_.edge_banned(e)) continue;
    const vid_t v = view_.edge_target(e);
    if (!view_.vertex_alive(v) || bans_.vertex_banned(v)) continue;
    if (settled_[v]) continue;
    const weight_t nd = du + view_.edge_weight(e);
    if (nd < dist_[v]) {
      dist_[v] = nd;
      parent_[v] = u;
      heap_.push_or_decrease(v, nd);
    }
  }
}

void ResumableDijkstra::step() {
  const vid_t u = heap_.pop().v;
  settled_[u] = 1;
  relax_out_edges(u);
}

weight_t ResumableDijkstra::ensure_settled(vid_t v) {
  while (!settled_[v] && !heap_.empty()) step();
  return dist_[v];
}

void ResumableDijkstra::run_to_completion() {
  while (!heap_.empty()) step();
}

}  // namespace peek::sssp
