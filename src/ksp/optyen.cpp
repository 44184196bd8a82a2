#include "ksp/optyen.hpp"

#include <atomic>

#include "ksp/yen_engine.hpp"
#include "obs/metrics.hpp"
#include "sssp/delta_stepping.hpp"
#include "sssp/dijkstra.hpp"

namespace peek::ksp {

using detail::DeviationContext;

namespace detail {

/// Tree-shortcut attempt shared by OptYen and the distributed KSP stage: the
/// cheapest allowed out-edge (v,w) plus the static reverse-tree path w->t is
/// a LOWER BOUND on the restricted suffix; when that very path is feasible
/// (simple w.r.t. the prefix), the bound is attained, so it is the optimal
/// suffix and no SSSP is needed. Empty when the shortcut does not apply.
sssp::Path optyen_tree_shortcut(const sssp::GraphView& fwd,
                                const sssp::SsspResult& rtree, vid_t t,
                                const DeviationContext& ctx) {
  const vid_t v = ctx.deviation_vertex;
  // argmin over allowed out-edges of w(e) + rtree.dist[target].
  eid_t best_e = kNoEdge;
  weight_t best = kInfDist;
  for (eid_t e = fwd.edge_begin(v); e < fwd.edge_end(v); ++e) {
    if (!fwd.edge_alive(e) || ctx.banned_edges.count(e)) continue;
    const vid_t w = fwd.edge_target(e);
    if (!fwd.vertex_alive(w) || ctx.banned_vertices[w] || w == v) continue;
    if (rtree.dist[w] == kInfDist) continue;
    const weight_t bound = fwd.edge_weight(e) + rtree.dist[w];
    if (bound < best) {
      best = bound;
      best_e = e;
    }
  }
  if (best_e == kNoEdge) return {};
  // Feasibility: the tree path from the argmin next-hop must avoid the
  // prefix (banned vertices and v itself).
  const vid_t w0 = fwd.edge_target(best_e);
  for (vid_t u = w0; u != kNoVertex; u = rtree.parent[u]) {
    if (u == v || ctx.banned_vertices[u]) return {};
    if (u == t) break;
  }
  sssp::Path suffix;
  suffix.verts.push_back(v);
  for (vid_t u = w0; u != kNoVertex; u = rtree.parent[u]) {
    suffix.verts.push_back(u);
    if (u == t) break;
  }
  if (suffix.verts.back() != t) return {};
  suffix.dist = best;
  return suffix;
}

}  // namespace detail

namespace {
constexpr auto tree_shortcut = detail::optyen_tree_shortcut;
}  // namespace

KspResult optyen_ksp(const BiView& g, vid_t s, vid_t t, const KspOptions& opts) {
  std::atomic<int> sssp_calls{0};
  std::atomic<int> shortcuts{0};

  // The single static reverse shortest-path tree (computed in parallel when
  // requested — it is a plain SSSP on the reverse view).
  sssp::SsspResult rtree;
  {
    PEEK_TIMER_SCOPE("ksp.reverse_tree");
    if (opts.parallel) {
      sssp::DeltaSteppingOptions ds;
      ds.delta = opts.delta;
      ds.cancel = opts.cancel;
      rtree = sssp::delta_stepping(g.rev, t, ds);
    } else {
      sssp::DijkstraOptions dj;
      dj.cancel = opts.cancel;
      rtree = sssp::dijkstra(g.rev, t, dj);
    }
  }
  sssp_calls.fetch_add(1);
  if (rtree.status != fault::Status::kOk) {
    // A partial reverse tree overestimates distances, which would poison both
    // the shortcut bound and its feasibility walk — stop before any path.
    KspResult result;
    result.status = rtree.status;
    result.stats.sssp_calls = 1;
    return result;
  }

  detail::DeviationSolver solver = [&](const DeviationContext& ctx) {
    sssp::Path fast = tree_shortcut(g.fwd, rtree, t, ctx);
    if (!fast.empty()) {
      shortcuts.fetch_add(1, std::memory_order_relaxed);
      return fast;
    }
    sssp_calls.fetch_add(1, std::memory_order_relaxed);
    sssp::Bans bans{ctx.banned_vertices, &ctx.banned_edges};
    if (opts.parallel) {
      sssp::DeltaSteppingOptions ds;
      ds.target = t;
      ds.bans = bans;
      ds.delta = opts.delta;
      ds.parallel = ctx.position == 0 && ctx.prefix.size() == 1;
      ds.cancel = opts.cancel;
      auto r = sssp::delta_stepping(g.fwd, ctx.deviation_vertex, ds);
      // A cancelled SSSP may hold an overestimating (non-shortest) suffix;
      // discard it — the engine notices the tripped token at the round edge.
      if (r.status != fault::Status::kOk) return sssp::Path{};
      return sssp::path_from_parents(r, ctx.deviation_vertex, t);
    }
    sssp::DijkstraOptions dj;
    dj.target = t;
    dj.bans = bans;
    dj.cancel = opts.cancel;
    auto r = sssp::dijkstra(g.fwd, ctx.deviation_vertex, dj);
    if (r.status != fault::Status::kOk) return sssp::Path{};
    return sssp::path_from_parents(r, ctx.deviation_vertex, t);
  };

  KspResult result = detail::run_yen_engine(g.fwd, s, t, opts, solver);
  result.stats.sssp_calls = sssp_calls.load();
  result.stats.tree_shortcuts = shortcuts.load();
  PEEK_COUNT_ADD("ksp.deviation_sssp_calls", result.stats.sssp_calls);
  PEEK_COUNT_ADD("ksp.tree_shortcuts", result.stats.tree_shortcuts);
  return result;
}

KspResult optyen_ksp(const graph::CsrGraph& g, vid_t s, vid_t t,
                     const KspOptions& opts) {
  return optyen_ksp(BiView::of(g), s, t, opts);
}

}  // namespace peek::ksp
