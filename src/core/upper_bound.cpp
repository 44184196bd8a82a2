#include "core/upper_bound.hpp"

#include <algorithm>
#include <atomic>
#include <functional>
#include <memory>
#include <unordered_set>
#include <utility>

#include "fault/injector.hpp"
#include "obs/metrics.hpp"
#include "parallel/parallel_for.hpp"
#include "sssp/delta_stepping.hpp"
#include "sssp/dijkstra.hpp"

namespace peek::core {

namespace {

PruneResult prune_impl(const CsrGraph& g, vid_t s, vid_t t,
                       const PruneOptions& opts) {
  PruneResult r;
  const vid_t n = g.num_vertices();
  r.vertex_keep.assign(static_cast<size_t>(n), 0);
  PEEK_COUNT_INC("prune.runs");

  // Step 1: shortest distances from the source and to the target. Either
  // tree may arrive precomputed from the serving layer's artifact cache.
  {
    PEEK_TIMER_SCOPE("prune.sssp");
    PEEK_FAULT_ALLOC("prune.sssp.alloc");
    sssp::DeltaSteppingOptions ds;
    ds.delta = opts.delta;
    ds.cancel = opts.cancel;
    sssp::DijkstraOptions dj;
    dj.cancel = opts.cancel;
    if (opts.reuse_from_source) {
      r.from_source = *opts.reuse_from_source;
      PEEK_COUNT_INC("prune.reused_trees");
    } else if (opts.parallel) {
      r.from_source = sssp::delta_stepping(sssp::GraphView(g), s, ds);
    } else {
      r.from_source = sssp::dijkstra(sssp::GraphView(g), s, dj);
    }
    if (r.from_source.status != fault::Status::kOk) {
      r.status = r.from_source.status;
      return r;
    }
    if (opts.reuse_to_target) {
      r.to_target = *opts.reuse_to_target;
      PEEK_COUNT_INC("prune.reused_trees");
    } else if (opts.parallel) {
      r.to_target = sssp::reverse_delta_stepping(g, t, ds);
    } else {
      r.to_target = sssp::reverse_dijkstra(g, t, dj);
    }
    if (r.to_target.status != fault::Status::kOk) {
      r.status = r.to_target.status;
      return r;
    }
  }

  if (r.to_target.dist[s] == kInfDist) {
    // t unreachable: no path at all; prune everything.
    PEEK_COUNT_INC("prune.unreachable_queries");
    r.upper_bound = kInfDist;
    r.edge_keep = nullptr;
    return r;
  }

  // Step 2: distance sums (data parallel, Algorithm 2 lines 3-4).
  std::vector<weight_t> dist(static_cast<size_t>(n));
  auto sum_body = [&](vid_t v) {
    const weight_t a = r.from_source.dist[v];
    const weight_t b = r.to_target.dist[v];
    dist[v] = (a == kInfDist || b == kInfDist) ? kInfDist : a + b;
  };
  if (opts.parallel) par::parallel_for(vid_t{0}, n, sum_body);
  else for (vid_t v = 0; v < n; ++v) sum_body(v);

  // Step 3: identify b — walk vertices in increasing (dist, id) order, keep
  // the K-th valid, distinct combined path (lines 5-9). The walk stops after
  // K + λ vertices, so it pops a min-heap of the reachable vertices, built in
  // O(n), instead of sorting all n as §6.2 does.
  weight_t b = kInfDist;
  {
    PEEK_TIMER_SCOPE("prune.scan");
    PEEK_FAULT_STALL("prune.scan.stall");
    fault::CancelPoll poll(opts.cancel);
    std::vector<std::pair<weight_t, vid_t>> heap;
    for (vid_t v = 0; v < n; ++v) {
      if (dist[v] != kInfDist) heap.emplace_back(dist[v], v);
    }
    std::make_heap(heap.begin(), heap.end(), std::greater<>{});
    std::unordered_set<sssp::Path, sssp::PathHash> distinct;
    int valid = 0;
    std::int64_t non_simple = 0, duplicates = 0;
    while (!heap.empty()) {
      std::pop_heap(heap.begin(), heap.end(), std::greater<>{});
      const vid_t v = heap.back().second;
      heap.pop_back();
      if (poll.should_stop()) {
        r.status = poll.why();
        return r;
      }
      r.inspected_paths++;
      if (!sssp::combined_path_is_simple(r.from_source, r.to_target, s, v, t)) {
        non_simple++;
        continue;
      }
      sssp::Path p = sssp::combined_path(r.from_source, r.to_target, s, v, t);
      if (p.empty() || !distinct.insert(std::move(p)).second) {
        duplicates++;
        continue;
      }
      valid++;
      if (valid == opts.k) {
        b = dist[v];
        break;
      }
    }
    PEEK_COUNT_ADD("prune.inspected_paths", r.inspected_paths);
    PEEK_COUNT_ADD("prune.valid_paths", valid);
    PEEK_COUNT_ADD("prune.non_simple_paths", non_simple);
    PEEK_COUNT_ADD("prune.duplicate_paths", duplicates);
  }
  r.upper_bound = b;

  // Step 4: prune (lines 10-13). Unreachable vertices (dist == inf) always
  // go; with fewer than K estimated paths (b == inf) nothing else can.
  // Keep-side relative epsilon: vertices on the K-th path itself can sum
  // spSrc[v] + spTgt[v] an ulp above b, because that sum associates
  // differently than the walk that produced b — without slack the K-th path
  // loses a vertex and the result silently degrades to the (K+1)-th.
  // Under-pruning is sound (Theorem 4.3 bounds what may be deleted, not what
  // must be); this mirrors the tight-edge rule's slack below.
  const weight_t keep_slack = b == kInfDist ? 0 : b * 1e-12 + 1e-12;
  {
    PEEK_TIMER_SCOPE("prune.mark");
    std::atomic<vid_t> kept{0};
    auto keep_body = [&](vid_t v) {
      if (dist[v] != kInfDist && dist[v] <= b + keep_slack) {
        r.vertex_keep[v] = 1;
        kept.fetch_add(1, std::memory_order_relaxed);
      }
    };
    if (opts.parallel) par::parallel_for(vid_t{0}, n, keep_body);
    else for (vid_t v = 0; v < n; ++v) keep_body(v);
    r.kept_vertices = kept.load();
  }
  PEEK_COUNT_ADD("prune.kept_vertices", r.kept_vertices);
  PEEK_COUNT_ADD("prune.pruned_vertices", n - r.kept_vertices);
  if (n > 0) {
    PEEK_GAUGE_SET("prune.kept_vertex_ratio",
                   static_cast<double>(r.kept_vertices) / n);
  }

  if (b == kInfDist) {
    r.edge_keep = nullptr;  // keep all edges between kept vertices
  } else if (opts.tight_edge_prune) {
    auto src = std::make_shared<std::vector<weight_t>>(r.from_source.dist);
    auto tgt = std::make_shared<std::vector<weight_t>>(r.to_target.dist);
    // The K-th path's own edges can land an ulp above b because spSrc + w +
    // spTgt sums in a different order than the path walk that produced b;
    // a relative epsilon on the KEEP side is sound (it can only under-prune).
    const weight_t slack = b * 1e-12 + 1e-12;
    r.edge_keep = [src, tgt, b, slack](vid_t u, vid_t v, weight_t w) {
      if (w > b) return false;
      const weight_t a = (*src)[u], c = (*tgt)[v];
      return a != kInfDist && c != kInfDist && a + w + c <= b + slack;
    };
  } else {
    r.edge_keep = [b](vid_t, vid_t, weight_t w) { return w <= b; };
  }
  return r;
}

}  // namespace

PruneResult k_upper_bound_prune(const CsrGraph& g, vid_t s, vid_t t,
                                const PruneOptions& opts) {
  try {
    return prune_impl(g, s, t, opts);
  } catch (const std::bad_alloc&) {
    // Real or injected (fault::InjectedFault) allocation failure: surface as
    // a typed status instead of crashing the serving thread.
    PruneResult r;
    r.status = fault::Status::kResourceExhausted;
    return r;
  }
}

}  // namespace peek::core
