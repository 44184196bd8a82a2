#include "sssp/dijkstra.hpp"

#include "obs/metrics.hpp"
#include "sssp/heap.hpp"

namespace peek::sssp {

SsspResult dijkstra(const GraphView& view, vid_t source,
                    const DijkstraOptions& opts) {
  const vid_t n = view.num_vertices();
  SsspResult r;
  r.dist.assign(static_cast<size_t>(n), kInfDist);
  r.parent.assign(static_cast<size_t>(n), kNoVertex);
  if (source < 0 || source >= n) return r;
  if (!view.vertex_alive(source) || opts.bans.vertex_banned(source)) return r;

  // Hot loop: counts accumulate in locals, one sharded add on exit.
  std::int64_t settled = 0, relaxed = 0, improved = 0;
  fault::CancelPoll poll(opts.cancel);
  IndexedHeap heap(n);
  r.dist[source] = 0;
  heap.push_or_decrease(source, 0);
  while (!heap.empty()) {
    const auto [d, u] = heap.pop();
    if (poll.should_stop()) {
      r.status = poll.why();
      break;
    }
    settled++;
    if (u == opts.target) break;
    for (eid_t e = view.edge_begin(u); e < view.edge_end(u); ++e) {
      if (!view.edge_alive(e) || opts.bans.edge_banned(e)) continue;
      const vid_t v = view.edge_target(e);
      if (!view.vertex_alive(v) || opts.bans.vertex_banned(v)) continue;
      relaxed++;
      const weight_t nd = d + view.edge_weight(e);
      if (nd < r.dist[v]) {
        r.dist[v] = nd;
        r.parent[v] = u;
        heap.push_or_decrease(v, nd);
        improved++;
      }
    }
  }
  PEEK_COUNT_INC("sssp.dijkstra.runs");
  PEEK_COUNT_ADD("sssp.dijkstra.settled", settled);
  PEEK_COUNT_ADD("sssp.dijkstra.relaxed_edges", relaxed);
  PEEK_COUNT_ADD("sssp.dijkstra.improved", improved);
  return r;
}

SsspResult reverse_dijkstra(const CsrGraph& g, vid_t target,
                            const DijkstraOptions& opts) {
  GraphView rev(g.reverse());
  return dijkstra(rev, target, opts);
}

weight_t shortest_distance(const CsrGraph& g, vid_t s, vid_t t) {
  DijkstraOptions opts;
  opts.target = t;
  return dijkstra(GraphView(g), s, opts).dist[t];
}

}  // namespace peek::sssp
