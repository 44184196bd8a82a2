#include "dyn/dynamic_sssp.hpp"

#include "sssp/heap.hpp"

namespace peek::dyn {

sssp::SsspResult dynamic_dijkstra(const DynamicGraph& g, vid_t source,
                                  vid_t target) {
  const vid_t n = g.num_vertices();
  sssp::SsspResult r;
  r.dist.assign(static_cast<size_t>(n), kInfDist);
  r.parent.assign(static_cast<size_t>(n), kNoVertex);
  if (source < 0 || source >= n || !g.vertex_alive(source)) return r;

  sssp::IndexedHeap heap(n);
  r.dist[source] = 0;
  heap.push_or_decrease(source, 0);
  while (!heap.empty()) {
    const auto [d, u] = heap.pop();
    if (u == target) break;
    g.for_each_neighbor(u, [&](vid_t v, weight_t w) {
      const weight_t nd = d + w;
      if (nd < r.dist[v]) {
        r.dist[v] = nd;
        r.parent[v] = u;
        heap.push_or_decrease(v, nd);
      }
    });
  }
  return r;
}

}  // namespace peek::dyn
