#include "sssp/dijkstra.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <queue>
#include <random>
#include <string>
#include <utility>

#include "dyn/dynamic_graph.hpp"
#include "dyn/dynamic_sssp.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "sssp/heap.hpp"
#include "sssp/resumable_dijkstra.hpp"
#include "test_util.hpp"

namespace peek::sssp {
namespace {

using graph::from_edges;

TEST(Dijkstra, LineGraph) {
  auto g = from_edges(4, {{0, 1, 1.0}, {1, 2, 2.0}, {2, 3, 3.0}});
  auto r = dijkstra(GraphView(g), 0);
  EXPECT_DOUBLE_EQ(r.dist[0], 0.0);
  EXPECT_DOUBLE_EQ(r.dist[3], 6.0);
  EXPECT_EQ(r.parent[3], 2);
  EXPECT_EQ(r.parent[0], kNoVertex);
}

TEST(Dijkstra, PicksShorterOfTwoRoutes) {
  // 0 -> 1 -> 2 costs 2; direct 0 -> 2 costs 3.
  auto g = from_edges(3, {{0, 1, 1.0}, {1, 2, 1.0}, {0, 2, 3.0}});
  auto r = dijkstra(GraphView(g), 0);
  EXPECT_DOUBLE_EQ(r.dist[2], 2.0);
  EXPECT_EQ(r.parent[2], 1);
}

TEST(Dijkstra, UnreachableIsInf) {
  auto g = from_edges(3, {{0, 1, 1.0}});
  auto r = dijkstra(GraphView(g), 0);
  EXPECT_EQ(r.dist[2], kInfDist);
  EXPECT_EQ(r.parent[2], kNoVertex);
}

TEST(Dijkstra, EarlyExitSettlesTarget) {
  auto g = graph::grid(20, 20, {graph::WeightKind::kUniform01, 3});
  DijkstraOptions opts;
  opts.target = 399;
  auto early = dijkstra(GraphView(g), 0, opts);
  auto full = dijkstra(GraphView(g), 0);
  EXPECT_DOUBLE_EQ(early.dist[399], full.dist[399]);
}

TEST(Dijkstra, VertexBanReroutes) {
  // 0 -> 1 -> 3 (cost 2) vs 0 -> 2 -> 3 (cost 4); ban 1.
  auto g = from_edges(4, {{0, 1, 1.0}, {1, 3, 1.0}, {0, 2, 2.0}, {2, 3, 2.0}});
  std::vector<std::uint8_t> banned(4, 0);
  banned[1] = 1;
  DijkstraOptions opts;
  opts.bans.vertices = banned.data();
  auto r = dijkstra(GraphView(g), 0, opts);
  EXPECT_DOUBLE_EQ(r.dist[3], 4.0);
  EXPECT_EQ(r.dist[1], kInfDist);
}

TEST(Dijkstra, EdgeBanReroutes) {
  auto g = from_edges(3, {{0, 1, 1.0}, {1, 2, 1.0}, {0, 2, 5.0}});
  std::unordered_set<eid_t> banned{g.find_edge(1, 2)};
  DijkstraOptions opts;
  opts.bans.edges = &banned;
  auto r = dijkstra(GraphView(g), 0, opts);
  EXPECT_DOUBLE_EQ(r.dist[2], 5.0);
}

TEST(Dijkstra, BannedSourceYieldsNothing) {
  auto g = from_edges(2, {{0, 1, 1.0}});
  std::vector<std::uint8_t> banned{1, 0};
  DijkstraOptions opts;
  opts.bans.vertices = banned.data();
  auto r = dijkstra(GraphView(g), 0, opts);
  EXPECT_EQ(r.dist[0], kInfDist);
}

TEST(Dijkstra, InvalidSourceIsSafe) {
  auto g = from_edges(2, {{0, 1, 1.0}});
  auto r = dijkstra(GraphView(g), -1);
  EXPECT_EQ(r.dist[0], kInfDist);
  r = dijkstra(GraphView(g), 5);
  EXPECT_EQ(r.dist[0], kInfDist);
}

TEST(ReverseDijkstra, DistancesToTarget) {
  auto g = from_edges(3, {{0, 1, 1.5}, {1, 2, 2.5}});
  auto r = reverse_dijkstra(g, 2);
  EXPECT_DOUBLE_EQ(r.dist[0], 4.0);
  EXPECT_DOUBLE_EQ(r.dist[1], 2.5);
  // parent[v] = successor toward t.
  EXPECT_EQ(r.parent[0], 1);
  EXPECT_EQ(r.parent[1], 2);
}

TEST(ReverseDijkstra, PaperExampleSpTgt) {
  auto ex = test::paper_example_graph();
  auto r = reverse_dijkstra(ex.g, ex.t);
  // Distances to t read off Figure 3(c)'s role (with our weights):
  EXPECT_DOUBLE_EQ(r.dist[ex.id.at("s")], 11.0);
  EXPECT_DOUBLE_EQ(r.dist[ex.id.at("j")], 2.0);
  EXPECT_DOUBLE_EQ(r.dist[ex.id.at("l")], 4.0);
  EXPECT_DOUBLE_EQ(r.dist[ex.id.at("q")], 3.0);
  EXPECT_EQ(r.dist[ex.id.at("b")], kInfDist);  // b has no out-edges
  EXPECT_EQ(r.dist[ex.id.at("p")], kInfDist);
}

TEST(ShortestDistance, Convenience) {
  auto g = from_edges(3, {{0, 1, 1.0}, {1, 2, 1.0}});
  EXPECT_DOUBLE_EQ(shortest_distance(g, 0, 2), 2.0);
  EXPECT_EQ(shortest_distance(g, 2, 0), kInfDist);
}

TEST(Dijkstra, ParentsFormShortestPathTree) {
  auto g = test::random_graph(200, 1500, 21);
  auto r = dijkstra(GraphView(g), 0);
  for (vid_t v = 0; v < 200; ++v) {
    if (r.dist[v] == kInfDist || v == 0) continue;
    const vid_t p = r.parent[v];
    ASSERT_NE(p, kNoVertex);
    const eid_t e = g.find_edge(p, v);
    ASSERT_NE(e, kNoEdge);
    EXPECT_NEAR(r.dist[p] + g.edge_weight(e), r.dist[v], 1e-12);
  }
}

TEST(Dijkstra, TiesSettleInIdOrder) {
  // Two equal routes to 3: 0 -> 2 -> 3 and 0 -> 4 -> 1 -> 3. Vertex 2 is
  // queued at distance 1 before vertex 1 is, yet 1 settles first (lower id)
  // and becomes 3's parent.
  auto g = from_edges(5, {{0, 2, 1.0},
                          {0, 4, 0.5},
                          {4, 1, 0.5},
                          {1, 3, 1.0},
                          {2, 3, 1.0}});
  auto r = dijkstra(GraphView(g), 0);
  EXPECT_EQ(r.dist[1], r.dist[2]);
  EXPECT_EQ(r.dist[3], 2.0);
  EXPECT_EQ(r.parent[3], 1);
}

TEST(IndexedHeap, PopsInDistIdOrder) {
  // Small integer keys over few vertices: most pops break a tie.
  constexpr vid_t kN = 48;
  std::mt19937_64 rng(11);
  std::uniform_int_distribution<vid_t> vert(0, kN - 1);
  std::uniform_int_distribution<int> key(0, 12);
  auto order = [](const std::pair<vid_t, weight_t>& a,
                  const std::pair<vid_t, weight_t>& b) {
    return std::make_pair(a.second, a.first) <
           std::make_pair(b.second, b.first);
  };
  for (int round = 0; round < 40; ++round) {
    IndexedHeap heap(kN);
    std::map<vid_t, weight_t> queued;  // reference: vertex -> key
    for (int op = 0; op < 300; ++op) {
      if (rng() % 3 != 0) {
        const vid_t v = vert(rng);
        weight_t d = key(rng);
        const auto it = queued.find(v);
        if (it != queued.end()) d = std::min(d, it->second);  // decrease only
        heap.push_or_decrease(v, d);
        queued[v] = d;
      } else if (!queued.empty()) {
        const auto want = std::min_element(queued.begin(), queued.end(), order);
        const IndexedHeap::Entry got = heap.pop();
        ASSERT_EQ(got.v, want->first) << "round " << round << " op " << op;
        ASSERT_EQ(got.dist, want->second);
        queued.erase(want);
      }
      ASSERT_EQ(heap.empty(), queued.empty());
    }
    // Draining pops the rest in sorted (dist, id) order.
    std::vector<std::pair<weight_t, vid_t>> rest;
    for (const auto& [v, d] : queued) rest.emplace_back(d, v);
    std::sort(rest.begin(), rest.end());
    for (const auto& [d, v] : rest) {
      ASSERT_FALSE(heap.empty());
      const IndexedHeap::Entry got = heap.pop();
      ASSERT_EQ(got.v, v);
      ASSERT_EQ(got.dist, d);
    }
    EXPECT_TRUE(heap.empty());
  }
}

// Lazy-deletion reference: one heap entry per improvement, stale entries
// skipped on pop.
std::vector<weight_t> lazy_heap_distances(const graph::CsrGraph& g,
                                          vid_t source) {
  using Entry = std::pair<weight_t, vid_t>;
  std::vector<weight_t> dist(static_cast<size_t>(g.num_vertices()), kInfDist);
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap;
  dist[source] = 0;
  heap.push({0, source});
  while (!heap.empty()) {
    const auto [d, u] = heap.top();
    heap.pop();
    if (d > dist[u]) continue;
    for (eid_t e = g.edge_begin(u); e < g.edge_end(u); ++e) {
      const vid_t v = g.edge_target(e);
      const weight_t nd = d + g.edge_weight(e);
      if (nd < dist[v]) {
        dist[v] = nd;
        heap.push({nd, v});
      }
    }
  }
  return dist;
}

// n vertices, m random edges with integer weights in {1, 2, 3}: many equal
// distances and equal-length routes.
graph::CsrGraph small_int_graph(vid_t n, int m, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<vid_t> vert(0, n - 1);
  std::uniform_int_distribution<int> weight(1, 3);
  graph::Builder b(n);
  for (int i = 0; i < m; ++i) {
    const vid_t u = vert(rng);
    const vid_t v = vert(rng);
    if (u != v) b.add_edge(u, v, static_cast<weight_t>(weight(rng)));
  }
  return b.build();
}

TEST(DijkstraVariants, AgreeBitForBitOnSeededGraphs) {
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    const std::vector<std::pair<std::string, graph::CsrGraph>> graphs = {
        {"uniform", test::random_graph(300, 1800, seed)},
        {"unit", test::random_graph(300, 1800, seed, /*unit_weights=*/true)},
        {"w123", small_int_graph(300, 1800, seed)},
        {"grid-unit", graph::grid(15, 20, {graph::WeightKind::kUnit, seed})},
    };
    for (const auto& [name, g] : graphs) {
      const dyn::DynamicGraph dg(g);
      for (vid_t src : {vid_t{0}, vid_t{57}, vid_t{299}}) {
        SCOPED_TRACE(name + " seed " + std::to_string(seed) + " src " +
                     std::to_string(src));
        const GraphView view(g);
        const SsspResult plain = dijkstra(view, src);
        ResumableDijkstra rd(view, src);
        rd.run_to_completion();
        const SsspResult dynamic = dyn::dynamic_dijkstra(dg, src);
        EXPECT_EQ(rd.distances(), plain.dist);
        EXPECT_EQ(rd.parents(), plain.parent);
        EXPECT_EQ(dynamic.dist, plain.dist);
        EXPECT_EQ(dynamic.parent, plain.parent);
        EXPECT_EQ(lazy_heap_distances(g, src), plain.dist);
      }
    }
  }
}

}  // namespace
}  // namespace peek::sssp
