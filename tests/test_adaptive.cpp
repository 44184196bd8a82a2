#include "compact/adaptive.hpp"

#include <gtest/gtest.h>

#include "sssp/dijkstra.hpp"
#include "test_util.hpp"

namespace peek::compact {
namespace {

TEST(ChooseStrategy, ThresholdRule) {
  // m_r < alpha * m -> regeneration (§5.4).
  EXPECT_EQ(choose_strategy(10, 1000, 0.5), Strategy::kRegeneration);
  EXPECT_EQ(choose_strategy(600, 1000, 0.5), Strategy::kEdgeSwap);
  EXPECT_EQ(choose_strategy(500, 1000, 0.5), Strategy::kEdgeSwap);  // not <
  EXPECT_EQ(choose_strategy(599, 1000, 0.6), Strategy::kRegeneration);
}

TEST(ChooseStrategy, AlphaExtremes) {
  EXPECT_EQ(choose_strategy(1, 1000, 0.0), Strategy::kEdgeSwap);
  EXPECT_EQ(choose_strategy(999, 1000, 1.0), Strategy::kRegeneration);
}

TEST(ToString, Names) {
  EXPECT_STREQ(to_string(Strategy::kEdgeSwap), "edge-swap");
  EXPECT_STREQ(to_string(Strategy::kRegeneration), "regeneration");
  EXPECT_STREQ(to_string(Strategy::kStatusArray), "status-array");
}

TEST(CountRemainingEdges, MatchesManualCount) {
  auto g = test::random_graph(60, 480, 91);
  std::vector<std::uint8_t> keep(60, 1);
  for (vid_t v = 0; v < 60; v += 4) keep[v] = 0;
  auto pred = [](vid_t, vid_t, weight_t w) { return w <= 0.5; };
  eid_t manual = 0;
  for (vid_t u = 0; u < 60; ++u) {
    if (!keep[u]) continue;
    for (eid_t e = g.edge_begin(u); e < g.edge_end(u); ++e)
      if (keep[g.edge_target(e)] && g.edge_weight(e) <= 0.5) manual++;
  }
  EXPECT_EQ(count_remaining_edges(sssp::GraphView(g), keep.data(), pred),
            manual);
  EXPECT_EQ(count_remaining_edges(sssp::GraphView(g), keep.data(), pred,
                                  /*parallel=*/false),
            manual);
}

/// The pipeline's kAdaptive step (core::peek_with_algorithm): count m_r,
/// apply the §5.4 rule, then compact with the chosen strategy.
struct Adaptive {
  Strategy strategy = Strategy::kEdgeSwap;
  eid_t remaining_edges = 0;
  RegeneratedGraph regenerated;  // strategy == kRegeneration
};

Adaptive adaptive(MutableCsr& g, eid_t m_original,
                  const std::uint8_t* vertex_keep, double alpha = 0.5) {
  Adaptive r;
  r.remaining_edges = count_remaining_edges(g.view(), vertex_keep);
  r.strategy = choose_strategy(r.remaining_edges, m_original, alpha);
  if (r.strategy == Strategy::kRegeneration) {
    r.regenerated = regenerate(g.view(), vertex_keep);
  } else {
    edge_swap_compact(g, vertex_keep);
  }
  return r;
}

TEST(AdaptiveCompact, SmallRemainderRegenerates) {
  auto g = test::random_graph(200, 2000, 93);
  MutableCsr mc(g);
  std::vector<std::uint8_t> keep(200, 0);
  for (vid_t v = 0; v < 10; ++v) keep[v] = 1;  // keep 5% of vertices
  auto result = adaptive(mc, g.num_edges(), keep.data());
  EXPECT_EQ(result.strategy, Strategy::kRegeneration);
  EXPECT_EQ(result.regenerated.graph.num_vertices(), 10);
  EXPECT_EQ(result.regenerated.graph.num_edges(), result.remaining_edges);
}

TEST(AdaptiveCompact, LargeRemainderEdgeSwaps) {
  auto g = test::random_graph(200, 2000, 95);
  MutableCsr mc(g);
  std::vector<std::uint8_t> keep(200, 1);
  keep[0] = 0;  // delete almost nothing
  auto result = adaptive(mc, g.num_edges(), keep.data());
  EXPECT_EQ(result.strategy, Strategy::kEdgeSwap);
  // The swapped view exposes the surviving graph.
  EXPECT_FALSE(mc.view().vertex_alive(0));
  EXPECT_EQ(mc.view().count_alive_edges(), result.remaining_edges);
}

TEST(AdaptiveCompact, BothStrategiesYieldSameSssp) {
  auto g = test::random_graph(150, 1500, 97);
  std::vector<std::uint8_t> keep(150, 1);
  for (vid_t v = 100; v < 150; ++v) keep[v] = 0;
  keep[0] = keep[1] = 1;

  MutableCsr swap_g(g);
  // alpha = 0: never regenerate.
  auto swapped = adaptive(swap_g, g.num_edges(), keep.data(), 0.0);
  ASSERT_EQ(swapped.strategy, Strategy::kEdgeSwap);

  MutableCsr regen_g(g);
  // alpha = 1: always regenerate.
  auto regen = adaptive(regen_g, g.num_edges(), keep.data(), 1.0);
  ASSERT_EQ(regen.strategy, Strategy::kRegeneration);

  auto a = sssp::dijkstra(swap_g.view(), 0);
  auto b = sssp::dijkstra(sssp::GraphView(regen.regenerated.graph),
                          regen.regenerated.map.to_new(0));
  for (vid_t v = 0; v < 150; ++v) {
    if (!keep[v]) continue;
    const vid_t nv = regen.regenerated.map.to_new(v);
    if (a.dist[v] == kInfDist) EXPECT_EQ(b.dist[nv], kInfDist) << v;
    else EXPECT_NEAR(a.dist[v], b.dist[nv], 1e-9) << v;
  }
}

}  // namespace
}  // namespace peek::compact
