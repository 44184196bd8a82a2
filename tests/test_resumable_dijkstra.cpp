#include "sssp/resumable_dijkstra.hpp"

#include <gtest/gtest.h>

#include "graph/generators.hpp"
#include "test_util.hpp"

namespace peek::sssp {
namespace {

TEST(ResumableDijkstra, FullRunMatchesDijkstra) {
  auto g = test::random_graph(150, 900, 31);
  GraphView view(g);
  ResumableDijkstra rd(view, 0);
  rd.run_to_completion();
  auto ref = dijkstra(view, 0);
  for (vid_t v = 0; v < 150; ++v) {
    if (ref.dist[v] == kInfDist) EXPECT_EQ(rd.dist(v), kInfDist);
    else EXPECT_NEAR(rd.dist(v), ref.dist[v], 1e-9);
  }
}

TEST(ResumableDijkstra, EnsureSettledIsIncremental) {
  auto g = graph::path(10, {graph::WeightKind::kUnit, 1});
  GraphView view(g);
  ResumableDijkstra rd(view, 0);
  EXPECT_FALSE(rd.settled(5));
  EXPECT_DOUBLE_EQ(rd.ensure_settled(5), 5.0);
  EXPECT_TRUE(rd.settled(5));
  // Settling stops at 5: later vertices are not settled yet.
  EXPECT_FALSE(rd.settled(8));
  EXPECT_DOUBLE_EQ(rd.ensure_settled(9), 9.0);
}

TEST(ResumableDijkstra, EnsureSettledOnUnreachableDrainsHeap) {
  auto g = graph::from_edges(3, {{0, 1, 1.0}});
  GraphView view(g);
  ResumableDijkstra rd(view, 0);
  EXPECT_EQ(rd.ensure_settled(2), kInfDist);
}

TEST(ResumableDijkstra, RepairSeededMatchesFreshWithBans) {
  // The SB* trick: recompute with one more banned vertex by repairing the
  // old tree. Must agree exactly with a from-scratch banned Dijkstra.
  auto g = test::random_graph(120, 960, 37);
  GraphView view(g);
  auto base = dijkstra(view, 0);
  for (vid_t banned_v = 1; banned_v < 20; ++banned_v) {
    std::vector<std::uint8_t> mask(120, 0);
    mask[banned_v] = 1;
    Bans bans{mask.data(), nullptr};
    ResumableDijkstra repaired(view, 0, base, bans);
    repaired.run_to_completion();
    DijkstraOptions opts;
    opts.bans = bans;
    auto fresh = dijkstra(view, 0, opts);
    for (vid_t v = 0; v < 120; ++v) {
      if (fresh.dist[v] == kInfDist) {
        EXPECT_EQ(repaired.dist(v), kInfDist) << "ban " << banned_v << " v " << v;
      } else {
        EXPECT_NEAR(repaired.dist(v), fresh.dist[v], 1e-9)
            << "ban " << banned_v << " v " << v;
      }
    }
  }
}

TEST(ResumableDijkstra, RepairWithGrowingBanSet) {
  // Chain of repairs mirroring SB*'s prefix growth.
  auto g = test::random_graph(100, 700, 41);
  GraphView view(g);
  std::vector<std::uint8_t> mask(100, 0);
  SsspResult current = dijkstra(view, 0);
  for (vid_t v = 1; v <= 6; ++v) {
    mask[v] = 1;
    Bans bans{mask.data(), nullptr};
    ResumableDijkstra repaired(view, 0, current, bans);
    repaired.run_to_completion();
    current = repaired.snapshot();
    DijkstraOptions opts;
    opts.bans = bans;
    auto fresh = dijkstra(view, 0, opts);
    for (vid_t u = 0; u < 100; ++u) {
      if (fresh.dist[u] == kInfDist) EXPECT_EQ(current.dist[u], kInfDist);
      else EXPECT_NEAR(current.dist[u], fresh.dist[u], 1e-9);
    }
  }
}

TEST(ResumableDijkstra, BannedSourceProducesEmptyResult) {
  auto g = graph::from_edges(2, {{0, 1, 1.0}});
  GraphView view(g);
  std::vector<std::uint8_t> mask{1, 0};
  ResumableDijkstra rd(view, 0, Bans{mask.data(), nullptr});
  rd.run_to_completion();
  EXPECT_EQ(rd.dist(0), kInfDist);
  EXPECT_EQ(rd.dist(1), kInfDist);
}

}  // namespace
}  // namespace peek::sssp
