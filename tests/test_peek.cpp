#include "core/peek.hpp"

#include <gtest/gtest.h>

#include "ksp/bruteforce.hpp"
#include "ksp/sidetrack.hpp"
#include "ksp/yen.hpp"
#include "test_util.hpp"

namespace peek::core {
namespace {

PeekOptions p_opts(int k) {
  PeekOptions o;
  o.k = k;
  return o;
}

TEST(Peek, PaperExampleEndToEnd) {
  auto ex = test::paper_example_graph();
  auto r = peek_ksp(ex.g, ex.s, ex.t, p_opts(3));
  ASSERT_EQ(r.ksp.paths.size(), 3u);
  EXPECT_DOUBLE_EQ(r.ksp.paths[0].dist, 11.0);
  EXPECT_DOUBLE_EQ(r.ksp.paths[1].dist, 12.0);
  EXPECT_DOUBLE_EQ(r.ksp.paths[2].dist, 14.0);
  EXPECT_DOUBLE_EQ(r.upper_bound, 14.0);
  EXPECT_EQ(r.kept_vertices, 7);
  test::check_ksp_invariants(ex.g, ex.s, ex.t, r.ksp.paths);
}

TEST(Peek, ResultsInOriginalIdsAfterRegeneration) {
  auto ex = test::paper_example_graph();
  PeekOptions opts = p_opts(3);
  opts.compaction = PeekOptions::Compaction::kRegeneration;
  auto r = peek_ksp(ex.g, ex.s, ex.t, opts);
  ASSERT_EQ(r.ksp.paths.size(), 3u);
  EXPECT_EQ(r.strategy_used, compact::Strategy::kRegeneration);
  // Paths must reference the ORIGINAL ids (s == 14 in alphabet order).
  EXPECT_EQ(r.ksp.paths[0].verts.front(), ex.s);
  EXPECT_EQ(r.ksp.paths[0].verts.back(), ex.t);
  test::check_ksp_invariants(ex.g, ex.s, ex.t, r.ksp.paths);
}

TEST(Peek, AdaptiveSelectsRegenerationWhenPruningBites) {
  // Heavy pruning on a big sparse graph -> m_r << alpha * m.
  auto g = graph::rmat(11, 8);
  auto r = peek_ksp(g, 1, 1000, p_opts(4));
  if (r.ksp.paths.empty()) GTEST_SKIP() << "unreachable pair";
  EXPECT_EQ(r.strategy_used, compact::Strategy::kRegeneration);
}

TEST(Peek, AdaptiveSelectsEdgeSwapWhenLittlePruned) {
  // On a tiny dense clique every vertex lies on some short path; the
  // remaining ratio is high, so edge-swap wins.
  auto g = graph::complete(12, {graph::WeightKind::kUnit, 1});
  PeekOptions opts = p_opts(32);
  opts.alpha = 0.2;
  auto r = peek_ksp(g, 0, 11, opts);
  EXPECT_EQ(r.strategy_used, compact::Strategy::kEdgeSwap);
  EXPECT_EQ(r.ksp.paths.size(), 32u);
}

TEST(Peek, AllCompactionModesAgree) {
  // One graph on each side of alpha: the random graph prunes hard
  // (regeneration), the unit clique keeps most edges (edge-swap).
  struct Case {
    graph::CsrGraph g;
    vid_t t;
    int k;
    compact::Strategy adaptive_pick;
  };
  const Case cases[] = {
      {test::random_graph(200, 1600, 301), 100, 8,
       compact::Strategy::kRegeneration},
      {graph::complete(12, {graph::WeightKind::kUnit, 1}), 11, 32,
       compact::Strategy::kEdgeSwap},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(compact::to_string(c.adaptive_pick));
    std::vector<PeekResult> results;
    for (auto mode : {PeekOptions::Compaction::kAdaptive,
                      PeekOptions::Compaction::kEdgeSwap,
                      PeekOptions::Compaction::kRegeneration,
                      PeekOptions::Compaction::kStatusArray}) {
      PeekOptions opts = p_opts(c.k);
      opts.compaction = mode;
      results.push_back(peek_ksp(c.g, 0, c.t, opts));
    }
    for (size_t i = 1; i < results.size(); ++i)
      test::expect_same_distances(results[0].ksp.paths, results[i].ksp.paths);

    // kAdaptive is its pick run explicitly: same strategy, same edge count.
    const PeekResult& adaptive = results[0];
    const PeekResult& picked =
        c.adaptive_pick == compact::Strategy::kRegeneration ? results[2]
                                                            : results[1];
    EXPECT_EQ(adaptive.strategy_used, c.adaptive_pick);
    EXPECT_EQ(picked.strategy_used, c.adaptive_pick);
    EXPECT_EQ(adaptive.kept_edges, picked.kept_edges);
    EXPECT_EQ(adaptive.kept_vertices, picked.kept_vertices);
  }
}

TEST(Peek, PruneOffMatchesPruneOn) {
  // The Figure 8 "Base" configuration must return identical paths.
  auto g = test::random_graph(150, 1200, 303);
  PeekOptions on = p_opts(8);
  PeekOptions off = p_opts(8);
  off.prune = false;
  auto a = peek_ksp(g, 0, 75, on);
  auto b = peek_ksp(g, 0, 75, off);
  test::expect_same_distances(a.ksp.paths, b.ksp.paths);
}

TEST(Peek, TheoremFourThree) {
  // KSP on pruned graph == KSP on original graph, across seeds and K.
  for (std::uint64_t seed : {311u, 312u, 313u, 314u, 315u}) {
    auto g = test::random_graph(32, 90, seed);
    auto oracle = ksp::bruteforce_ksp(g, 0, 16, 10);
    auto mine = peek_ksp(g, 0, 16, p_opts(10));
    test::expect_same_distances(oracle.paths, mine.ksp.paths);
  }
}

TEST(Peek, UnreachablePairGivesEmpty) {
  auto g = graph::from_edges(4, {{1, 0, 1.0}, {2, 3, 1.0}});
  auto r = peek_ksp(g, 0, 3, p_opts(4));
  EXPECT_TRUE(r.ksp.paths.empty());
  EXPECT_EQ(r.kept_vertices, 0);
}

TEST(Peek, TimingsPopulated) {
  auto g = test::random_graph(200, 1600, 317);
  auto r = peek_ksp(g, 0, 100, p_opts(8));
  EXPECT_GT(r.prune_seconds, 0.0);
  EXPECT_GE(r.compact_seconds, 0.0);
  EXPECT_GE(r.total_seconds(), r.prune_seconds);
}

TEST(Peek, ParallelMatchesSerial) {
  auto g = test::random_graph(200, 1600, 319);
  PeekOptions par = p_opts(8);
  par.parallel = true;
  auto a = peek_ksp(g, 0, 100, p_opts(8));
  auto b = peek_ksp(g, 0, 100, par);
  test::expect_same_distances(a.ksp.paths, b.ksp.paths);
}

TEST(Peek, TightEdgePrunePreservesAnswers) {
  for (std::uint64_t seed : {321u, 322u, 323u}) {
    auto g = test::random_graph(64, 512, seed);
    PeekOptions tight = p_opts(8);
    tight.tight_edge_prune = true;
    auto a = peek_ksp(g, 0, 32, p_opts(8));
    auto b = peek_ksp(g, 0, 32, tight);
    test::expect_same_distances(a.ksp.paths, b.ksp.paths);
  }
}

TEST(PeekWithAlgorithm, BoostsYenAndSb) {
  // §1.3 novelty (iii): K upper bound pruning as a preprocessing step for
  // other KSP algorithms.
  auto g = test::random_graph(100, 800, 331);
  ksp::KspOptions ko;
  ko.k = 8;
  auto plain = ksp::yen_ksp(g, 0, 50, ko);
  auto pre_yen = peek_with_algorithm(
      g, 0, 50, p_opts(8), [&](const sssp::BiView& v, vid_t s, vid_t t) {
        return ksp::yen_ksp(v, s, t, ko);
      });
  test::expect_same_distances(plain.paths, pre_yen.ksp.paths);

  ksp::SidetrackOptions so;
  so.base = ko;
  auto pre_sb = peek_with_algorithm(
      g, 0, 50, p_opts(8), [&](const sssp::BiView& v, vid_t s, vid_t t) {
        return ksp::sb_ksp(v, s, t, so);
      });
  test::expect_same_distances(plain.paths, pre_sb.ksp.paths);
}

}  // namespace
}  // namespace peek::core
