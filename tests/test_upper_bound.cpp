#include "core/upper_bound.hpp"

#include <gtest/gtest.h>

#include <random>
#include <string>

#include "graph/builder.hpp"
#include "ksp/bruteforce.hpp"
#include "sssp/dijkstra.hpp"
#include "test_util.hpp"

namespace peek::core {
namespace {

TEST(UpperBound, PaperExampleBoundAndKeepSet) {
  // Figure 3: K = 3 gives b = 14 and keeps exactly {s, g, l, f, j, q, t}.
  auto ex = test::paper_example_graph();
  PruneOptions opts;
  opts.k = 3;
  auto r = k_upper_bound_prune(ex.g, ex.s, ex.t, opts);
  EXPECT_DOUBLE_EQ(r.upper_bound, 14.0);
  EXPECT_EQ(r.kept_vertices, 7);
  for (const char* name : {"s", "g", "l", "f", "j", "q", "t"})
    EXPECT_TRUE(r.vertex_keep[ex.id.at(name)]) << name;
  for (const char* name : {"a", "b", "c", "d", "e", "i", "o", "p", "r"})
    EXPECT_FALSE(r.vertex_keep[ex.id.at(name)]) << name;
}

TEST(UpperBound, BoundIsSound) {
  // b must be >= the true K-th shortest path distance (Lemma 4.2's premise).
  for (std::uint64_t seed : {201u, 202u, 203u, 204u}) {
    auto g = test::random_graph(32, 96, seed);
    auto oracle = ksp::bruteforce_ksp(g, 0, 16, 8);
    if (oracle.paths.size() < 8) continue;
    PruneOptions opts;
    opts.k = 8;
    auto r = k_upper_bound_prune(g, 0, 16, opts);
    EXPECT_GE(r.upper_bound + 1e-12, oracle.paths.back().dist) << seed;
  }
}

TEST(UpperBound, KeepsEveryKspVertex) {
  // Theorem 4.3's precondition: no vertex of any of the K shortest paths may
  // be pruned.
  for (std::uint64_t seed : {211u, 212u, 213u}) {
    auto g = test::random_graph(32, 96, seed);
    auto oracle = ksp::bruteforce_ksp(g, 0, 16, 8);
    if (oracle.paths.empty()) continue;
    PruneOptions opts;
    opts.k = 8;
    auto r = k_upper_bound_prune(g, 0, 16, opts);
    for (const auto& p : oracle.paths)
      for (vid_t v : p.verts) EXPECT_TRUE(r.vertex_keep[v]) << "seed " << seed;
  }
}

TEST(UpperBound, UnreachableTargetPrunesEverything) {
  auto g = graph::from_edges(3, {{1, 0, 1.0}});
  auto r = k_upper_bound_prune(g, 0, 2, {});
  EXPECT_EQ(r.kept_vertices, 0);
  EXPECT_EQ(r.upper_bound, kInfDist);
}

TEST(UpperBound, FewerPathsThanKKeepsAllReachable) {
  // Only one simple path exists; with K = 5 the bound must fall back to inf
  // and keep every s-t-reachable vertex.
  auto g = graph::path(6, {graph::WeightKind::kUnit, 1});
  PruneOptions opts;
  opts.k = 5;
  auto r = k_upper_bound_prune(g, 0, 5, opts);
  EXPECT_EQ(r.upper_bound, kInfDist);
  EXPECT_EQ(r.kept_vertices, 6);
}

TEST(UpperBound, SourceAndTargetAlwaysKept) {
  for (std::uint64_t seed : {221u, 222u}) {
    auto g = test::random_graph(64, 512, seed);
    PruneOptions opts;
    opts.k = 2;
    auto r = k_upper_bound_prune(g, 0, 32, opts);
    if (r.kept_vertices == 0) continue;  // unreachable pair
    EXPECT_TRUE(r.vertex_keep[0]);
    EXPECT_TRUE(r.vertex_keep[32]);
  }
}

TEST(UpperBound, ParallelMatchesSerial) {
  auto g = test::random_graph(300, 2400, 231);
  PruneOptions ser;
  ser.k = 8;
  PruneOptions par = ser;
  par.parallel = true;
  auto a = k_upper_bound_prune(g, 0, 150, ser);
  auto b = k_upper_bound_prune(g, 0, 150, par);
  EXPECT_EQ(a.kept_vertices, b.kept_vertices);
  EXPECT_NEAR(a.upper_bound, b.upper_bound, 1e-9);
  EXPECT_EQ(a.vertex_keep, b.vertex_keep);
}

TEST(UpperBound, LargerKKeepsMore) {
  auto g = test::random_graph(200, 1600, 233);
  PruneOptions small;
  small.k = 2;
  PruneOptions large;
  large.k = 64;
  auto a = k_upper_bound_prune(g, 0, 100, small);
  auto b = k_upper_bound_prune(g, 0, 100, large);
  EXPECT_LE(a.kept_vertices, b.kept_vertices);
  EXPECT_LE(a.upper_bound, b.upper_bound);
}

TEST(UpperBound, EdgeKeepPaperRule) {
  // Paper rule (line 13): only the weight matters.
  auto ex = test::paper_example_graph();
  PruneOptions opts;
  opts.k = 3;
  auto r = k_upper_bound_prune(ex.g, ex.s, ex.t, opts);
  ASSERT_TRUE(static_cast<bool>(r.edge_keep));
  EXPECT_TRUE(r.edge_keep(0, 1, 14.0));
  EXPECT_FALSE(r.edge_keep(0, 1, 14.5));
}

TEST(UpperBound, TightEdgePruneIsStrongerButStillSound) {
  for (std::uint64_t seed : {241u, 242u}) {
    auto g = test::random_graph(32, 96, seed);
    auto oracle = ksp::bruteforce_ksp(g, 0, 16, 6);
    if (oracle.paths.size() < 6) continue;
    PruneOptions opts;
    opts.k = 6;
    opts.tight_edge_prune = true;
    auto r = k_upper_bound_prune(g, 0, 16, opts);
    // Soundness: every edge on every oracle path survives the tight rule.
    for (const auto& p : oracle.paths) {
      for (size_t i = 0; i + 1 < p.verts.size(); ++i) {
        const eid_t e = g.find_edge(p.verts[i], p.verts[i + 1]);
        EXPECT_TRUE(r.edge_keep(p.verts[i], p.verts[i + 1], g.edge_weight(e)))
            << "seed " << seed;
      }
    }
  }
}

TEST(UpperBound, PruningPowerIsHighOnBigGraphs) {
  // The paper's headline: ~98% of vertices pruned. On a 2^12-vertex R-MAT we
  // should see well over half the graph vanish for K = 8.
  auto g = graph::rmat(12, 8);
  PruneOptions opts;
  opts.k = 8;
  auto r = k_upper_bound_prune(g, 1, 2000, opts);
  if (r.kept_vertices == 0) GTEST_SKIP() << "unreachable pair";
  EXPECT_LT(r.kept_vertices, g.num_vertices() / 2);
}

// -- Bounded search vs full trees --------------------------------------------
//
// The serial prune settles only V_B (DESIGN.md §4.3). Fed full Dijkstra trees
// through reuse_*, the same prune walks every vertex. The two must agree bit
// for bit on b, the walk and the keep mask.

enum class Weights { kUniform, kUnit, kInt123 };

/// `g`'s edges with new weights: uniform in (0, 1], all 1, or integers in
/// {1, 2, 3} (tie-heavy: many paths share a length).
graph::CsrGraph reweight(const graph::CsrGraph& g, Weights kind,
                         std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> unit01(0.0, 1.0);
  std::uniform_int_distribution<int> int123(1, 3);
  graph::Builder b(g.num_vertices());
  for (vid_t u = 0; u < g.num_vertices(); ++u) {
    for (eid_t e = g.edge_begin(u); e < g.edge_end(u); ++e) {
      weight_t w = 1;
      if (kind == Weights::kUniform) w = 1.0 - unit01(rng);
      if (kind == Weights::kInt123) w = static_cast<weight_t>(int123(rng));
      b.add_edge(u, g.edge_target(e), w);
    }
  }
  return b.build();
}

/// The oracle grid's families (test_ksp_agreement.cpp), plus a power-law
/// degree graph; the weights are replaced by reweight().
graph::CsrGraph family(const std::string& kind, std::uint64_t seed) {
  if (kind == "er") return graph::erdos_renyi(32, 96, {}, seed);
  if (kind == "dag") return graph::layered_dag(4, 4, 3, {}, seed);
  if (kind == "grid") return graph::grid(4, 5, {}, seed);
  if (kind == "sw") return graph::small_world(28, 3, 0.2, {}, seed);
  if (kind == "clique") return graph::complete(9, {}, seed);
  if (kind == "pl") return graph::preferential_attachment(40, 3, {}, seed);
  return graph::erdos_renyi(16, 56, {}, seed);  // "tie", with kInt123
}

/// Runs the bounded prune and the full-tree prune on (s, t) and checks that
/// they agree. Returns the bounded result.
PruneResult expect_bounded_matches_full(const graph::CsrGraph& g, vid_t s,
                                        vid_t t, int k, bool tight) {
  PruneOptions opts;
  opts.k = k;
  opts.tight_edge_prune = tight;
  PruneResult bounded = k_upper_bound_prune(g, s, t, opts);
  const auto fwd = sssp::dijkstra(sssp::GraphView(g), s);
  const auto rev = sssp::reverse_dijkstra(g, t);
  opts.reuse_from_source = &fwd;
  opts.reuse_to_target = &rev;
  const PruneResult full = k_upper_bound_prune(g, s, t, opts);

  EXPECT_EQ(bounded.status, fault::Status::kOk);
  EXPECT_EQ(full.status, fault::Status::kOk);
  EXPECT_EQ(bounded.upper_bound, full.upper_bound);  // exact, not near
  EXPECT_EQ(bounded.inspected_paths, full.inspected_paths);
  EXPECT_EQ(bounded.kept_vertices, full.kept_vertices);
  EXPECT_EQ(bounded.vertex_keep, full.vertex_keep);
  // The supplied trees are read in place, not copied.
  EXPECT_TRUE(full.from_source.dist.empty());
  EXPECT_TRUE(full.to_target.dist.empty());

  const vid_t n = g.num_vertices();
  EXPECT_EQ(bounded.from_source.dist.size(), static_cast<size_t>(n));
  EXPECT_EQ(bounded.to_target.dist.size(), static_cast<size_t>(n));
  for (vid_t v = 0; v < n && !::testing::Test::HasFailure(); ++v) {
    // Kept vertices carry exact trees; any other vertex is exact or blank.
    const bool kept = bounded.vertex_keep[v] != 0;
    for (const auto& [part, ref] :
         {std::pair{&bounded.from_source, &fwd},
          std::pair{&bounded.to_target, &rev}}) {
      if (!kept && part->dist[v] == kInfDist) {
        EXPECT_EQ(part->parent[v], kNoVertex) << "v=" << v;
        continue;
      }
      EXPECT_EQ(part->dist[v], ref->dist[v]) << "v=" << v;
      EXPECT_EQ(part->parent[v], ref->parent[v]) << "v=" << v;
    }
  }
  EXPECT_EQ(static_cast<bool>(bounded.edge_keep),
            static_cast<bool>(full.edge_keep));
  if (bounded.edge_keep && full.edge_keep) {
    for (vid_t u = 0; u < n; ++u) {
      if (!bounded.vertex_keep[u]) continue;
      for (eid_t e = g.edge_begin(u); e < g.edge_end(u); ++e) {
        const vid_t v = g.edge_target(e);
        if (!bounded.vertex_keep[v]) continue;
        EXPECT_EQ(bounded.edge_keep(u, v, g.edge_weight(e)),
                  full.edge_keep(u, v, g.edge_weight(e)))
            << u << "->" << v;
      }
    }
  }
  return bounded;
}

TEST(BoundedPrune, MatchesFullTreesOnOracleFamilies) {
  const std::pair<Weights, const char*> weightings[] = {
      {Weights::kUniform, "uniform"},
      {Weights::kUnit, "unit"},
      {Weights::kInt123, "int123"}};
  for (const char* kind : {"er", "dag", "grid", "sw", "clique", "pl", "tie"}) {
    for (const auto& [weights, wname] : weightings) {
      if (std::string(kind) == "tie" && weights != Weights::kInt123) continue;
      for (std::uint64_t seed : {1u, 2u, 3u}) {
        const auto g = reweight(family(kind, seed), weights, seed + 500);
        const vid_t t = g.num_vertices() - 1;
        for (int k : {1, 3, 8, 32, 128}) {
          for (bool tight : {false, true}) {
            SCOPED_TRACE(std::string(kind) + "/" + wname + "/seed" +
                         std::to_string(seed) + "/k" + std::to_string(k) +
                         (tight ? "/tight" : ""));
            expect_bounded_matches_full(g, 0, t, k, tight);
            expect_bounded_matches_full(g, t / 2, t, k, tight);
            if (::testing::Test::HasFailure()) return;
          }
        }
      }
    }
  }
}

TEST(BoundedPrune, MatchesFullTreesOnLargerGraphs) {
  // Big enough that the bound matters: most vertices stay unsettled, and
  // K = 128 takes several rounds.
  const graph::CsrGraph graphs[] = {
      graph::small_world(3000, 4, 0.05, {}, 7),
      reweight(graph::small_world(3000, 4, 0.05, {}, 7), Weights::kUnit, 1),
      graph::rmat(11, 8, {}, 5),
      reweight(graph::rmat(11, 8, {}, 5), Weights::kInt123, 2),
      graph::grid(40, 40, {}, 3),
      reweight(graph::preferential_attachment(3000, 3, {}, 4),
               Weights::kInt123, 3)};
  for (const auto& g : graphs) {
    std::mt19937_64 rng(31);
    std::uniform_int_distribution<vid_t> pick(0, g.num_vertices() - 1);
    for (int pair = 0; pair < 6; ++pair) {
      const vid_t s = pick(rng), t = pick(rng);
      for (int k : {8, 128}) {
        SCOPED_TRACE("s=" + std::to_string(s) + " t=" + std::to_string(t) +
                     " k=" + std::to_string(k));
        expect_bounded_matches_full(g, s, t, k, false);
        if (::testing::Test::HasFailure()) return;
      }
    }
  }
}

TEST(BoundedPrune, UnreachableTargetMatchesFullTrees) {
  // A DAG has no path back from its last layer to vertex 0.
  const auto g = graph::layered_dag(4, 4, 3, {}, 1);
  const auto r = expect_bounded_matches_full(g, g.num_vertices() - 1, 0, 8,
                                             false);
  EXPECT_EQ(r.kept_vertices, 0);
  EXPECT_EQ(r.upper_bound, kInfDist);
}

TEST(BoundedPrune, FewerThanKPathsMatchesFullTrees) {
  // One simple path: b = inf and every vertex on it is kept.
  const auto g = graph::path(6, {graph::WeightKind::kUnit, 1});
  const auto r = expect_bounded_matches_full(g, 0, 5, 5, false);
  EXPECT_EQ(r.upper_bound, kInfDist);
  EXPECT_EQ(r.kept_vertices, 6);
}

TEST(BoundedPrune, PreCancelledTokenStops) {
  const auto g = test::random_graph(200, 1600, 17);
  const auto token = fault::CancelToken::cancellable();
  token.cancel();
  PruneOptions opts;
  opts.k = 8;
  opts.cancel = &token;
  EXPECT_EQ(k_upper_bound_prune(g, 0, 100, opts).status,
            fault::Status::kCancelled);
  EXPECT_EQ(k_upper_bound_prune(g, 7, 7, opts).status,
            fault::Status::kCancelled);
}

}  // namespace
}  // namespace peek::core
