// The cross-algorithm property suite (DESIGN.md §6): on many random graphs,
// all six KSP implementations must return the same distance multiset as the
// brute-force oracle, and every returned path must satisfy the structural
// invariants of Definition 1. PeeK is checked across its whole option grid
// (parallel × tight edge rule × compaction mode × K), so a change to any
// stage of the prune → compact → KSP pipeline meets the oracle here.
#include <algorithm>
#include <random>

#include <gtest/gtest.h>

#include "core/peek.hpp"
#include "ksp/bruteforce.hpp"
#include "ksp/node_classification.hpp"
#include "ksp/optyen.hpp"
#include "ksp/pnc.hpp"
#include "ksp/sidetrack.hpp"
#include "ksp/yen.hpp"
#include "test_util.hpp"

namespace peek::ksp {
namespace {

struct AgreementParam {
  const char* kind;  // generator family
  std::uint64_t seed;
  int k;
  bool unit;
};

void PrintTo(const AgreementParam& p, std::ostream* os) {
  *os << p.kind << "/seed" << p.seed << "/k" << p.k << (p.unit ? "/unit" : "");
}

/// Tie-heavy family: a random digraph whose weights are integers in {1, 2,
/// 3}, so many s->t paths share a distance and the K-th distance is usually
/// tied — the regime where pruning and compaction boundaries are tightest.
graph::CsrGraph tie_graph(std::uint64_t seed) {
  constexpr vid_t kN = 16;
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<vid_t> vert(0, kN - 1);
  std::uniform_int_distribution<int> weight(1, 3);
  graph::Builder b(kN);
  for (vid_t v = 0; v + 1 < kN; ++v)
    b.add_edge(v, v + 1, static_cast<weight_t>(weight(rng)));
  for (int i = 0; i < 40; ++i) {
    const vid_t u = vert(rng);
    const vid_t v = vert(rng);
    b.add_edge(u, v, static_cast<weight_t>(weight(rng)));
  }
  return b.build();
}

graph::CsrGraph make_graph(const AgreementParam& p) {
  if (std::string(p.kind) == "tie") return tie_graph(p.seed);
  graph::WeightOptions w;
  w.kind = p.unit ? graph::WeightKind::kUnit : graph::WeightKind::kUniform01;
  w.seed = p.seed + 1000;
  if (std::string(p.kind) == "er") return graph::erdos_renyi(32, 96, w, p.seed);
  if (std::string(p.kind) == "er-pl") {
    w.kind = graph::WeightKind::kPowerLaw;
    return graph::erdos_renyi(32, 96, w, p.seed);
  }
  if (std::string(p.kind) == "dag") return graph::layered_dag(4, 4, 3, w, p.seed);
  if (std::string(p.kind) == "grid") return graph::grid(4, 5, w, p.seed);
  if (std::string(p.kind) == "sw") return graph::small_world(28, 3, 0.2, w, p.seed);
  return graph::complete(9, w, p.seed);
}

class KspAgreement : public ::testing::TestWithParam<AgreementParam> {};

TEST_P(KspAgreement, AllAlgorithmsMatchOracle) {
  const auto p = GetParam();
  auto g = make_graph(p);
  const vid_t s = 0;
  const vid_t t = g.num_vertices() - 1;
  KspOptions opts;
  opts.k = p.k;

  auto oracle = bruteforce_ksp(g, s, t, p.k);
  SCOPED_TRACE(::testing::PrintToString(p));

  auto check = [&](const char* name, const KspResult& r) {
    SCOPED_TRACE(name);
    test::check_ksp_invariants(g, s, t, r.paths);
    test::expect_same_distances(oracle.paths, r.paths);
  };
  check("yen", yen_ksp(g, s, t, opts));
  check("optyen", optyen_ksp(g, s, t, opts));
  check("nc", nc_ksp(g, s, t, opts));
  check("sb", sb_ksp(g, s, t, opts));
  check("sb*", sb_star_ksp(g, s, t, opts));
  check("pnc", pnc_ksp(g, s, t, opts));
  check("pnc*", pnc_star_ksp(g, s, t, opts));

  // The two-level parallel strategy (Δ-stepping deviations fanned out
  // across workers) must reach the same answer.
  opts.parallel = true;
  check("yen-parallel", yen_ksp(g, s, t, opts));
  check("optyen-parallel", optyen_ksp(g, s, t, opts));
}

// PeeK over its whole option grid: every combination must return the
// oracle's distances (Theorem 4.3 + compaction equivalence + parallel
// equivalence in one assertion). The param's own k is not used; the grid
// sweeps K from a single path to more paths than most graphs here hold.
TEST_P(KspAgreement, PeekOptionGridMatchesOracle) {
  using Compaction = core::PeekOptions::Compaction;
  const auto p = GetParam();
  auto g = make_graph(p);
  const vid_t s = 0;
  const vid_t t = g.num_vertices() - 1;
  SCOPED_TRACE(::testing::PrintToString(p));

  // One enumeration serves every K: the oracle's top-K is a prefix.
  const auto all = enumerate_all_simple_paths(sssp::GraphView(g), s, t);
  for (int k : {1, 3, 8, 32}) {
    const std::vector<sssp::Path> want(
        all.begin(), all.begin() + std::min<size_t>(all.size(), k));
    for (bool parallel : {false, true}) {
      for (bool tight : {false, true}) {
        for (auto mode : {Compaction::kAdaptive, Compaction::kEdgeSwap,
                          Compaction::kRegeneration,
                          Compaction::kStatusArray}) {
          core::PeekOptions po;
          po.k = k;
          po.parallel = parallel;
          po.tight_edge_prune = tight;
          po.compaction = mode;
          SCOPED_TRACE(::testing::Message()
                       << "k=" << k << " parallel=" << parallel
                       << " tight=" << tight
                       << " mode=" << static_cast<int>(mode));
          auto r = core::peek_ksp(g, s, t, po);
          ASSERT_EQ(r.status, fault::Status::kOk);
          test::check_ksp_invariants(g, s, t, r.ksp.paths);
          test::expect_same_distances(want, r.ksp.paths);
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, KspAgreement,
    ::testing::Values(
        AgreementParam{"er", 1, 4, false}, AgreementParam{"er", 2, 8, false},
        AgreementParam{"er", 3, 16, false}, AgreementParam{"er", 4, 8, true},
        AgreementParam{"er", 5, 12, false}, AgreementParam{"er", 6, 8, false},
        AgreementParam{"dag", 7, 8, false}, AgreementParam{"dag", 8, 16, false},
        AgreementParam{"dag", 9, 8, true}, AgreementParam{"grid", 10, 8, false},
        AgreementParam{"grid", 11, 12, true},
        AgreementParam{"sw", 12, 8, false}, AgreementParam{"sw", 13, 16, false},
        AgreementParam{"complete", 14, 20, false},
        AgreementParam{"complete", 15, 8, true},
        AgreementParam{"er-pl", 20, 8, false},
        AgreementParam{"er-pl", 21, 16, false},
        AgreementParam{"tie", 16, 8, false},
        AgreementParam{"tie", 17, 16, false},
        AgreementParam{"tie", 18, 32, false},
        AgreementParam{"tie", 19, 4, false}));

// PeeK must equal plain OptYen on bigger graphs too (no oracle there).
class PeekVsOptYen : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PeekVsOptYen, SameDistancesOnMediumGraphs) {
  auto g = test::random_graph(400, 3200, GetParam());
  KspOptions ko;
  ko.k = 10;
  auto base = optyen_ksp(g, 0, 200, ko);
  core::PeekOptions po;
  po.k = 10;
  auto mine = core::peek_ksp(g, 0, 200, po);
  test::expect_same_distances(base.paths, mine.ksp.paths);
  test::check_ksp_invariants(g, 0, 200, mine.ksp.paths);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PeekVsOptYen,
                         ::testing::Values(21u, 22u, 23u, 24u, 25u));

}  // namespace
}  // namespace peek::ksp
