// cold-k8: one closed-loop client calling core::peek_ksp with library
// defaults (except K = 8) over distinct (s, t) pairs of R21, LJ, WL and GT
// from bench::benchmark_suite(0). Nothing is cached between queries, so
// every query pays the whole prune -> compact -> KSP pipeline.
//
// The traced run replays the list through the pipeline's public calls one by
// one (sssp::dijkstra, sssp::reverse_dijkstra, core::k_upper_bound_prune on
// the two trees, compact::count_remaining_edges + choose_strategy +
// regenerate / edge_swap_compact, ksp::optyen_ksp) so each stage gets a span,
// and checks that the decomposition returns core::peek_ksp's paths exactly.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <optional>

#include "bench_common.hpp"
#include "check/certify.hpp"
#include "compact/mutable_csr.hpp"
#include "core/peek.hpp"
#include "harness.hpp"
#include "inputs.hpp"
#include "ksp/yen.hpp"
#include "sssp/delta_stepping.hpp"
#include "sssp/dijkstra.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using peek::sssp::Path;
namespace core = peek::core;

const char* const kGraphNames[] = {"R21", "LJ", "WL", "GT"};
constexpr int kGraphs = 4;

constexpr int kK = 8;

/// Distinct pairs per graph in one pass. Sized so that one pass takes a
/// little longer than the time box on a 4-thread x86-64 host (~10 ms mean
/// per query): the timed phase is then one whole pass of distinct pairs,
/// which keeps the tail percentile's ten-beyond samples distinct queries
/// instead of repeats.
size_t pairs_per_graph(double seconds) {
  return std::max<size_t>(8, static_cast<size_t>(std::ceil(32 * seconds)));
}

struct Setup {
  std::vector<peek::bench::BenchGraph> graphs;  // kGraphNames order
  std::vector<ColdQuery> list;
};

core::PeekOptions query_options() {
  core::PeekOptions o;  // library defaults
  o.k = kK;
  return o;
}

Setup make_setup(const RunArgs& args) {
  Setup su;
  // benchmark_suite lists R21, LJ, WL and GT in kGraphNames order.
  for (auto& bg : peek::bench::benchmark_suite(0)) {
    for (const char* name : kGraphNames) {
      if (bg.name == name) su.graphs.push_back(std::move(bg));
    }
  }
  std::vector<const peek::graph::CsrGraph*> graphs;
  for (const auto& bg : su.graphs) graphs.push_back(&bg.g);
  su.list = cold_requests(graphs, pairs_per_graph(args.seconds), args.seed);
  // Warm-up: one query per graph on pairs outside the list, so the OpenMP
  // pool is up and the graphs are paged in before the timed phase.
  for (int gi = 0; gi < kGraphs; ++gi) {
    Rng rng(stream_seed(args.seed, 200 + static_cast<std::uint64_t>(gi)));
    const auto& g = su.graphs[static_cast<size_t>(gi)].g;
    for (const auto& [s, t] : sample_pairs(g, 1, rng)) {
      (void)core::peek_ksp(g, s, t, query_options());
    }
  }
  return su;
}

/// Set-up repeated three times; the median is setup_s. peak_rss_mb counts
/// from the start of the last repetition, the one the run keeps.
Setup timed_setups(const RunArgs& args, double& setup_s) {
  std::vector<double> times;
  Setup su;
  for (int rep = 0; rep < 3; ++rep) {
    su = Setup{};
    if (rep == 2) reset_peak_rss();
    const auto t0 = Clock::now();
    su = make_setup(args);
    times.push_back(std::chrono::duration<double>(Clock::now() - t0).count());
  }
  setup_s = median(times);
  return su;
}

struct Untraced {
  std::vector<double> lat_ms;
  std::vector<std::vector<Path>> answers;  // per list index
  int passes = 0;
  double wall_s = 0;
  long failed = 0;  // non-kOk statuses and pass-to-pass differences
};

Untraced run_untraced(const Setup& su, double seconds) {
  Untraced u;
  u.answers.resize(su.list.size());
  u.lat_ms.reserve(su.list.size());
  const core::PeekOptions opts = query_options();
  PassClock clock(seconds);
  do {
    const bool first = clock.passes() == 0;
    for (size_t i = 0; i < su.list.size(); ++i) {
      const ColdQuery& q = su.list[i];
      const auto t0 = Clock::now();
      core::PeekResult r =
          core::peek_ksp(su.graphs[static_cast<size_t>(q.graph)].g, q.s, q.t, opts);
      u.lat_ms.push_back(
          std::chrono::duration<double, std::milli>(Clock::now() - t0).count());
      if (r.status != peek::fault::Status::kOk) ++u.failed;
      if (first) {
        u.answers[i] = std::move(r.ksp.paths);
      } else if (!same_paths(r.ksp.paths, u.answers[i])) {
        ++u.failed;
      }
    }
  } while (clock.another_pass());
  u.wall_s = clock.elapsed();
  u.passes = clock.passes();
  return u;
}

/// Gates on the untraced answers: every answer non-empty (pairs are
/// reachable by construction) and certified against its graph; a seeded
/// sample agrees with plain Yen on the unpruned graph.
long check_answers(const Setup& su, const Untraced& u, std::uint64_t seed,
                   long& attempted) {
  long failed = 0;
  for (size_t i = 0; i < su.list.size(); ++i) {
    const ColdQuery& q = su.list[i];
    const auto& g = su.graphs[static_cast<size_t>(q.graph)].g;
    ++attempted;
    if (u.answers[i].empty() ||
        !peek::check::certify_paths(g, q.s, q.t, u.answers[i]).ok()) {
      std::fprintf(stderr, "check: query %zu (%s %d->%d) failed certification\n",
                   i, kGraphNames[q.graph], q.s, q.t);
      ++failed;
    }
  }
  // Yen runs about one full-graph Dijkstra per deviation, so the sample is
  // small: one seeded query per graph.
  Rng rng(stream_seed(seed, 3));
  for (int n = 0; n < kGraphs; ++n) {
    size_t i = rng.below(su.list.size());
    while (su.list[i].graph != n) i = (i + 1) % su.list.size();
    const ColdQuery& q = su.list[i];
    peek::ksp::KspOptions ko;
    ko.k = kK;
    const auto yen = peek::ksp::yen_ksp(su.graphs[static_cast<size_t>(q.graph)].g,
                                        q.s, q.t, ko);
    ++attempted;
    bool ok = yen.status == peek::fault::Status::kOk &&
              yen.paths.size() == u.answers[i].size();
    for (size_t r = 0; ok && r < yen.paths.size(); ++r) {
      const double want = yen.paths[r].dist, got = u.answers[i][r].dist;
      ok = std::abs(want - got) <= 1e-9 * std::max(1.0, std::abs(want));
    }
    if (!ok) {
      std::fprintf(stderr, "check: query %zu (%s %d->%d) disagrees with Yen\n", i,
                   kGraphNames[q.graph], q.s, q.t);
      ++failed;
    }
  }
  return failed;
}

/// One query through the pipeline's public calls, each under a span.
/// Mirrors core::peek_with_algorithm's default (adaptive) branch.
struct Decomposed {
  std::vector<Path> paths;
  double kept_vertex_frac = 0;
  double kept_edge_frac = 0;
  int inspected_paths = 0;
  bool regenerated = false;
  peek::ksp::KspStats stats;
  bool ok = true;
};

Decomposed run_decomposed(const peek::graph::CsrGraph& g, const ColdQuery& q,
                          std::int64_t request, SpanLog& log) {
  namespace sssp = peek::sssp;
  namespace compact = peek::compact;
  const core::PeekOptions defaults = query_options();
  Decomposed d;
  SpanLog::Scope root(log, "query", request, q.graph);
  sssp::SsspResult fwd, rev;
  sssp::DeltaSteppingOptions ds;
  ds.delta = defaults.delta;
  {
    SpanLog::Scope sp(log, "sssp.fwd", request, q.graph);
    fwd = defaults.parallel ? sssp::delta_stepping(sssp::GraphView(g), q.s, ds)
                            : sssp::dijkstra(sssp::GraphView(g), q.s);
  }
  {
    SpanLog::Scope sp(log, "sssp.rev", request, q.graph);
    rev = defaults.parallel ? sssp::reverse_delta_stepping(g, q.t, ds)
                            : sssp::reverse_dijkstra(g, q.t);
  }
  core::PruneResult pr;
  {
    SpanLog::Scope sp(log, "prune.scan", request, q.graph);
    core::PruneOptions po;
    po.k = kK;
    po.parallel = defaults.parallel;
    po.delta = defaults.delta;
    po.tight_edge_prune = defaults.tight_edge_prune;
    po.reuse_from_source = &fwd;
    po.reuse_to_target = &rev;
    pr = core::k_upper_bound_prune(g, q.s, q.t, po);
  }
  d.ok = pr.status == peek::fault::Status::kOk;
  d.kept_vertex_frac =
      static_cast<double>(pr.kept_vertices) / static_cast<double>(g.num_vertices());
  d.inspected_paths = pr.inspected_paths;
  if (!d.ok || pr.kept_vertices == 0) return d;

  const std::uint8_t* keep = pr.vertex_keep.data();
  peek::ksp::KspOptions ko;
  ko.k = kK;
  ko.parallel = defaults.parallel;
  ko.delta = defaults.delta;
  auto run_ksp = [&](const sssp::BiView& view, vid_t cs, vid_t ct,
                     const compact::VertexMap* map) {
    SpanLog::Scope sp(log, "ksp", request, q.graph);
    auto r = peek::ksp::optyen_ksp(view, cs, ct, ko);
    if (map) {
      for (auto& p : r.paths) {
        for (auto& v : p.verts) v = map->to_old(v);
      }
    }
    d.ok = d.ok && r.status == peek::fault::Status::kOk;
    d.stats = r.stats;
    d.paths = std::move(r.paths);
  };
  std::optional<SpanLog::Scope> compact_span;
  compact_span.emplace(log, "compact", request, q.graph);
  const peek::eid_t m_r = compact::count_remaining_edges(sssp::GraphView(g), keep,
                                                   pr.edge_keep, defaults.parallel);
  d.kept_edge_frac = static_cast<double>(m_r) / static_cast<double>(g.num_edges());
  const compact::Strategy strat =
      compact::choose_strategy(m_r, g.num_edges(), defaults.alpha);
  if (strat == compact::Strategy::kRegeneration) {
    d.regenerated = true;
    auto regen = compact::regenerate(sssp::GraphView(g), keep, pr.edge_keep,
                                     {.parallel = defaults.parallel});
    compact_span.reset();
    d.ok = d.ok && regen.status == peek::fault::Status::kOk;
    const vid_t cs = regen.map.to_new(q.s), ct = regen.map.to_new(q.t);
    if (!d.ok || cs == peek::kNoVertex || ct == peek::kNoVertex) return d;
    run_ksp(sssp::BiView::of(regen.graph), cs, ct, &regen.map);
  } else {
    compact::MutableCsr mc(g);
    const peek::eid_t kept = compact::edge_swap_compact(
        mc, keep, pr.edge_keep, {.parallel = defaults.parallel});
    compact_span.reset();
    d.ok = d.ok && kept != compact::kEdgeSwapCancelled;
    if (d.ok) run_ksp(mc.biview(), q.s, q.t, nullptr);
  }
  return d;
}

}  // namespace

int run_cold(const RunArgs& args) {
  double setup_s = 0;
  const Setup su = timed_setups(args, setup_s);
  std::printf("# cold-k8: %zu distinct pairs per pass (%zu per graph), 1 client\n",
              su.list.size(), pairs_per_graph(args.seconds));

  Untraced u = run_untraced(su, args.seconds);
  long attempted = static_cast<long>(u.lat_ms.size());
  long failed = u.failed + check_answers(su, u, args.seed, attempted);
  const double untraced_p50 = median(u.lat_ms);
  std::printf("# untraced: %d pass(es), %zu queries in %.3f s\n", u.passes,
              u.lat_ms.size(), u.wall_s);

  Report report(args.trace);
  if (!args.trace) {
    report.set("qps", static_cast<double>(u.lat_ms.size()) / u.wall_s);
    report.set("p50_ms", untraced_p50);
    report.set("p99_ms", tail(u.lat_ms, static_cast<size_t>(u.passes)));
    report.set("setup_s", setup_s);
    report.set("peak_rss_mb", peak_rss_mb());
    std::printf("# tail percentile over %zu samples: index %zu\n",
                u.lat_ms.size(),
                tail_index(u.lat_ms.size(), static_cast<size_t>(u.passes)));
    report.print(failed == 0, attempted, failed);
    return 0;
  }

  // Traced replay: the same list, the same number of passes, every query
  // decomposed into spans and checked against the untraced answer.
  std::vector<SpanLog> logs(1);
  SpanLog& log = logs[0];
  std::vector<Decomposed> facts;
  facts.reserve(su.list.size());
  for (int pass = 0; pass < u.passes; ++pass) {
    for (size_t i = 0; i < su.list.size(); ++i) {
      const ColdQuery& q = su.list[i];
      Decomposed d = run_decomposed(su.graphs[static_cast<size_t>(q.graph)].g, q,
                                    static_cast<std::int64_t>(i), log);
      ++attempted;
      if (!d.ok || !same_paths(d.paths, u.answers[i])) {
        std::fprintf(stderr, "check: decomposed query %zu differs from peek_ksp\n",
                     i);
        ++failed;
      }
      if (pass == 0) facts.push_back(std::move(d));
    }
  }

  std::map<std::string, std::map<std::string, std::vector<double>>> stage_ms;
  std::vector<double> query_ms;
  double stage_sum = 0, query_sum = 0, sssp_prune_sum = 0, ksp_sum = 0;
  for (const Span& sp : log.spans()) {
    const std::string name = sp.name;
    if (name == "query") {
      query_ms.push_back(sp.ms());
      query_sum += sp.ms();
      continue;
    }
    const std::string metric = name == "prune.scan" ? "prune.scan_ms"
                               : name == "compact"  ? "compact.ms"
                               : name == "ksp"      ? "ksp.ms"
                                                    : name + "_ms";
    stage_ms[metric][kGraphNames[sp.tag]].push_back(sp.ms());
    stage_sum += sp.ms();
    if (name == "ksp") {
      ksp_sum += sp.ms();
    } else if (name != "compact") {
      sssp_prune_sum += sp.ms();
    }
  }
  // A stage a query never reached (an unreachable target) contributes no
  // span; every graph still gets a key so the per-graph metric is printed.
  for (const char* metric :
       {"sssp.fwd_ms", "sssp.rev_ms", "prune.scan_ms", "compact.ms", "ksp.ms"}) {
    auto& fam = stage_ms[metric];
    for (const char* g : kGraphNames) fam[g];
    report.set_p50_family(metric, fam);
  }
  std::vector<double> vfrac, efrac, inspected, regen, sssp_calls, shortcuts;
  for (const Decomposed& d : facts) {
    vfrac.push_back(d.kept_vertex_frac);
    efrac.push_back(d.kept_edge_frac);
    inspected.push_back(d.inspected_paths);
    regen.push_back(d.regenerated ? 1 : 0);
    sssp_calls.push_back(d.stats.sssp_calls);
    shortcuts.push_back(d.stats.tree_shortcuts);
  }
  report.set("prune.kept_vertex_frac", mean(vfrac));
  report.set("prune.kept_edge_frac", mean(efrac));
  report.set("prune.inspected_paths", mean(inspected));
  report.set("compact.regen_frac", mean(regen));
  report.set("ksp.sssp_calls", mean(sssp_calls));
  report.set("ksp.tree_shortcuts", mean(shortcuts));
  report.set("trace.layer_sum_frac", query_sum > 0 ? stage_sum / query_sum : 0);
  report.set("trace.overhead_pct",
             100.0 * (median(query_ms) - untraced_p50) / untraced_p50);
  std::printf("# split of traced time: sssp+prune %.1f%%, compact %.1f%%, "
              "ksp %.1f%%\n",
              100.0 * sssp_prune_sum / query_sum,
              100.0 * (stage_sum - sssp_prune_sum - ksp_sum) / query_sum,
              100.0 * ksp_sum / query_sum);
  if (!args.trace_out.empty() && !write_spans(args.trace_out, logs)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", args.trace_out.c_str());
    return 1;
  }
  report.print(failed == 0, attempted, failed);
  return 0;
}

}  // namespace perfbench
