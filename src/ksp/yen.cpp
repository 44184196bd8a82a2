#include "ksp/yen.hpp"

#include <atomic>

#include "ksp/yen_engine.hpp"
#include "obs/metrics.hpp"
#include "sssp/delta_stepping.hpp"
#include "sssp/dijkstra.hpp"

namespace peek::ksp {

KspResult yen_ksp(const BiView& g, vid_t s, vid_t t, const KspOptions& opts) {
  std::atomic<int> sssp_calls{0};

  detail::DeviationSolver solver = [&](const detail::DeviationContext& ctx) {
    sssp_calls.fetch_add(1, std::memory_order_relaxed);
    sssp::Bans bans{ctx.banned_vertices, &ctx.banned_edges};
    sssp::Path suffix;
    if (opts.parallel) {
      sssp::DeltaSteppingOptions ds;
      ds.target = t;
      ds.bans = bans;
      ds.delta = opts.delta;
      // Inner-level parallelism: the outer level already fans deviations out
      // across threads, so each SSSP runs serial loops of the same algorithm
      // unless it is the only job (the first path).
      ds.parallel = ctx.position == 0 && ctx.prefix.size() == 1;
      auto r = sssp::delta_stepping(g.fwd, ctx.deviation_vertex, ds);
      suffix = sssp::path_from_parents(r, ctx.deviation_vertex, t);
    } else {
      sssp::DijkstraOptions dj;
      dj.target = t;
      dj.bans = bans;
      auto r = sssp::dijkstra(g.fwd, ctx.deviation_vertex, dj);
      suffix = sssp::path_from_parents(r, ctx.deviation_vertex, t);
    }
    return suffix;
  };

  KspResult result = detail::run_yen_engine(g.fwd, s, t, opts, solver);
  result.stats.sssp_calls = sssp_calls.load();
  return result;
}

KspResult yen_ksp(const graph::CsrGraph& g, vid_t s, vid_t t,
                  const KspOptions& opts) {
  return yen_ksp(BiView::of(g), s, t, opts);
}

}  // namespace peek::ksp
