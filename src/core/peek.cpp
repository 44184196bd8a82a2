#include "core/peek.hpp"

#include <chrono>

#include "compact/status_array.hpp"
#include "obs/metrics.hpp"

namespace peek::core {

namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

/// Translates every path of `r` through new->old ids (in place).
void translate_paths(ksp::KspResult& r, const compact::VertexMap& map) {
  for (auto& p : r.paths) {
    for (auto& v : p.verts) v = map.to_old(v);
  }
}

}  // namespace

PeekResult peek_with_algorithm(const graph::CsrGraph& g, vid_t s, vid_t t,
                               const PeekOptions& opts,
                               const KspAlgorithm& algo) {
  using Clock = std::chrono::steady_clock;
  PeekResult result;
  const eid_t m_original = g.num_edges();

  // Invoked on every exit path: mirrors the per-stage wall times and kept
  // ratios into the registry and (on request) attaches the snapshot.
  auto finalize = [&]() {
    PEEK_COUNT_INC("peek.runs");
    if constexpr (obs::kEnabled) {
      // Looked up once, like the hook macros' handles.
      static obs::Timer& prune_timer =
          obs::MetricsRegistry::global().timer("peek.prune");
      static obs::Timer& compact_timer =
          obs::MetricsRegistry::global().timer("peek.compact");
      static obs::Timer& ksp_timer =
          obs::MetricsRegistry::global().timer("peek.ksp");
      auto to_ns = [](double s2) {
        return static_cast<std::int64_t>(s2 * 1e9);
      };
      prune_timer.add_nanos(to_ns(result.prune_seconds));
      compact_timer.add_nanos(to_ns(result.compact_seconds));
      ksp_timer.add_nanos(to_ns(result.ksp_seconds));
    }
    if (g.num_vertices() > 0) {
      PEEK_GAUGE_SET("peek.kept_vertex_ratio",
                     static_cast<double>(result.kept_vertices) /
                         g.num_vertices());
    }
    if (m_original > 0) {
      PEEK_GAUGE_SET("peek.kept_edge_ratio",
                     static_cast<double>(result.kept_edges) /
                         static_cast<double>(m_original));
    }
    if (opts.collect_metrics) {
      result.metrics = obs::MetricsRegistry::global().snapshot();
    }
  };

  // Why a cancelled stage stopped (kCancelled vs kDeadlineExceeded); the
  // stages themselves report only that they stopped.
  fault::CancelPoll poll(opts.cancel, /*stride=*/1);

  if (!opts.prune) {
    // Ablation "Base": the downstream algorithm on the untouched graph.
    const auto t0 = Clock::now();
    result.ksp = algo(sssp::BiView::of(g), s, t);
    result.ksp_seconds = seconds_since(t0);
    result.status = result.ksp.status;
    result.kept_vertices = g.num_vertices();
    result.kept_edges = m_original;
    finalize();
    return result;
  }

  // Stage 1: K upper bound pruning.
  const auto t0 = Clock::now();
  PruneOptions po;
  po.k = opts.k;
  po.parallel = opts.parallel;
  po.delta = opts.delta;
  po.tight_edge_prune = opts.tight_edge_prune;
  po.cancel = opts.cancel;
  PruneResult pruned = k_upper_bound_prune(g, s, t, po);
  result.prune_seconds = seconds_since(t0);
  result.upper_bound = pruned.upper_bound;
  result.kept_vertices = pruned.kept_vertices;
  if (pruned.status != fault::Status::kOk) {
    result.status = pruned.status;
    finalize();
    return result;
  }
  if (pruned.kept_vertices == 0) {  // t unreachable
    finalize();
    return result;
  }

  // Stage 2: compaction.
  const auto t1 = Clock::now();
  const std::uint8_t* keep = pruned.vertex_keep.data();
  const auto& edge_keep = pruned.edge_keep;

  auto run_ksp = [&](const sssp::BiView& view, vid_t cs, vid_t ct,
                     const compact::VertexMap* map) {
    const auto t2 = Clock::now();
    ksp::KspResult r = algo(view, cs, ct);
    result.ksp_seconds = seconds_since(t2);
    if (map) translate_paths(r, *map);
    result.status = r.status;
    result.ksp = std::move(r);
  };

  // Compaction aborted mid-flight: classify the trip and bail with no paths.
  auto abort_compact = [&](fault::Status::Code code) {
    result.compact_seconds = seconds_since(t1);
    result.status = code;
    finalize();
  };

  // kAdaptive is the §5.4 rule choosing between the two concrete
  // strategies; its count is part of the compaction stage's time.
  auto mode = opts.compaction;
  if (mode == PeekOptions::Compaction::kAdaptive) {
    const eid_t m_r = compact::count_remaining_edges(
        sssp::GraphView(g), keep, edge_keep, opts.parallel);
    result.kept_edges = m_r;
    mode = compact::choose_strategy(m_r, m_original, opts.alpha) ==
                   compact::Strategy::kRegeneration
               ? PeekOptions::Compaction::kRegeneration
               : PeekOptions::Compaction::kEdgeSwap;
  }

  switch (mode) {
    case PeekOptions::Compaction::kStatusArray: {
      compact::StatusArrayGraph sa(g);
      result.kept_edges = sa.apply(keep, edge_keep, opts.parallel);
      result.strategy_used = compact::Strategy::kStatusArray;
      result.compact_seconds = seconds_since(t1);
      run_ksp(sa.biview(), s, t, nullptr);
      break;
    }
    case PeekOptions::Compaction::kAdaptive:  // resolved above
    case PeekOptions::Compaction::kEdgeSwap: {
      compact::MutableCsr mc(g);
      const eid_t kept_edges = compact::edge_swap_compact(
          mc, keep, edge_keep, {.parallel = opts.parallel, .cancel = opts.cancel});
      result.strategy_used = compact::Strategy::kEdgeSwap;
      if (kept_edges == compact::kEdgeSwapCancelled) {
        abort_compact(poll.should_stop() ? poll.why()
                                         : fault::Status::kCancelled);
        return result;
      }
      result.kept_edges = kept_edges;
      result.compact_seconds = seconds_since(t1);
      run_ksp(mc.biview(), s, t, nullptr);
      break;
    }
    case PeekOptions::Compaction::kRegeneration: {
      auto regen = compact::regenerate(
          sssp::GraphView(g), keep, edge_keep,
          {.parallel = opts.parallel, .cancel = opts.cancel});
      result.strategy_used = compact::Strategy::kRegeneration;
      if (regen.status != fault::Status::kOk) {
        abort_compact(regen.status);
        return result;
      }
      result.kept_edges = regen.graph.num_edges();
      result.compact_seconds = seconds_since(t1);
      const vid_t cs = regen.map.to_new(s), ct = regen.map.to_new(t);
      if (cs == kNoVertex || ct == kNoVertex) break;
      run_ksp(sssp::BiView::of(regen.graph), cs, ct, &regen.map);
      break;
    }
  }
  finalize();
  return result;
}

PeekResult peek_ksp(const graph::CsrGraph& g, vid_t s, vid_t t,
                    const PeekOptions& opts) {
  ksp::KspOptions ko;
  ko.k = opts.k;
  ko.parallel = opts.parallel;
  ko.delta = opts.delta;
  ko.cancel = opts.cancel;
  return peek_with_algorithm(
      g, s, t, opts, [&ko](const sssp::BiView& view, vid_t s2, vid_t t2) {
        return ksp::optyen_ksp(view, s2, t2, ko);
      });
}

}  // namespace peek::core
