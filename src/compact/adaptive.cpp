#include "compact/adaptive.hpp"

#include <atomic>

#include "obs/metrics.hpp"
#include "parallel/parallel_for.hpp"

namespace peek::compact {

const char* to_string(Strategy s) {
  switch (s) {
    case Strategy::kEdgeSwap: return "edge-swap";
    case Strategy::kRegeneration: return "regeneration";
    case Strategy::kStatusArray: return "status-array";
  }
  return "?";
}

Strategy choose_strategy(eid_t m_remaining, eid_t m_original, double alpha) {
  const Strategy s =
      static_cast<double>(m_remaining) < alpha * static_cast<double>(m_original)
          ? Strategy::kRegeneration
          : Strategy::kEdgeSwap;
  if (m_original > 0) {
    PEEK_GAUGE_SET("compact.remaining_edge_ratio",
                   static_cast<double>(m_remaining) /
                       static_cast<double>(m_original));
  }
  if (s == Strategy::kRegeneration) {
    PEEK_COUNT_INC("compact.strategy.regeneration");
  } else {
    PEEK_COUNT_INC("compact.strategy.edge_swap");
  }
  return s;
}

eid_t count_remaining_edges(const GraphView& view,
                            const std::uint8_t* vertex_keep,
                            const EdgeKeep& keep, bool parallel) {
  PEEK_TIMER_SCOPE("compact.count_remaining");
  auto vertex_kept = [&](vid_t v) {
    return view.vertex_alive(v) && (!vertex_keep || vertex_keep[v]);
  };
  std::atomic<eid_t> total{0};
  auto body = [&](vid_t v) {
    if (!vertex_kept(v)) return;
    eid_t local = 0;
    for (eid_t e = view.edge_begin(v); e < view.edge_end(v); ++e) {
      if (!view.edge_alive(e)) continue;
      const vid_t w = view.edge_target(e);
      if (!vertex_kept(w)) continue;
      if (keep && !keep(v, w, view.edge_weight(e))) continue;
      local++;
    }
    total.fetch_add(local, std::memory_order_relaxed);
  };
  if (parallel) par::parallel_for_dynamic(vid_t{0}, view.num_vertices(), body);
  else for (vid_t v = 0; v < view.num_vertices(); ++v) body(v);
  return total.load();
}

}  // namespace peek::compact
