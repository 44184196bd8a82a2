// Figure 12: adaptive graph compaction vs the Terrace-style dynamic graph
// container, end-to-end (update + downstream SSSP) against the remaining-edge
// percentage on the Twitter-like graph. Expected shape: the dynamic container
// pays per-edge deletion cost, so batch compaction wins by orders of
// magnitude when most of the graph is deleted, and the gap narrows as the
// deletion fraction shrinks.
#include <cstdlib>
#include <random>
#include <unordered_set>

#include "bench_common.hpp"
#include "compact/adaptive.hpp"
#include "dyn/dynamic_graph.hpp"
#include "dyn/dynamic_sssp.hpp"
#include "sssp/dijkstra.hpp"

namespace {
using namespace peek;
using namespace peek::bench;

int env_int(const char* name, int fallback) {
  const char* v = std::getenv(name);
  return v ? std::atoi(v) : fallback;
}

std::uint64_t pair_key(vid_t u, vid_t v) {
  return (static_cast<std::uint64_t>(u) << 32) | static_cast<std::uint32_t>(v);
}
}  // namespace

int main(int argc, char** argv) {
  enable_metrics_dump(argc, argv);
  auto g = twitter_like(env_int("PEEK_BENCH_SCALE", 14));
  const auto pts = sample_pairs(g, 1, 99);
  if (pts.empty()) return 0;
  const vid_t s = pts[0].first;

  std::vector<std::pair<vid_t, vid_t>> all_edges;
  for (vid_t u = 0; u < g.num_vertices(); ++u)
    for (eid_t e = g.edge_begin(u); e < g.edge_end(u); ++e)
      all_edges.push_back({u, g.edge_target(e)});
  std::shuffle(all_edges.begin(), all_edges.end(), std::mt19937_64(5));

  print_header("Figure 12: adaptive compaction vs dynamic graph container",
               "Figure 12 — PeeK compaction vs Terrace-style container, "
               "update + SSSP end-to-end");
  print_row({"kept_E%", "peek_comp", "peek_sssp", "dyn_update", "dyn_sssp",
             "speedup"});

  for (double ratio : {0.0004, 0.0064, 0.1024, 0.4096, 0.6553, 1.0}) {
    const size_t target =
        static_cast<size_t>(ratio * static_cast<double>(g.num_edges()));
    std::unordered_set<std::uint64_t> kept;
    for (const auto& [u, v] : all_edges) {
      if (kept.size() >= target) break;
      kept.insert(pair_key(u, v));
    }
    std::vector<std::uint8_t> vkeep(static_cast<size_t>(g.num_vertices()), 0);
    for (const auto& [u, v] : all_edges)
      if (kept.count(pair_key(u, v))) vkeep[u] = vkeep[v] = 1;
    vkeep[s] = 1;
    compact::EdgeKeep pred = [&kept](vid_t u, vid_t v, weight_t) {
      return kept.count(pair_key(u, v)) > 0;
    };

    // PeeK side: adaptive compaction (count m_r, pick a strategy, compact)
    // + static SSSP.
    compact::MutableCsr mc(g);
    compact::Strategy strategy = compact::Strategy::kEdgeSwap;
    compact::RegeneratedGraph regen;
    const double pc = time_seconds([&] {
      const eid_t m_r = compact::count_remaining_edges(sssp::GraphView(g),
                                                       vkeep.data(), pred);
      strategy = compact::choose_strategy(m_r, g.num_edges(), 0.5);
      if (strategy == compact::Strategy::kRegeneration) {
        regen = compact::regenerate(sssp::GraphView(g), vkeep.data(), pred);
      } else {
        compact::edge_swap_compact(mc, vkeep.data(), pred);
      }
    });
    double ps;
    if (strategy == compact::Strategy::kRegeneration) {
      const vid_t cs = regen.map.to_new(s);
      ps = time_seconds(
          [&] { sssp::dijkstra(sssp::GraphView(regen.graph), cs); });
    } else {
      ps = time_seconds([&] { sssp::dijkstra(mc.biview().fwd, s); });
    }

    // Dynamic-container side: per-edge deletions + SSSP on the container.
    dyn::DynamicGraph dg(g);
    const double dc = time_seconds([&] {
      for (const auto& [u, v] : all_edges) {
        if (!kept.count(pair_key(u, v))) dg.delete_edge(u, v);
      }
      for (vid_t v = 0; v < g.num_vertices(); ++v) {
        if (!vkeep[v]) dg.delete_vertex(v);
      }
    });
    const double ds = time_seconds([&] { dyn::dynamic_dijkstra(dg, s); });

    print_row({fmt(100.0 * ratio, 2), fmt(pc, 4), fmt(ps, 4), fmt(dc, 4),
               fmt(ds, 4), fmt((dc + ds) / (pc + ps), 1) + "x"});
  }
  return 0;
}
