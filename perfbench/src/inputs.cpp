#include "inputs.hpp"

#include "sssp/dijkstra.hpp"

namespace perfbench {

std::vector<ColdQuery> cold_requests(
    const std::vector<const peek::graph::CsrGraph*>& graphs, size_t per_graph,
    std::uint64_t seed) {
  std::vector<ColdQuery> list;
  for (size_t gi = 0; gi < graphs.size(); ++gi) {
    Rng rng(stream_seed(seed, 100 + gi));
    for (const auto& [s, t] : sample_pairs(*graphs[gi], per_graph, rng)) {
      list.push_back({static_cast<int>(gi), s, t});
    }
  }
  Rng order(stream_seed(seed, 1));
  order.shuffle(list);
  return list;
}

std::vector<FleetRequest> zipf_requests(size_t pool, size_t n, double theta,
                                        std::uint64_t seed,
                                        std::uint64_t purpose) {
  Rng rank_rng(stream_seed(seed, purpose));
  Rng k_rng(stream_seed(seed, purpose + 1));
  const auto ranks = zipf_ranks(pool, n, theta, rank_rng);
  const auto ks = weighted_blocks({8, 32, 128}, {6, 3, 1}, n, k_rng);
  std::vector<FleetRequest> list(n);
  for (size_t i = 0; i < n; ++i) list[i] = {ranks[i], ks[i]};
  return list;
}

BatchSource::BatchSource(const peek::graph::CsrGraph& g0,
                         std::vector<std::pair<vid_t, vid_t>> hot,
                         std::uint64_t seed)
    : shadow_(g0),
      cur_(std::make_shared<const peek::graph::CsrGraph>(g0)),
      hot_(std::move(hot)),
      rng_(stream_seed(seed, 7)) {}

peek::dyn::UpdateBatch BatchSource::next() {
  const bool structural = index_++ % 4 == 3;
  const int ops = 1 + static_cast<int>(rng_.below(4));
  peek::dyn::UpdateBatch b;
  for (int i = 0; i < ops; ++i) {
    const auto [u, v] = pick_edge();
    if (!structural) {
      b.reweight(u, v, new_weight());
    } else if (rng_.below(2) == 0) {
      b.erase(u, v);
    } else {
      // Insert a fresh edge out of u (one u does not already have).
      for (int tries = 0; tries < 16; ++tries) {
        const vid_t w = static_cast<vid_t>(
            rng_.below(static_cast<std::uint64_t>(cur_->num_vertices())));
        if (w != u && shadow_.edge_weight(u, w) == peek::kInfDist) {
          b.insert(u, w, new_weight());
          break;
        }
      }
    }
  }
  return b;
}

std::shared_ptr<const peek::graph::CsrGraph> BatchSource::advance(
    const peek::dyn::UpdateBatch& b) {
  const peek::dyn::AppliedBatch applied = peek::dyn::apply(shadow_, b);
  cur_ = std::make_shared<const peek::graph::CsrGraph>(
      peek::dyn::patched_csr(shadow_, *cur_, applied));
  return cur_;
}

std::pair<vid_t, vid_t> BatchSource::pick_edge() {
  namespace sssp = peek::sssp;
  const auto& g = *cur_;
  if (!hot_.empty() && rng_.below(2) == 0) {
    const auto [s, t] = hot_[rng_.below(hot_.size())];
    sssp::DijkstraOptions o;
    o.target = t;
    const sssp::Path p =
        sssp::path_from_parents(sssp::dijkstra(sssp::GraphView(g), s, o), s, t);
    if (p.verts.size() >= 2) {
      const size_t i = rng_.below(p.verts.size() - 1);
      return {p.verts[i], p.verts[i + 1]};
    }
  }
  vid_t u = 0;
  do {
    u = static_cast<vid_t>(rng_.below(static_cast<std::uint64_t>(g.num_vertices())));
  } while (g.degree(u) == 0);
  const auto e = g.edge_begin(u) + static_cast<peek::eid_t>(rng_.below(
                                       static_cast<std::uint64_t>(g.degree(u))));
  return {u, g.edge_target(e)};
}

}  // namespace perfbench
