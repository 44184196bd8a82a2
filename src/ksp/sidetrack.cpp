#include "ksp/sidetrack.hpp"

#include <algorithm>
#include <deque>
#include <memory>
#include <unordered_map>

#include "ksp/yen_engine.hpp"
#include "sssp/dijkstra.hpp"
#include "sssp/resumable_dijkstra.hpp"

namespace peek::ksp {

namespace {

using sssp::GraphView;
using sssp::SsspResult;
using TreePtr = std::shared_ptr<const SsspResult>;

struct PrefixHash {
  size_t operator()(const std::vector<vid_t>& v) const {
    size_t h = 1469598103934665603ULL;
    for (vid_t x : v) {
      h ^= static_cast<size_t>(x);
      h *= 1099511628211ULL;
    }
    return h;
  }
};

/// Bounded pool of reverse shortest-path trees keyed by the red prefix they
/// were computed under. FIFO eviction (evicted prefixes recompute on demand).
class TreePool {
 public:
  explicit TreePool(size_t cap) : cap_(cap) {}

  TreePtr find(const std::vector<vid_t>& prefix) const {
    auto it = cache_.find(prefix);
    return it == cache_.end() ? nullptr : it->second;
  }

  void insert(std::vector<vid_t> prefix, TreePtr tree) {
    if (cache_.count(prefix)) return;
    if (cache_.size() >= cap_ && !fifo_.empty()) {
      cache_.erase(fifo_.front());
      fifo_.pop_front();
    }
    fifo_.push_back(prefix);
    cache_.emplace(std::move(prefix), std::move(tree));
    peak_ = std::max(peak_, cache_.size());
  }

  size_t peak() const { return peak_; }

 private:
  size_t cap_;
  size_t peak_ = 0;
  std::unordered_map<std::vector<vid_t>, TreePtr, PrefixHash> cache_;
  std::deque<std::vector<vid_t>> fifo_;
};

struct SidetrackRun {
  const BiView& g;
  vid_t s, t;
  const SidetrackOptions& opts;
  TreePool pool;
  std::vector<std::uint8_t> mask;  // scratch vertex-ban mask
  KspStats stats;

  SidetrackRun(const BiView& bg, vid_t src, vid_t tgt,
               const SidetrackOptions& o)
      : g(bg), s(src), t(tgt), opts(o), pool(o.max_resident_trees),
        mask(static_cast<size_t>(bg.fwd.num_vertices()), 0) {}

  /// Reverse tree for red set = `prefix` (vertices banned from the suffix).
  /// SB computes it fresh; SB* repairs the nearest cached ancestor tree.
  TreePtr tree_for(const std::vector<vid_t>& prefix) {
    if (TreePtr hit = pool.find(prefix)) return hit;
    for (vid_t v : prefix) mask[v] = 1;
    sssp::Bans bans{mask.data(), nullptr};
    TreePtr tree;
    if (opts.resume_trees && !prefix.empty()) {
      // Longest cached ancestor (always terminates: the empty prefix / root
      // tree is inserted first).
      std::vector<vid_t> ancestor = prefix;
      TreePtr base;
      while (!base) {
        ancestor.pop_back();
        base = pool.find(ancestor);
        if (ancestor.empty() && !base) break;
      }
      stats.sssp_calls++;
      if (base) {
        sssp::ResumableDijkstra rd(g.rev, t, *base, bans);
        rd.run_to_completion();
        tree = std::make_shared<SsspResult>(rd.snapshot());
      } else {
        tree = std::make_shared<SsspResult>(sssp::dijkstra(g.rev, t, {.bans = bans}));
      }
    } else {
      stats.sssp_calls++;
      tree = std::make_shared<SsspResult>(sssp::dijkstra(g.rev, t, {.bans = bans}));
    }
    for (vid_t v : prefix) mask[v] = 0;
    pool.insert(prefix, tree);
    return tree;
  }
};

}  // namespace

KspResult sb_ksp(const BiView& g, vid_t s, vid_t t,
                 const SidetrackOptions& opts) {
  KspResult result;
  const vid_t n = g.fwd.num_vertices();
  if (s < 0 || s >= n || t < 0 || t >= n || opts.base.k <= 0) return result;

  SidetrackRun run(g, s, t, opts);

  // Root tree (empty red set) and the shortest path.
  TreePtr root = run.tree_for({});
  sssp::Path first = sssp::path_from_reverse_parents(*root, s, t);
  if (first.empty()) return result;

  std::vector<Candidate> accepted;
  accepted.push_back({std::move(first), 0});
  CandidateSet cands;

  // no-cancel: literature baseline (bench/test comparisons only, never on
  // the serving path); its options carry no CancelToken by design
  while (static_cast<int>(accepted.size()) < opts.base.k) {
    const Candidate cur = accepted.back();
    const auto& p = cur.path.verts;
    const int len = static_cast<int>(p.size());
    const std::vector<weight_t> cum = detail::cumulative_distances(g.fwd, p);

    // ONE reverse tree per extracted path (the Kurz–Mutzel economy): it is
    // computed on G minus the path's pre-deviation prefix P[0..d-1]. For
    // later deviation positions i > d the tree may route through the newly
    // red vertices P[d..i-1]; the per-candidate validity walk catches that
    // and falls back to a restricted SSSP ("repair").
    const std::vector<vid_t> tree_red(p.begin(), p.begin() + cur.dev_index);
    TreePtr tree = run.tree_for(tree_red);

    // no-cancel: deviation scan of one extracted path; same baseline-only
    // caveat as the enclosing loop
    for (int i = cur.dev_index; i < len - 1; ++i) {
      const vid_t v = p[static_cast<size_t>(i)];
      const auto banned = detail::banned_edges_at(g.fwd, accepted, p, i);

      for (int j = 0; j < i; ++j) run.mask[p[static_cast<size_t>(j)]] = 1;
      // argmin over allowed out-edges of w(e) + tree distance.
      eid_t best_e = kNoEdge;
      weight_t best = kInfDist;
      for (eid_t e = g.fwd.edge_begin(v); e < g.fwd.edge_end(v); ++e) {
        if (!g.fwd.edge_alive(e) || banned.count(e)) continue;
        const vid_t w = g.fwd.edge_target(e);
        if (!g.fwd.vertex_alive(w) || run.mask[w] || w == v) continue;
        if (tree->dist[w] == kInfDist) continue;
        const weight_t bound = g.fwd.edge_weight(e) + tree->dist[w];
        if (bound < best) {
          best = bound;
          best_e = e;
        }
      }
      sssp::Path suffix;
      if (best_e != kNoEdge) {
        // Validity walk: the tree avoids P[0..d-1] by construction, but may
        // hit v or one of the red-after-d vertices P[d..i-1].
        const vid_t w0 = g.fwd.edge_target(best_e);
        bool valid = true;
        for (vid_t u = w0; u != kNoVertex; u = tree->parent[u]) {
          if (u == v || run.mask[u]) {
            valid = false;
            break;
          }
          if (u == t) break;
        }
        if (valid) {
          run.stats.tree_shortcuts++;
          suffix.verts.push_back(v);
          for (vid_t u = w0; u != kNoVertex; u = tree->parent[u]) {
            suffix.verts.push_back(u);
            if (u == t) break;
          }
          suffix.dist = best;
          if (suffix.verts.back() != t) suffix.verts.clear();
        } else {
          // Repair: restricted SSSP from v (Yen fallback).
          run.stats.sssp_calls++;
          sssp::DijkstraOptions dj;
          dj.target = t;
          dj.bans = {run.mask.data(), &banned};
          auto r = sssp::dijkstra(g.fwd, v, dj);
          suffix = sssp::path_from_parents(r, v, t);
        }
      }
      for (int j = 0; j < i; ++j) run.mask[p[static_cast<size_t>(j)]] = 0;
      if (suffix.empty()) continue;

      Candidate cand;
      cand.dev_index = i;
      cand.path.verts.assign(p.begin(), p.begin() + i);
      cand.path.verts.insert(cand.path.verts.end(), suffix.verts.begin(),
                             suffix.verts.end());
      cand.path.dist = cum[static_cast<size_t>(i)] + suffix.dist;
      cands.push(std::move(cand.path), cand.dev_index);
    }

    auto next = cands.pop_min();
    if (!next) break;
    accepted.push_back(std::move(*next));
  }

  result.paths.reserve(accepted.size());
  for (Candidate& c : accepted) result.paths.push_back(std::move(c.path));
  run.stats.candidates_generated = static_cast<int>(cands.total_generated());
  run.stats.trees_stored = run.pool.peak();
  result.stats = run.stats;
  return result;
}

KspResult sb_ksp(const graph::CsrGraph& g, vid_t s, vid_t t,
                 const KspOptions& opts) {
  SidetrackOptions so;
  so.base = opts;
  so.resume_trees = false;
  return sb_ksp(BiView::of(g), s, t, so);
}

KspResult sb_star_ksp(const graph::CsrGraph& g, vid_t s, vid_t t,
                      const KspOptions& opts) {
  SidetrackOptions so;
  so.base = opts;
  so.resume_trees = true;
  return sb_ksp(BiView::of(g), s, t, so);
}

}  // namespace peek::ksp
