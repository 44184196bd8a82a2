#include "core/upper_bound.hpp"

#include <algorithm>
#include <atomic>
#include <functional>
#include <memory>
#include <unordered_set>
#include <utility>

#include "fault/injector.hpp"
#include "obs/metrics.hpp"
#include "parallel/parallel_for.hpp"
#include "sssp/delta_stepping.hpp"
#include "sssp/heap.hpp"

namespace peek::core {

namespace {

/// (spSrc[v] + spTgt[v], v): a vertex keyed by the length of the shortest
/// s->t walk through it (Lemma 4.1).
using Candidate = std::pair<weight_t, vid_t>;

/// The bounded search's first scan bound is d(s, t)·(1 + kFirstSlack); a
/// bound that yields fewer than K valid paths grows by kGrowth.
constexpr weight_t kFirstSlack = 0.05;
constexpr weight_t kGrowth = 1.25;

/// The bounded search's pruning bound B′ for scan bound B. Its slack is far
/// wider than Step 4's keep-side slack (b·1e-12 + 1e-12), so every kept
/// vertex, and every vertex on its tree paths (whose sums differ from its own
/// only by rounding), is settled exactly.
weight_t prune_bound(weight_t b) { return b + (b * 1e-9 + 1e-9); }

/// Step 3 (Algorithm 2 lines 5-9): walks candidates in increasing (dist, id)
/// order and keeps the K-th valid, distinct combined path. The walk stops
/// after K + λ vertices, so it pops a min-heap built in O(n) instead of
/// sorting all n as §6.2 does. It resumes across calls: the bounded search
/// hands it one band of candidates per round.
class BoundScan {
 public:
  BoundScan(int k, fault::CancelPoll& poll) : k_(k), poll_(poll) {}

  /// Walks `band`, which must hold every candidate keyed above the previous
  /// band and none keyed at or below it. True once the K-th valid path is
  /// found; false when the band runs out or the poll stops the walk. The
  /// band keeps its entries, in heap order.
  bool walk(std::vector<Candidate>& band, const sssp::SsspResult& fwd,
            const sssp::SsspResult& rev, vid_t s, vid_t t) {
    std::make_heap(band.begin(), band.end(), std::greater<>{});
    for (auto end = band.end(); end != band.begin(); --end) {
      std::pop_heap(band.begin(), end, std::greater<>{});
      const auto [d, v] = *(end - 1);
      if (poll_.should_stop()) return false;
      inspected_++;
      if (!sssp::combined_path_is_simple(fwd, rev, s, v, t)) {
        non_simple_++;
        continue;
      }
      sssp::Path p = sssp::combined_path(fwd, rev, s, v, t);
      if (p.empty() || !distinct_.insert(std::move(p)).second) {
        duplicates_++;
        continue;
      }
      if (++valid_ == k_) {
        b_ = d;
        return true;
      }
    }
    return false;
  }

  /// b: the K-th valid path's distance, kInfDist while fewer were found.
  weight_t bound() const { return b_; }
  int inspected() const { return inspected_; }

  void publish() const {
    PEEK_COUNT_ADD("prune.inspected_paths", inspected_);
    PEEK_COUNT_ADD("prune.valid_paths", valid_);
    PEEK_COUNT_ADD("prune.non_simple_paths", non_simple_);
    PEEK_COUNT_ADD("prune.duplicate_paths", duplicates_);
  }

 private:
  const int k_;
  fault::CancelPoll& poll_;
  std::unordered_set<sssp::Path, sssp::PathHash> distinct_;
  weight_t b_ = kInfDist;
  int inspected_ = 0;
  int valid_ = 0;
  std::int64_t non_simple_ = 0, duplicates_ = 0;
};

/// One end of the bounded bidirectional search (DESIGN.md §5, "Bounded prune
/// search"): Dijkstra over `csr` (the forward CSR from s, the reverse CSR
/// from t), whose tree becomes spSrc or spTgt. It settles in two stages. The
/// ball is plain Dijkstra, so its distances are exact. The continuation past
/// the ball is pruned by a bound, and is rewound to the ball before the next
/// bound. Both stages pop in (dist, id) order, as sssp::dijkstra does.
class Side {
 public:
  Side(const CsrGraph& csr, vid_t root)
      : csr_(csr),
        heap_(csr.num_vertices()),
        state_(static_cast<size_t>(csr.num_vertices()), kUnseen) {
    tree_.dist.assign(state_.size(), kInfDist);
    tree_.parent.assign(state_.size(), kNoVertex);
    tree_.dist[root] = 0;
    state_[root] = kQueued;
    heap_.push_or_decrease(root, 0);
  }

  /// Least queued key. Before the continuation runs, every vertex outside
  /// the ball lies at least this far away. kInfDist once the heap is empty.
  weight_t radius() const {
    return heap_.empty() ? kInfDist : heap_.top().dist;
  }
  bool settled(vid_t v) const { return state_[v] == kSettled; }
  weight_t dist(vid_t v) const { return tree_.dist[v]; }
  const sssp::SsspResult& tree() const { return tree_; }
  sssp::SsspResult take_tree() { return std::move(tree_); }
  std::int64_t settle_count() const { return settle_count_; }

  /// Settles the least queued vertex into the ball and relaxes all of its
  /// edges. An edge into a vertex that `other` has reached closes an s-t
  /// walk, whose length lowers `mu`.
  void expand(const Side& other, weight_t& mu) {
    const auto [d, u] = heap_.pop();
    state_[u] = kSettled;
    ball_.push_back(u);
    settle_count_++;
    for (eid_t e = csr_.edge_begin(u); e < csr_.edge_end(u); ++e) {
      const vid_t v = csr_.edge_target(e);
      const weight_t nd = d + csr_.edge_weight(e);
      if (nd < tree_.dist[v]) {
        if (state_[v] == kUnseen) state_[v] = kQueued;
        tree_.dist[v] = nd;
        tree_.parent[v] = u;
        heap_.push_or_decrease(v, nd);
      }
      if (other.state_[v] != kUnseen) mu = std::min(mu, nd + other.dist(v));
    }
  }

  /// Grows the ball until every queued key exceeds `r`. False if the poll
  /// stopped it.
  bool grow(weight_t r, const Side& other, weight_t& mu,
            fault::CancelPoll& poll) {
    while (!heap_.empty() && heap_.top().dist <= r) {
      if (poll.should_stop()) return false;
      expand(other, mu);
    }
    return true;
  }

  /// The pruned continuation: settles every vertex v with
  /// dist(v) + spOther[v] <= bound, exactly, where `h(v)` must not exceed
  /// the other side's true distance for any such v. Only entries with
  /// dist + h <= bound are queued: the ball's frontier is filtered once, and
  /// a relaxation queues v only if nd + h(v) <= bound. False if the poll
  /// stopped it.
  template <class Heuristic>
  bool settle_pruned(weight_t bound, const Heuristic& h,
                     fault::CancelPoll& poll) {
    continued_ = true;
    for (const auto& q : heap_.entries()) {
      frontier_.push_back({q.v, q.dist, tree_.parent[q.v]});
    }
    heap_.clear();
    for (const Frontier& f : frontier_) {
      if (f.dist + h(f.v) <= bound) heap_.push_or_decrease(f.v, f.dist);
    }
    while (!heap_.empty()) {
      const auto [d, u] = heap_.pop();
      if (poll.should_stop()) return false;
      state_[u] = kSettled;
      continuation_.push_back(u);
      settle_count_++;
      for (eid_t e = csr_.edge_begin(u); e < csr_.edge_end(u); ++e) {
        const vid_t v = csr_.edge_target(e);
        const weight_t nd = d + csr_.edge_weight(e);
        if (nd >= tree_.dist[v] || nd + h(v) > bound) continue;
        if (state_[v] == kUnseen) {
          state_[v] = kQueued;
          reached_.push_back(v);
        }
        tree_.dist[v] = nd;
        tree_.parent[v] = u;
        heap_.push_or_decrease(v, nd);
      }
    }
    return true;
  }

  /// Undoes settle_pruned: back to the ball and its frontier.
  void rewind() {
    if (!continued_) return;
    for (vid_t v : reached_) {
      state_[v] = kUnseen;
      tree_.dist[v] = kInfDist;
      tree_.parent[v] = kNoVertex;
    }
    heap_.clear();
    for (const Frontier& f : frontier_) {
      state_[f.v] = kQueued;
      tree_.dist[f.v] = f.dist;
      tree_.parent[f.v] = f.parent;
      heap_.push_or_decrease(f.v, f.dist);
    }
    reached_.clear();
    continuation_.clear();
    frontier_.clear();
    continued_ = false;
  }

  /// Calls `fn(v)` for every settled vertex.
  template <class Fn>
  void for_each_settled(const Fn& fn) const {
    for (vid_t v : ball_) fn(v);
    for (vid_t v : continuation_) fn(v);
  }

  /// Resets every vertex this side touched but that is not settled from both
  /// ends with spSrc + spTgt <= bound to kInfDist / kNoVertex: PruneResult's
  /// contract for the bounded trees. Scrubbing one side and then the other
  /// applies the same test to both, since a vertex the first pass resets
  /// sums to kInfDist in the second.
  void scrub(const Side& other, weight_t bound) {
    auto reset = [&](vid_t v) {
      if (settled(v) && other.settled(v) && dist(v) + other.dist(v) <= bound)
        return;
      tree_.dist[v] = kInfDist;
      tree_.parent[v] = kNoVertex;
    };
    for (vid_t v : ball_) reset(v);
    for (const Frontier& f : frontier_) reset(f.v);
    for (vid_t v : reached_) reset(v);
    for (const auto& q : heap_.entries()) reset(q.v);
  }

 private:
  enum : std::uint8_t { kUnseen, kQueued, kSettled };
  /// A queued ball entry, saved so rewind() can restore it.
  struct Frontier {
    vid_t v;
    weight_t dist;
    vid_t parent;
  };

  const CsrGraph& csr_;
  sssp::SsspResult tree_;
  sssp::IndexedHeap heap_;
  std::vector<std::uint8_t> state_;
  std::vector<vid_t> ball_;          // settled by the ball, in settle order
  std::vector<vid_t> continuation_;  // settled by the continuation
  std::vector<vid_t> reached_;       // first queued by the continuation
  std::vector<Frontier> frontier_;   // the ball's heap when it began
  bool continued_ = false;
  std::int64_t settle_count_ = 0;
};

/// Appends every vertex both sides settled with lo < spSrc + spTgt <= hi.
void collect(const Side& fwd, const Side& rev, weight_t lo, weight_t hi,
             std::vector<Candidate>& out) {
  fwd.for_each_settled([&](vid_t v) {
    if (!rev.settled(v)) return;
    const weight_t d = fwd.dist(v) + rev.dist(v);
    if (d > lo && d <= hi) out.emplace_back(d, v);
  });
}

/// Steps 1-3 by the bounded bidirectional search (DESIGN.md §5, "Bounded
/// prune search"): exact spSrc / spTgt on V_B′ = {v : spSrc[v] + spTgt[v] <=
/// B′} only, with B grown until the scan finds b. Fills r's trees, scrubbed
/// to V_B′, and `cand` with the V_B′ vertices Step 4 may keep. False when t
/// is unreachable or the poll stopped the search (r.status then says which).
bool bounded_search(const CsrGraph& g, vid_t s, vid_t t, BoundScan& scan,
                    fault::CancelPoll& poll, PruneResult& r,
                    std::vector<Candidate>& cand) {
  Side fwd(g, s), rev(g.reverse(), t);
  std::int64_t rounds = 0;
  weight_t bound = -kInfDist;  // V_B′ is empty until the first round
  auto finish = [&](bool found) {
    fwd.scrub(rev, bound);
    rev.scrub(fwd, bound);
    r.from_source = fwd.take_tree();
    r.to_target = rev.take_tree();
    PEEK_COUNT_ADD("prune.bounded.rounds", rounds);
    PEEK_COUNT_ADD("prune.bounded.settled",
                   fwd.settle_count() + rev.settle_count());
    r.status = poll.why();
    return found && r.status == fault::Status::kOk;
  };

  // Meet: advance the side with the nearer frontier until the two radii
  // cover mu, the best s-t walk seen; mu is then d(s, t). A side that runs
  // dry first leaves mu at kInfDist: t is unreachable.
  weight_t mu = s == t ? 0 : kInfDist;
  {
    PEEK_TIMER_SCOPE("prune.sssp");
    while (fwd.radius() + rev.radius() < mu) {
      if (poll.should_stop()) return finish(false);
      if (fwd.radius() <= rev.radius()) {
        fwd.expand(rev, mu);
      } else {
        rev.expand(fwd, mu);
      }
    }
  }
  if (mu == kInfDist) return finish(false);

  PEEK_FAULT_STALL("prune.scan.stall");
  std::vector<Candidate> band;
  weight_t b_scan = mu * (1 + kFirstSlack);
  weight_t scanned = -kInfDist;  // every candidate up to here is walked
  for (;;) {
    if (poll.should_stop()) return finish(false);
    rounds++;
    bound = prune_bound(b_scan);
    bool complete = false;
    {
      PEEK_TIMER_SCOPE("prune.sssp");
      fwd.rewind();
      rev.rewind();
      // Balls of radius B′/2, then each side's pruned continuation. h is
      // the other side's exact distance where it has settled v. The forward
      // continuation reads only the reverse ball, whose radius bounds every
      // vertex outside it. The reverse continuation reads the forward side
      // after its continuation, which has settled every vertex of V_B′: a
      // vertex it has not settled is out of bounds.
      if (!fwd.grow(bound / 2, rev, mu, poll) ||
          !rev.grow(bound / 2, fwd, mu, poll)) {
        return finish(false);
      }
      complete = fwd.radius() == kInfDist && rev.radius() == kInfDist;
      const weight_t r_rev = rev.radius();
      const auto h_fwd = [&](vid_t v) {
        return rev.settled(v) ? rev.dist(v) : r_rev;
      };
      if (!fwd.settle_pruned(bound, h_fwd, poll)) return finish(false);
      const auto h_rev = [&](vid_t v) {
        return fwd.settled(v) ? fwd.dist(v) : kInfDist;
      };
      if (!rev.settle_pruned(bound, h_rev, poll)) return finish(false);
    }
    // Exact candidates: every sum up to B (B′ keeps a margin past it), or
    // every finite sum once both balls hold all they can reach.
    const weight_t hi = complete ? kInfDist : b_scan;
    band.clear();
    collect(fwd, rev, scanned, hi, band);
    {
      PEEK_TIMER_SCOPE("prune.scan");
      if (scan.walk(band, fwd.tree(), rev.tree(), s, t)) break;
    }
    if (poll.why() != fault::Status::kOk) return finish(false);
    if (complete) break;  // fewer than K valid paths: b = inf
    scanned = hi;
    // A zero bound cannot grow by a factor; only the full trees remain.
    b_scan = b_scan > 0 ? b_scan * kGrowth : kInfDist;
  }
  collect(fwd, rev, -kInfDist, bound, cand);
  return finish(true);
}

PruneResult prune_impl(const CsrGraph& g, vid_t s, vid_t t,
                       const PruneOptions& opts) {
  PruneResult r;
  const vid_t n = g.num_vertices();
  r.vertex_keep.assign(static_cast<size_t>(n), 0);
  PEEK_COUNT_INC("prune.runs");

  fault::CancelPoll poll(opts.cancel);
  BoundScan scan(opts.k, poll);
  // Step 4 keeps the candidates within b.
  std::vector<Candidate> cand;
  const sssp::SsspResult* fwd = opts.reuse_from_source;
  const sssp::SsspResult* rev = opts.reuse_to_target;
  PEEK_FAULT_ALLOC("prune.sssp.alloc");
  if (!opts.parallel && !(fwd && rev)) {
    // Steps 1-3, serial: the bounded search settles only what b needs.
    if (!bounded_search(g, s, t, scan, poll, r, cand)) {
      if (r.status == fault::Status::kOk) {
        PEEK_COUNT_INC("prune.unreachable_queries");
      }
      return r;
    }
    fwd = &r.from_source;
    rev = &r.to_target;
  } else {
    // Step 1 on full trees: the caller's (the serving layer's artifact
    // cache), else Δ-stepping's.
    {
      PEEK_TIMER_SCOPE("prune.sssp");
      sssp::DeltaSteppingOptions ds;
      ds.delta = opts.delta;
      ds.cancel = opts.cancel;
      if (fwd) {
        PEEK_COUNT_INC("prune.reused_trees");
      } else {
        r.from_source = sssp::delta_stepping(sssp::GraphView(g), s, ds);
        if (r.from_source.status != fault::Status::kOk) {
          r.status = r.from_source.status;
          return r;
        }
        fwd = &r.from_source;
      }
      if (rev) {
        PEEK_COUNT_INC("prune.reused_trees");
      } else {
        r.to_target = sssp::reverse_delta_stepping(g, t, ds);
        if (r.to_target.status != fault::Status::kOk) {
          r.status = r.to_target.status;
          return r;
        }
        rev = &r.to_target;
      }
    }
    if (rev->dist[s] == kInfDist) {
      // t unreachable: no path at all; prune everything.
      PEEK_COUNT_INC("prune.unreachable_queries");
      return r;
    }

    // Step 2: distance sums (Algorithm 2 lines 3-4).
    for (vid_t v = 0; v < n; ++v) {
      const weight_t a = fwd->dist[v], c = rev->dist[v];
      if (a != kInfDist && c != kInfDist) cand.emplace_back(a + c, v);
    }

    // Step 3.
    PEEK_TIMER_SCOPE("prune.scan");
    PEEK_FAULT_STALL("prune.scan.stall");
    scan.walk(cand, *fwd, *rev, s, t);
    if (poll.why() != fault::Status::kOk) {
      r.status = poll.why();
      return r;
    }
  }
  scan.publish();
  const weight_t b = scan.bound();
  r.upper_bound = b;
  r.inspected_paths = scan.inspected();

  // Step 4: prune (lines 10-13). Vertices off every s-t walk always go; with
  // fewer than K estimated paths (b == inf) nothing else can.
  // Keep-side relative epsilon: vertices on the K-th path itself can sum
  // spSrc[v] + spTgt[v] an ulp above b, because that sum associates
  // differently than the walk that produced b — without slack the K-th path
  // loses a vertex and the result silently degrades to the (K+1)-th.
  // Under-pruning is sound (Theorem 4.3 bounds what may be deleted, not what
  // must be); this mirrors the tight-edge rule's slack below.
  const weight_t keep_slack = b == kInfDist ? 0 : b * 1e-12 + 1e-12;
  {
    PEEK_TIMER_SCOPE("prune.mark");
    std::atomic<vid_t> kept{0};
    auto keep_body = [&](size_t i) {
      const auto [d, v] = cand[i];
      if (d <= b + keep_slack) {
        r.vertex_keep[v] = 1;
        kept.fetch_add(1, std::memory_order_relaxed);
      }
    };
    if (opts.parallel) par::parallel_for(size_t{0}, cand.size(), keep_body);
    else for (size_t i = 0; i < cand.size(); ++i) keep_body(i);
    r.kept_vertices = kept.load();
  }
  PEEK_COUNT_ADD("prune.kept_vertices", r.kept_vertices);
  PEEK_COUNT_ADD("prune.pruned_vertices", n - r.kept_vertices);
  if (n > 0) {
    PEEK_GAUGE_SET("prune.kept_vertex_ratio",
                   static_cast<double>(r.kept_vertices) / n);
  }

  if (b == kInfDist) {
    r.edge_keep = nullptr;  // keep all edges between kept vertices
  } else if (opts.tight_edge_prune) {
    auto src = std::make_shared<std::vector<weight_t>>(fwd->dist);
    auto tgt = std::make_shared<std::vector<weight_t>>(rev->dist);
    // The K-th path's own edges can land an ulp above b because spSrc + w +
    // spTgt sums in a different order than the path walk that produced b;
    // a relative epsilon on the KEEP side is sound (it can only under-prune).
    const weight_t slack = b * 1e-12 + 1e-12;
    r.edge_keep = [src, tgt, b, slack](vid_t u, vid_t v, weight_t w) {
      if (w > b) return false;
      const weight_t a = (*src)[u], c = (*tgt)[v];
      return a != kInfDist && c != kInfDist && a + w + c <= b + slack;
    };
  } else {
    r.edge_keep = [b](vid_t, vid_t, weight_t w) { return w <= b; };
  }
  return r;
}

}  // namespace

PruneResult k_upper_bound_prune(const CsrGraph& g, vid_t s, vid_t t,
                                const PruneOptions& opts) {
  try {
    return prune_impl(g, s, t, opts);
  } catch (const std::bad_alloc&) {
    // Real or injected (fault::InjectedFault) allocation failure: surface as
    // a typed status instead of crashing the serving thread.
    PruneResult r;
    r.status = fault::Status::kResourceExhausted;
    return r;
  }
}

}  // namespace peek::core
