#include "ksp/stream.hpp"

#include "ksp/optyen.hpp"
#include "ksp/yen_engine.hpp"

namespace peek::ksp {

KspStream::KspStream(const sssp::BiView& g, vid_t s, vid_t t)
    : g_(g), s_(s), t_(t) {
  const vid_t n = g_.fwd.num_vertices();
  mask_.assign(static_cast<size_t>(n), 0);
  if (s_ < 0 || s_ >= n || t_ < 0 || t_ >= n) exhausted_ = true;
}

KspStream::KspStream(const graph::CsrGraph& g, vid_t s, vid_t t)
    : KspStream(sssp::BiView::of(g), s, t) {}

KspStream::KspStream(const sssp::BiView& g, vid_t s, vid_t t,
                     sssp::SsspResult rtree)
    : KspStream(g, s, t) {
  rtree_ = std::move(rtree);
  have_rtree_ = true;
}

size_t KspStream::bytes() const {
  size_t total = sizeof(KspStream) - sizeof(CandidateSet) + cands_.bytes();
  total += rtree_.dist.capacity() * sizeof(weight_t) +
           rtree_.parent.capacity() * sizeof(vid_t);
  total += accepted_.capacity() * sizeof(Candidate);
  for (const Candidate& c : accepted_) total += path_heap_bytes(c.path);
  total += produced_.capacity() * sizeof(sssp::Path);
  for (const sssp::Path& p : produced_) total += path_heap_bytes(p);
  total += mask_.capacity() * sizeof(std::uint8_t);
  return total;
}

bool KspStream::expand_deviations(const Candidate& cur,
                                  const fault::CancelToken* cancel) {
  const auto& p = cur.path.verts;
  const int len = static_cast<int>(p.size());
  const auto cum = detail::cumulative_distances(g_.fwd, p);
  fault::CancelPoll poll(cancel, /*stride=*/1);
  for (int i = cur.dev_index; i < len - 1; ++i) {
    if (poll.should_stop()) return false;
    const vid_t v = p[static_cast<size_t>(i)];
    for (int j = 0; j < i; ++j) mask_[p[static_cast<size_t>(j)]] = 1;
    const auto banned = detail::banned_edges_at(g_.fwd, accepted_, p, i);
    std::vector<vid_t> prefix(p.begin(), p.begin() + i + 1);
    detail::DeviationContext ctx{prefix, v, cum[static_cast<size_t>(i)],
                                 mask_.data(), banned, i};
    bool cut_short = false;
    sssp::Path suffix = detail::optyen_tree_shortcut(g_.fwd, rtree_, t_, ctx);
    if (!suffix.empty()) {
      stats_.tree_shortcuts++;
    } else {
      stats_.sssp_calls++;
      sssp::DijkstraOptions dj;
      dj.target = t_;
      dj.bans = {mask_.data(), &banned};
      dj.cancel = cancel;
      auto r = sssp::dijkstra(g_.fwd, v, dj);
      // Discard a cancelled SSSP's suffix — it may not be shortest.
      cut_short = r.status != fault::Status::kOk;
      if (!cut_short) suffix = sssp::path_from_parents(r, v, t_);
    }
    for (int j = 0; j < i; ++j) mask_[p[static_cast<size_t>(j)]] = 0;
    if (cut_short) return false;
    if (suffix.empty()) continue;
    Candidate cand;
    cand.dev_index = i;
    cand.path.verts = std::move(prefix);
    cand.path.verts.insert(cand.path.verts.end(), suffix.verts.begin() + 1,
                           suffix.verts.end());
    cand.path.dist = cum[static_cast<size_t>(i)] + suffix.dist;
    if (cands_.push(std::move(cand.path), cand.dev_index))
      stats_.candidates_generated++;
  }
  return true;
}

std::optional<sssp::Path> KspStream::next(const fault::CancelToken* cancel) {
  if (exhausted_) return std::nullopt;
  if (!primed_) {
    if (!have_rtree_) {
      sssp::DijkstraOptions dj;
      dj.cancel = cancel;
      auto r = sssp::dijkstra(g_.rev, t_, dj);
      stats_.sssp_calls++;
      // A cancelled priming SSSP leaves no usable tree: stay unprimed so a
      // later un-cancelled call redoes it, and do NOT flag exhaustion.
      if (r.status != fault::Status::kOk) return std::nullopt;
      rtree_ = std::move(r);
      have_rtree_ = true;
    }
    primed_ = true;
    sssp::Path first = sssp::path_from_reverse_parents(rtree_, s_, t_);
    if (first.empty()) {
      exhausted_ = true;
      return std::nullopt;
    }
    accepted_.push_back({first, 0});
    produced_.push_back(first);
    return first;
  }
  // Deviations of the most recent path are expanded lazily — exactly once on
  // the un-cancelled fast path; a cancelled round is re-run in full by the
  // next call (the pool's seen-set absorbs the repeated pushes).
  if (!expand_deviations(accepted_.back(), cancel)) return std::nullopt;
  auto cand = cands_.pop_min();
  if (!cand) {
    exhausted_ = true;
    return std::nullopt;
  }
  accepted_.push_back(*cand);
  produced_.push_back(cand->path);
  return cand->path;
}

}  // namespace peek::ksp
