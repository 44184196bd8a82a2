#include "ksp/yen_engine.hpp"

#include <algorithm>

#include "fault/injector.hpp"
#include "obs/metrics.hpp"
#include "parallel/parallel_for.hpp"

namespace peek::ksp::detail {

std::vector<weight_t> cumulative_distances(const GraphView& fwd,
                                           const std::vector<vid_t>& verts) {
  std::vector<weight_t> cum(verts.size(), 0);
  for (size_t i = 0; i + 1 < verts.size(); ++i) {
    const eid_t e = fwd.find_edge(verts[i], verts[i + 1]);
    cum[i + 1] = cum[i] + (e == kNoEdge ? kInfDist : fwd.edge_weight(e));
  }
  return cum;
}

std::unordered_set<eid_t> banned_edges_at(const GraphView& fwd,
                                          const std::vector<Candidate>& accepted,
                                          const std::vector<vid_t>& p, int i) {
  std::unordered_set<eid_t> banned;
  for (const Candidate& q : accepted) {
    const auto& qv = q.path.verts;
    if (static_cast<int>(qv.size()) <= i + 1) continue;
    if (!std::equal(p.begin(), p.begin() + i + 1, qv.begin())) continue;
    const eid_t e = fwd.find_edge(qv[i], qv[i + 1]);
    if (e != kNoEdge) banned.insert(e);
  }
  return banned;
}

KspResult run_yen_engine(const GraphView& fwd, vid_t s, vid_t t,
                         const KspOptions& opts, const DeviationSolver& solver,
                         const EngineHooks& hooks) {
  KspResult result;
  const vid_t n = fwd.num_vertices();
  if (s < 0 || s >= n || t < 0 || t >= n || opts.k <= 0) return result;
  if (!fwd.vertex_alive(s) || !fwd.vertex_alive(t)) return result;

  // Round-boundary cancellation: checked before each accepted-path round and
  // again before the pop that would accept a candidate, so `result.paths` is
  // always the exact top-J prefix of the answer (stride 1 — rounds are rare
  // next to the SSSP work inside them).
  fault::CancelPoll poll(opts.cancel, /*stride=*/1);

  // The shortest path: solver with the trivial prefix {s} and no bans.
  std::vector<std::uint8_t> zero_mask(static_cast<size_t>(n), 0);
  const std::unordered_set<eid_t> no_edges;
  std::vector<vid_t> trivial_prefix{s};
  sssp::Path first =
      solver({trivial_prefix, s, 0, zero_mask.data(), no_edges, 0});
  if (first.empty()) {
    if (poll.should_stop()) result.status = poll.why();
    return result;
  }

  std::vector<Candidate> accepted;
  accepted.push_back({std::move(first), 0});
  CandidateSet cands;

  // Per-thread ban masks, set and cleared per deviation (O(prefix) each) so
  // parallel deviations never share scratch state.
  const int nt = opts.parallel ? par::max_threads() : 1;
  std::vector<std::vector<std::uint8_t>> masks(
      static_cast<size_t>(nt), std::vector<std::uint8_t>(static_cast<size_t>(n), 0));

  while (static_cast<int>(accepted.size()) < opts.k) {
    if (poll.should_stop()) {
      result.status = poll.why();
      break;
    }
    const Candidate cur = accepted.back();  // copy: accepted may reallocate
    const auto& p = cur.path.verts;
    const int len = static_cast<int>(p.size());
    if (hooks.on_path_accepted) hooks.on_path_accepted(cur.path, cur.dev_index);

    const std::vector<weight_t> cum = cumulative_distances(fwd, p);

    // One deviation task per position; results buffered per thread, merged
    // serially into the candidate pool (its hash set is not thread-safe).
    std::vector<std::vector<Candidate>> found(static_cast<size_t>(nt));
    auto deviate = [&](int i) {
      PEEK_FAULT_STALL("ksp.deviation.stall");
      const vid_t v = p[static_cast<size_t>(i)];
      // In serial mode thread_id() may still be nonzero (this engine can run
      // inside an outer parallel region, e.g. a parallel batch); always use
      // slot 0 then — masks/found are sized 1.
      const auto slot =
          opts.parallel ? static_cast<size_t>(par::thread_id()) : 0;
      auto& mask = masks[slot];
      for (int j = 0; j < i; ++j) mask[p[static_cast<size_t>(j)]] = 1;
      std::vector<vid_t> prefix(p.begin(), p.begin() + i + 1);
      const std::unordered_set<eid_t> banned =
          banned_edges_at(fwd, accepted, p, i);
      sssp::Path suffix =
          solver({prefix, v, cum[static_cast<size_t>(i)], mask.data(), banned, i});
      for (int j = 0; j < i; ++j) mask[p[static_cast<size_t>(j)]] = 0;
      if (suffix.empty()) return;
      Candidate cand;
      cand.dev_index = i;
      cand.path.verts = std::move(prefix);
      cand.path.verts.insert(cand.path.verts.end(), suffix.verts.begin() + 1,
                             suffix.verts.end());
      cand.path.dist = cum[static_cast<size_t>(i)] + suffix.dist;
      found[slot].push_back(std::move(cand));
    };

    // Task-parallel scheduling stats: one round per accepted path, one task
    // per deviation position dispatched within the round.
    if (len - 1 > cur.dev_index) {
      PEEK_COUNT_ADD("ksp.deviation_tasks", len - 1 - cur.dev_index);
    }
    if (opts.parallel && !hooks.on_path_accepted) {
      PEEK_COUNT_INC("ksp.parallel_deviation_rounds");
      par::parallel_for_dynamic(cur.dev_index, len - 1, deviate, 1);
    } else {
      for (int i = cur.dev_index; i < len - 1; ++i) deviate(i);
    }
    // A tripped token means some deviation SSSPs in this round may have been
    // cut short (their suffixes were discarded) — the pool could be missing a
    // shorter candidate. Abandon BEFORE the pop so accepted paths stay the
    // exact top-J.
    if (poll.should_stop()) {
      result.status = poll.why();
      break;
    }
    for (auto& bucket : found) {
      for (Candidate& c : bucket) cands.push(std::move(c.path), c.dev_index);
    }

    auto next = cands.pop_min();
    if (!next) break;
    accepted.push_back(std::move(*next));
  }

  result.paths.reserve(accepted.size());
  for (Candidate& c : accepted) result.paths.push_back(std::move(c.path));
  result.stats.candidates_generated =
      static_cast<int>(cands.total_generated());
  PEEK_COUNT_ADD("ksp.candidates_generated", result.stats.candidates_generated);
  PEEK_COUNT_ADD("ksp.paths_accepted", accepted.size());
  return result;
}

}  // namespace peek::ksp::detail
