// Lazy KSP enumeration: paths are produced one at a time, shortest first,
// with no K fixed up front. This is the natural interface for consumers that
// scan candidates until one satisfies an external predicate — e.g. the
// routing-and-spectrum-assignment loop of §1 ("iteratively checks the
// availability of the paths in increasing order") — and stops paying for
// deviations the moment it stops asking.
//
// Internally an incremental OptYen: a static reverse shortest-path tree
// answers deviations when its path avoids the prefix; otherwise a restricted
// Dijkstra runs. Calling next() K times costs the same as optyen_ksp with
// that K (plus nothing for paths never requested).
#pragma once

#include <optional>

#include "ksp/path_set.hpp"
#include "sssp/dijkstra.hpp"
#include "sssp/view.hpp"

namespace peek::ksp {

class KspStream {
 public:
  /// The BiView must outlive the stream. Prefer the CsrGraph overload unless
  /// streaming over a compacted view.
  KspStream(const sssp::BiView& g, vid_t s, vid_t t);
  KspStream(const graph::CsrGraph& g, vid_t s, vid_t t);

  /// Warm-start: adopt a precomputed reverse shortest-path tree from t
  /// (dist[v] = shortest v->t distance, parent[v] = v's successor toward t)
  /// instead of running the priming SSSP on the first next() call. The
  /// serving layer (serve/query_engine) uses this to recycle the pruning
  /// stage's to-target tree, translated into compacted ids.
  KspStream(const sssp::BiView& g, vid_t s, vid_t t, sssp::SsspResult rtree);

  /// The next shortest simple path, or nullopt when the path space is
  /// exhausted — or when `cancel` tripped mid-deviation. The i-th successful
  /// call returns the i-th shortest path. A cancelled call leaves the stream
  /// valid and NOT exhausted (check exhausted() to tell the cases apart): any
  /// partially-expanded round is simply re-run by the next un-cancelled call,
  /// with the candidate pool deduplicating repeated pushes.
  std::optional<sssp::Path> next(const fault::CancelToken* cancel = nullptr);

  /// True when the path space is genuinely dry (nullopt from next() without
  /// a tripped token). Never set by cancellation.
  bool exhausted() const { return exhausted_; }

  /// Paths produced so far.
  const std::vector<sssp::Path>& produced() const { return produced_; }
  const KspStats& stats() const { return stats_; }

  /// Approximate resident bytes: the reverse tree, the accepted and
  /// produced paths, the candidate pool (CandidateSet::bytes) and the
  /// deviation mask. The serving cache charges a snapshot for these.
  size_t bytes() const;

  /// The reverse shortest-path tree deviations are answered from, for
  /// persistence (recover/): a restored stream warm-started with this exact
  /// tree replays byte-identical tie-breaks. Valid only when
  /// has_reverse_tree() — i.e. after warm-start construction or the first
  /// successful next().
  const sssp::SsspResult& reverse_tree() const { return rtree_; }
  bool has_reverse_tree() const { return have_rtree_ || primed_; }

 private:
  /// Returns false when `cancel` tripped before the round finished — some
  /// deviations may be missing, so the caller must not pop a candidate.
  bool expand_deviations(const Candidate& cur,
                         const fault::CancelToken* cancel);

  sssp::BiView g_;
  vid_t s_, t_;
  sssp::SsspResult rtree_;
  std::vector<Candidate> accepted_;
  CandidateSet cands_;
  std::vector<std::uint8_t> mask_;
  std::vector<sssp::Path> produced_;
  KspStats stats_;
  bool primed_ = false;
  bool exhausted_ = false;
  bool have_rtree_ = false;  // warm-start constructor supplied rtree_
};

}  // namespace peek::ksp
