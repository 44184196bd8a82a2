// Resumable / tree-seeded Dijkstra — the SSSP engine behind SB* (§8).
//
// SB* avoids recomputing a reverse shortest-path tree from scratch: when the
// candidate's prefix changes, distances that are unaffected by the newly
// banned vertices are kept, the poisoned subtree is invalidated, and the
// search resumes from the surviving frontier. This class implements both that
// "repair" seeding and plain incremental settling.
#pragma once

#include <unordered_set>
#include <vector>

#include "sssp/dijkstra.hpp"
#include "sssp/heap.hpp"

namespace peek::sssp {

class ResumableDijkstra {
 public:
  /// Fresh search from `source`. `bans` must outlive the object.
  ResumableDijkstra(const GraphView& view, vid_t source, Bans bans = {});

  /// Repair-seeded search: starts from `base` (a complete SSSP tree computed
  /// with FEWER bans), invalidates every vertex whose tree path runs through
  /// a now-banned vertex or edge, and re-opens the frontier. Settling then
  /// only re-explores the poisoned region (the SB* trick).
  ResumableDijkstra(const GraphView& view, vid_t source, const SsspResult& base,
                    Bans bans);

  /// Cone-repair seeding (dyn/repair.hpp): `view` is the POST-mutation graph
  /// and `rview` its transpose; `base` is a complete pre-mutation tree from
  /// the same source. Every vertex with base.dist < threshold is provably
  /// unaffected by the mutation (dyn::cone_threshold) and is kept settled;
  /// the frontier re-opens by relaxing the surviving tails of each poisoned
  /// vertex's in-edges — O(cone-incident edges), not O(survivor edges).
  /// run_to_completion() then yields the exact post-mutation tree.
  ResumableDijkstra(const GraphView& view, const GraphView& rview, vid_t source,
                    const SsspResult& base, weight_t threshold);

  /// Runs until `v` is settled (or the heap empties). Returns dist[v].
  weight_t ensure_settled(vid_t v);

  /// Runs to completion.
  void run_to_completion();

  bool settled(vid_t v) const { return settled_[v] != 0; }
  weight_t dist(vid_t v) const { return dist_[v]; }
  vid_t parent(vid_t v) const { return parent_[v]; }
  const std::vector<weight_t>& distances() const { return dist_; }
  const std::vector<vid_t>& parents() const { return parent_; }

  /// Snapshot as a plain SsspResult (copies).
  SsspResult snapshot() const { return {dist_, parent_}; }

 private:
  void relax_out_edges(vid_t u);
  void step();  // settle one vertex

  GraphView view_;
  vid_t source_;
  Bans bans_;
  std::vector<weight_t> dist_;
  std::vector<vid_t> parent_;
  std::vector<std::uint8_t> settled_;
  IndexedHeap heap_;
};

}  // namespace peek::sssp
