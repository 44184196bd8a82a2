// Internal: the deviation loop shared by Yen, NC, OptYen and PeeK's final
// KSP stage. Algorithm 1 gives the skeleton; the algorithms differ only in
// how they answer one question — "what is the shortest v->t path avoiding
// these prefix vertices and these deviation edges?" — so that question is a
// pluggable DeviationSolver and everything else (prefix walking, edge
// banning, candidate pooling, Lawler indices, the two-level parallel
// strategy) lives here once.
#pragma once

#include <functional>

#include "ksp/path_set.hpp"
#include "sssp/path.hpp"
#include "sssp/view.hpp"

namespace peek::ksp::detail {

using sssp::Bans;
using sssp::GraphView;

struct DeviationContext {
  /// P[0..i] — ends at the deviation vertex.
  const std::vector<vid_t>& prefix;
  vid_t deviation_vertex;     // == prefix.back()
  weight_t prefix_dist;       // sum of weights along the prefix
  /// Byte mask over vertices: prefix MINUS the deviation vertex.
  const std::uint8_t* banned_vertices;
  /// Forward-view edge ids banned at the deviation vertex (line 6).
  const std::unordered_set<eid_t>& banned_edges;
  /// Position of the deviation vertex within the accepted path.
  int position;
};

/// Returns the shortest suffix path deviation_vertex -> t under the context's
/// bans (dist = suffix distance only), or an empty path if none exists.
using DeviationSolver = std::function<sssp::Path(const DeviationContext&)>;

struct EngineHooks {
  /// Called once per accepted path before its deviations are explored
  /// (NC uses it to rebuild vertex colors). May be null.
  std::function<void(const sssp::Path&, int dev_index)> on_path_accepted;
};

/// Deviation edges banned at position `i` of path `p`: every accepted path Q
/// sharing p's first i+1 vertices contributes its edge (Q[i], Q[i+1])
/// (Algorithm 1 line 6). Shared with the sidetrack algorithms.
std::unordered_set<eid_t> banned_edges_at(const GraphView& fwd,
                                          const std::vector<Candidate>& accepted,
                                          const std::vector<vid_t>& p, int i);

/// Cumulative distance along `verts` (cum[i] = distance of verts[0..i]).
std::vector<weight_t> cumulative_distances(const GraphView& fwd,
                                           const std::vector<vid_t>& verts);

/// Runs the full KSP loop. `fwd` is the forward view of the (possibly
/// compacted) graph. When `opts.parallel`, deviations of each accepted path
/// run concurrently (the outer level of §6.1's two-level strategy) — only
/// legal when the solver is thread-safe and no on_red_advance hook is set.
KspResult run_yen_engine(const GraphView& fwd, vid_t s, vid_t t,
                         const KspOptions& opts, const DeviationSolver& solver,
                         const EngineHooks& hooks = {});

}  // namespace peek::ksp::detail
