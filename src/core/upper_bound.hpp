// K upper bound pruning (§4, Algorithm 2) — PeeK's central contribution.
//
// Two SSSPs give, for every vertex v, the tightest possible distance of an
// s->t path through v: dist[v] = spSrc[v] + spTgt[v] (Lemma 4.1). Scanning
// vertices in increasing dist order and keeping only loop-free, distinct
// combined paths, the K-th such distance is a sound upper bound b on the
// K-th shortest path (Lemma 4.2): every vertex with dist[v] > b — and every
// edge heavier than b — can be deleted without changing the result
// (Theorem 4.3).
//
// The serial prune does not run the paper's two full SSSPs. A bounded
// bidirectional search settles only V_B = {v : spSrc[v] + spTgt[v] <= B}, for
// a bound B it grows until the scan finds b (DESIGN.md §5, "Bounded prune
// search"). b, the keep mask and every kept vertex's distances and parents
// come out bit-identical to the full-tree prune.
#pragma once

#include "compact/edge_swap.hpp"
#include "fault/cancel.hpp"
#include "fault/status.hpp"
#include "sssp/path.hpp"

namespace peek::core {

using graph::CsrGraph;

struct PruneOptions {
  int k = 8;
  /// Data-parallel pruning (§6.1): Δ-stepping SSSPs, parallel distance sums
  /// and keep mask. The Step 3 scan is serial in both modes.
  bool parallel = false;
  weight_t delta = 0;  // Δ-stepping bucket width (<=0 auto)
  /// Extension beyond the paper's Algorithm 2 line 13 (`w(e) > b`): also
  /// prune edge (u,v) when spSrc[u] + w + spTgt[v] > b, which is sound by
  /// the same Lemma 4.1 argument and strictly stronger.
  bool tight_edge_prune = false;
  /// Precomputed full SSSP trees (the serving layer's cross-query artifact
  /// cache, serve/artifact_cache.hpp): the forward tree depends only on s and
  /// the reverse tree only on t. The prune reads a supplied tree in place; it
  /// must have been computed on this exact graph from this s / to this t.
  /// The serial prune uses them only when both are supplied; otherwise it
  /// runs the bounded search, which needs neither.
  const sssp::SsspResult* reuse_from_source = nullptr;
  const sssp::SsspResult* reuse_to_target = nullptr;
  /// Cooperative cancellation: threaded into both SSSPs (polled once per
  /// settled vertex) and polled in the Step 3 scan. A cancelled prune
  /// returns early with `status` set and no usable keep mask. Null = never
  /// cancelled.
  const fault::CancelToken* cancel = nullptr;
};

struct PruneResult {
  /// Byte per vertex: survives the pruning?
  std::vector<std::uint8_t> vertex_keep;
  /// The K upper bound b (kInfDist if fewer than K estimated paths exist —
  /// then only unreachable vertices are pruned).
  weight_t upper_bound = kInfDist;
  /// Position-independent edge filter capturing b (and, when tight pruning
  /// is on, the two distance arrays); feed to any compaction strategy.
  compact::EdgeKeep edge_keep;
  /// spSrc / spTgt with parents. A tree the caller supplied through
  /// `reuse_*` is not copied here: its field stays empty. The parallel prune
  /// fills full trees. The serial bounded search fills exact values only on
  /// the vertices it settled from both ends within its final bound, a set
  /// that holds every kept vertex and their tree paths to s and t; every
  /// other vertex reads kInfDist / kNoVertex.
  sssp::SsspResult from_source;
  sssp::SsspResult to_target;
  vid_t kept_vertices = 0;
  /// Paths inspected while identifying b: K valid ones + λ invalid/duplicate.
  int inspected_paths = 0;
  /// kOk, or why the prune stopped early (cancellation, deadline, injected
  /// allocation failure). Non-kOk results carry no usable keep mask.
  fault::Status::Code status = fault::Status::kOk;
};

PruneResult k_upper_bound_prune(const CsrGraph& g, vid_t s, vid_t t,
                                const PruneOptions& opts = {});

}  // namespace peek::core
