// The workloads' seeded inputs: what every run sends is a function of the
// seed (and of --seconds, which sizes the lists) and of nothing else.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "dyn/dynamic_graph.hpp"
#include "dyn/update_batch.hpp"
#include "harness.hpp"

namespace perfbench {

/// One cold query: a pair of the graph with index `graph`.
struct ColdQuery {
  int graph = 0;
  vid_t s = 0;
  vid_t t = 0;
};

/// `per_graph` distinct pairs of each graph, shuffled into one list.
std::vector<ColdQuery> cold_requests(
    const std::vector<const peek::graph::CsrGraph*>& graphs, size_t per_graph,
    std::uint64_t seed);

/// One fleet read: a pool index (which is also its Zipf rank) and a K.
struct FleetRequest {
  std::uint32_t pair = 0;
  int k = 8;
};

/// `n` reads: Zipf(`theta`) ranks over a pool of `pool` pairs, with K drawn
/// from 8 / 32 / 128 at exactly 6 : 3 : 1. `purpose` separates the timed
/// list from the warm-up list.
std::vector<FleetRequest> zipf_requests(size_t pool, size_t n, double theta,
                                        std::uint64_t seed,
                                        std::uint64_t purpose);

/// The writer's seeded batch sequence. Batch i depends only on the seed and
/// on batches 0..i-1 (through the source's own copy of the graph), so the
/// sequence is the same in every run; only how many batches fit in a run
/// depends on timing. Every fourth batch inserts or deletes edges; the rest
/// only reweight. Each batch has 1-4 ops, and each op targets, with even
/// odds, an edge on the current shortest path of one of the `hot` most
/// popular pool pairs or an edge picked uniformly.
class BatchSource {
 public:
  BatchSource(const peek::graph::CsrGraph& g0,
              std::vector<std::pair<vid_t, vid_t>> hot, std::uint64_t seed);

  peek::dyn::UpdateBatch next();
  /// Mirrors an applied batch into the source's copy; returns the new CSR.
  std::shared_ptr<const peek::graph::CsrGraph> advance(
      const peek::dyn::UpdateBatch& b);
  const std::shared_ptr<const peek::graph::CsrGraph>& current() const {
    return cur_;
  }

 private:
  std::pair<vid_t, vid_t> pick_edge();
  double new_weight() { return 0.05 + 0.95 * rng_.unit(); }

  peek::dyn::DynamicGraph shadow_;
  std::shared_ptr<const peek::graph::CsrGraph> cur_;
  std::vector<std::pair<vid_t, vid_t>> hot_;
  Rng rng_;
  long index_ = 0;
};

}  // namespace perfbench
