// Adaptive compaction selection (§5.4): pick regeneration when the remaining
// graph is a small fraction of the original (m_r < α·m), edge-swap otherwise.
#pragma once

#include "compact/regeneration.hpp"

namespace peek::compact {

enum class Strategy {
  kEdgeSwap,
  kRegeneration,
  kStatusArray,  // baseline, never chosen adaptively
};

const char* to_string(Strategy s);

/// The §5.4 rule: m_remaining < alpha * m_original → regeneration.
Strategy choose_strategy(eid_t m_remaining, eid_t m_original, double alpha);

/// Counts the edges that would survive (`vertex_keep` + `keep`) over `view`,
/// in parallel — the m_r estimate driving the adaptive choice.
eid_t count_remaining_edges(const GraphView& view,
                            const std::uint8_t* vertex_keep,
                            const EdgeKeep& keep = nullptr,
                            bool parallel = true);

}  // namespace peek::compact
