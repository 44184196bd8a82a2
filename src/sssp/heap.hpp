// Indexed 4-ary min-heap over vertex ids: the priority queue of every
// Dijkstra in the library (sssp::dijkstra, sssp::ResumableDijkstra,
// dyn::dynamic_dijkstra, the prune's bounded search in core/upper_bound.cpp).
// It holds at most one entry per vertex and lowers a queued key in place,
// where a lazy-deletion heap would push one entry per improvement. Entries
// are ordered on (dist, vertex id), so vertices at equal distance settle in
// id order — a deterministic function of the graph.
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

#include "graph/types.hpp"

namespace peek::sssp {

class IndexedHeap {
 public:
  struct Entry {
    weight_t dist;
    vid_t v;
  };

  /// Empty heap over vertex ids [0, n).
  explicit IndexedHeap(vid_t n) : pos_(static_cast<std::size_t>(n), kAbsent) {}

  bool empty() const { return heap_.empty(); }

  /// The least (dist, id) entry. The heap must not be empty.
  const Entry& top() const { return heap_.front(); }

  /// The queued entries, in heap order: pushing them back in this order into
  /// an empty heap rebuilds it without a single sift.
  const std::vector<Entry>& entries() const { return heap_; }

  /// Unqueues every entry, in O(size) rather than O(n).
  void clear() {
    for (const Entry& e : heap_) pos_[e.v] = kAbsent;
    heap_.clear();
  }

  /// Queues `v` with key `d`, or lowers its queued key to `d`. A vertex that
  /// was popped earlier is queued again. `d` must not exceed a queued key.
  void push_or_decrease(vid_t v, weight_t d) {
    std::size_t i = heap_.size();
    if (pos_[v] == kAbsent) {
      heap_.push_back({d, v});
    } else {
      i = static_cast<std::size_t>(pos_[v]);
      heap_[i].dist = d;
    }
    sift_up(i);
  }

  /// Removes and returns the least (dist, id) entry. The heap must not be
  /// empty.
  Entry pop() {
    const Entry top = heap_.front();
    pos_[top.v] = kAbsent;
    const Entry last = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) {
      heap_.front() = last;
      sift_down(0);
    }
    return top;
  }

 private:
  static constexpr vid_t kAbsent = -1;
  static constexpr std::size_t kArity = 4;

  static bool before(const Entry& a, const Entry& b) {
    return a.dist < b.dist || (a.dist == b.dist && a.v < b.v);
  }
  void place(std::size_t i, const Entry& e) {
    heap_[i] = e;
    pos_[e.v] = static_cast<vid_t>(i);
  }

  // Both sifts move a hole instead of swapping, then drop the entry in.
  void sift_up(std::size_t i) {
    const Entry e = heap_[i];
    while (i > 0) {
      const std::size_t parent = (i - 1) / kArity;
      if (!before(e, heap_[parent])) break;
      place(i, heap_[parent]);
      i = parent;
    }
    place(i, e);
  }
  void sift_down(std::size_t i) {
    const Entry e = heap_[i];
    const std::size_t size = heap_.size();
    std::size_t child = i * kArity + 1;
    while (child < size) {
      std::size_t best = child;
      const std::size_t end = std::min(child + kArity, size);
      for (std::size_t c = child + 1; c < end; ++c) {
        if (before(heap_[c], heap_[best])) best = c;
      }
      if (!before(heap_[best], e)) break;
      place(i, heap_[best]);
      i = best;
      child = i * kArity + 1;
    }
    place(i, e);
  }

  std::vector<Entry> heap_;
  std::vector<vid_t> pos_;  // index into heap_ per vertex; kAbsent if unqueued
};

}  // namespace peek::sssp
