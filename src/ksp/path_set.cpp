#include "ksp/path_set.hpp"

#include <algorithm>

namespace peek::ksp {

bool CandidateSet::push(Path path, int dev_index) {
  if (path.empty()) return false;
  if (!seen_.insert(path).second) return false;
  heap_.push_back({std::move(path), dev_index});
  std::push_heap(heap_.begin(), heap_.end(), Greater{});
  return true;
}

size_t CandidateSet::bytes() const {
  size_t total = sizeof(CandidateSet) + heap_.capacity() * sizeof(Candidate);
  for (const Candidate& c : heap_) total += path_heap_bytes(c.path);
  // Each set node holds the path, a next pointer and the cached hash.
  total += seen_.bucket_count() * sizeof(void*);
  for (const Path& p : seen_) {
    total += sizeof(Path) + sizeof(void*) + sizeof(size_t) +
             path_heap_bytes(p);
  }
  return total;
}

std::vector<Path> CandidateSet::seen_paths() const {
  std::vector<Path> out(seen_.begin(), seen_.end());
  std::sort(out.begin(), out.end(), PathLess{});
  return out;
}

void CandidateSet::restore(std::vector<Candidate> pending,
                           std::vector<Path> seen) {
  heap_ = std::move(pending);
  std::make_heap(heap_.begin(), heap_.end(), Greater{});
  seen_.clear();
  for (Path& p : seen) seen_.insert(std::move(p));
}

std::optional<Candidate> CandidateSet::pop_min() {
  if (heap_.empty()) return std::nullopt;
  std::pop_heap(heap_.begin(), heap_.end(), Greater{});
  Candidate c = std::move(heap_.back());
  heap_.pop_back();
  return c;
}

}  // namespace peek::ksp
