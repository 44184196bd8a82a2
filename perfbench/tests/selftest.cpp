// Self-tests of the benchmark's own helpers: seeded generation, the
// ten-beyond percentile rule, the Zipf sampler and whole-pass accounting.
// Built as perfbench_selftest; tests/test_perfbench.py runs it. Exit code 0
// when every check passes.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <map>
#include <set>
#include <thread>
#include <tuple>
#include <vector>

#include "graph/generators.hpp"
#include "harness.hpp"
#include "inputs.hpp"

namespace {

int failures = 0;

void check(bool ok, const char* what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what);
  if (!ok) ++failures;
}

void seeded_inputs() {
  const auto g = peek::graph::rmat(10, 8, {peek::graph::WeightKind::kUniform01, 3}, 5);
  auto pairs = [&](std::uint64_t seed) {
    perfbench::Rng rng(perfbench::stream_seed(seed, 100));
    return perfbench::sample_pairs(g, 64, rng);
  };
  auto ranks = [](std::uint64_t seed) {
    perfbench::Rng rng(perfbench::stream_seed(seed, 10));
    return perfbench::zipf_ranks(2000, 4000, 0.99, rng);
  };
  auto ks = [](std::uint64_t seed) {
    perfbench::Rng rng(perfbench::stream_seed(seed, 11));
    return perfbench::weighted_blocks({8, 32, 128}, {6, 3, 1}, 1000, rng);
  };
  auto cold = [&](std::uint64_t seed) {
    std::vector<std::tuple<int, peek::vid_t, peek::vid_t>> out;
    for (const auto& q : perfbench::cold_requests({&g, &g}, 16, seed)) {
      out.emplace_back(q.graph, q.s, q.t);
    }
    return out;
  };
  auto fleet = [](std::uint64_t seed) {
    std::vector<std::pair<std::uint32_t, int>> out;
    for (const auto& r : perfbench::zipf_requests(400, 2000, 0.99, seed, 10)) {
      out.emplace_back(r.pair, r.k);
    }
    return out;
  };
  auto batches = [&](std::uint64_t seed) {
    perfbench::Rng rng(perfbench::stream_seed(seed, 4));
    perfbench::BatchSource src(g, perfbench::sample_pairs(g, 4, rng), seed);
    std::vector<std::tuple<int, peek::vid_t, peek::vid_t, double>> out;
    for (int i = 0; i < 12; ++i) {
      const auto b = src.next();
      for (const auto& op : b.ops) {
        out.emplace_back(static_cast<int>(op.kind), op.u, op.v, op.weight);
      }
      out.emplace_back(-1, 0, 0, 0);  // batch boundary
      src.advance(b);
    }
    return out;
  };
  check(cold(7) == cold(7) && cold(7) != cold(8),
        "cold request list: same seed identical, other seed different");
  check(fleet(7) == fleet(7) && fleet(7) != fleet(8),
        "fleet request list and K draws: same seed identical, other seed different");
  check(batches(7) == batches(7) && batches(7) != batches(8),
        "writer batch list: same seed identical, other seed different");
  check(pairs(7) == pairs(7) && pairs(7) != pairs(8),
        "pair lists: same seed identical, other seed different");
  check(ranks(7) == ranks(7) && ranks(7) != ranks(8),
        "Zipf rank lists: same seed identical, other seed different");
  check(ks(7) == ks(7) && ks(7) != ks(8),
        "K draws: same seed identical, other seed different");
  const auto p = pairs(7);
  check(std::set<std::pair<peek::vid_t, peek::vid_t>>(p.begin(), p.end()).size() ==
            p.size(),
        "pair lists hold distinct pairs");
  std::map<int, int> count;
  for (int k : ks(3)) ++count[k];
  check(count[8] == 600 && count[32] == 300 && count[128] == 100,
        "K draws hold 8 / 32 / 128 at exactly 6 : 3 : 1");
}

void percentiles() {
  auto tail_beyond = [](size_t n, size_t passes) {
    return n - 1 - perfbench::tail_index(n, passes);
  };
  check(tail_beyond(1000, 1) == 10, "n = 1000: p99 with exactly ten beyond");
  check(tail_beyond(5000, 1) == 50, "n = 5000: plain nearest-rank p99");
  check(tail_beyond(200, 1) == 10, "n = 200: lowered to keep ten beyond (p95)");
  check(tail_beyond(400, 2) == 20, "two passes of 200: ten beyond per pass");
  check(perfbench::tail_index(5, 1) == 4, "n <= ten: the tail falls back to p99");
  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(i);
  check(perfbench::tail(v, 1) == 990.0, "tail of 1..1000 is 990");
  check(perfbench::median(v) == 500.0, "median of 1..1000 is the nearest-rank 500");
}

void zipf_head() {
  perfbench::Rng rng(42);
  const size_t pool = 2000, n = 400000;
  const double theta = 0.99;
  const auto ranks = perfbench::zipf_ranks(pool, n, theta, rng);
  std::vector<double> freq(pool, 0);
  for (auto r : ranks) freq[r] += 1.0 / static_cast<double>(n);
  double h = 0;
  for (size_t i = 1; i <= pool; ++i) h += std::pow(static_cast<double>(i), -theta);
  bool ok = true;
  for (size_t r = 0; r < 8; ++r) {
    const double want = std::pow(static_cast<double>(r + 1), -theta) / h;
    ok = ok && std::abs(freq[r] - want) <= 0.02 * want;
  }
  check(ok, "Zipf head: ranks 1-8 within 2% of (r^-theta / H)");
  check(std::abs(freq[0] / freq[1] - std::pow(2.0, theta)) < 0.03,
        "Zipf head: f(1) / f(2) matches 2^theta");
}

void whole_passes() {
  // Each pass takes ~20 ms against a 50 ms box: the clock must stop at the
  // first pass boundary at or after the box, never inside a pass.
  perfbench::PassClock clock(0.05);
  int work = 0;
  do {
    for (int i = 0; i < 4; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      ++work;
    }
  } while (clock.another_pass());
  check(work == 4 * clock.passes(), "whole passes: work is passes x list length");
  check(clock.passes() >= 3 && clock.elapsed() >= 0.05,
        "whole passes: the run reaches the time box at a pass boundary");
  perfbench::PassClock once(0);
  int n = 0;
  do ++n;
  while (once.another_pass());
  check(n == 1 && once.passes() == 1, "whole passes: a zero box still runs one pass");
}

}  // namespace

int main() {
  seeded_inputs();
  percentiles();
  zipf_head();
  whole_passes();
  std::printf("%d failure(s)\n", failures);
  return failures == 0 ? 0 : 1;
}
