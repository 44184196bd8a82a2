// Micro-benchmarks of the parallel primitives (prefix sum, transpose) backing
// the pruning and compaction stages.
#include <benchmark/benchmark.h>

#include "bench_common.hpp"
#include "parallel/prefix_sum.hpp"

namespace {

using namespace peek;

void BM_ExclusivePrefixSum(benchmark::State& state) {
  std::vector<std::int64_t> in(static_cast<size_t>(state.range(0)), 3);
  std::vector<std::int64_t> out(in.size());
  for (auto _ : state) {
    benchmark::DoNotOptimize(par::exclusive_prefix_sum(
        std::span<const std::int64_t>(in), std::span<std::int64_t>(out)));
  }
}
BENCHMARK(BM_ExclusivePrefixSum)->Arg(1 << 12)->Arg(1 << 16)->Arg(1 << 20);

void BM_Transpose(benchmark::State& state) {
  static graph::CsrGraph g = bench::twitter_like(11);
  for (auto _ : state) {
    auto r = graph::transpose(g);
    benchmark::DoNotOptimize(r.num_edges());
  }
}
BENCHMARK(BM_Transpose);

}  // namespace

BENCHMARK_MAIN();
