// Shared pieces of the benchmark binary: the seeded generator every request
// list comes from, the percentile and Zipf helpers, whole-pass accounting,
// the in-memory span tracer, and the metric table perfbench prints.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "graph/csr.hpp"
#include "sssp/path.hpp"

namespace perfbench {

using peek::vid_t;
using Clock = std::chrono::steady_clock;

// -- Seeded inputs -----------------------------------------------------------

/// splitmix64: a tiny generator whose output depends only on the seed, so a
/// request list is the same on every platform and standard library.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n).
  std::uint64_t below(std::uint64_t n) { return next() % n; }
  /// Uniform in [0, 1).
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (size_t i = v.size(); i > 1; --i) std::swap(v[i - 1], v[below(i)]);
  }

 private:
  std::uint64_t state_;
};

/// Independent stream for one purpose of one run (pairs, K draws, batches).
inline std::uint64_t stream_seed(std::uint64_t seed, std::uint64_t purpose) {
  Rng r(seed * 0x100000001b3ULL + purpose);
  return r.next();
}

/// `count` distinct (s, t) pairs of `g`: s uniform, t uniform among the
/// vertices at least `min_hops` BFS hops from s.
std::vector<std::pair<vid_t, vid_t>> sample_pairs(const peek::graph::CsrGraph& g,
                                                  size_t count, Rng& rng,
                                                  int min_hops = 3);

/// `n` Zipf(θ) ranks over [0, pool), stratified: the i-th uniform is drawn
/// from [i/n, (i+1)/n) before the inverse CDF, then the ranks are shuffled.
/// The rank histogram therefore tracks the Zipf law far more closely than
/// i.i.d. draws would, which keeps run-to-run spread down.
std::vector<std::uint32_t> zipf_ranks(size_t pool, size_t n, double theta,
                                      Rng& rng);

/// `n` values drawn from `choices` in exact proportion to `weights`: every
/// block of sum(weights) holds each choice weight times, block order shuffled.
std::vector<int> weighted_blocks(const std::vector<int>& choices,
                                 const std::vector<int>& weights, size_t n,
                                 Rng& rng);

// -- Statistics --------------------------------------------------------------

/// Sorted-order index of the tail percentile over `n` samples taken as
/// `passes` whole passes of one request list: the nearest-rank p99, lowered
/// so that at least ten requests per pass lie beyond it. With one pass of
/// 1000 or more requests this is p99; with 200 it is p95. Runs too short to
/// have ten beyond any sample fall back to the nearest-rank p99.
size_t tail_index(size_t n, size_t passes);
/// Nearest-rank percentile (q in (0, 1]) of `v`; sorts `v`. 0 when empty.
double percentile(std::vector<double>& v, double q);
/// The tail percentile of `v` per tail_index(); sorts `v`. 0 when empty.
double tail(std::vector<double>& v, size_t passes);
double mean(const std::vector<double>& v);
double median(std::vector<double> v);

// -- Whole passes ------------------------------------------------------------

/// Whole-pass accounting: the timed phase replays the request list pass by
/// pass and stops at the first pass boundary at or after the time box, so
/// every run finishes each pass it starts and two runs of one workload do
/// identical work per pass.
class PassClock {
 public:
  explicit PassClock(double seconds) : seconds_(seconds), start_(Clock::now()) {}
  /// Called at each pass boundary; true when another pass should run.
  bool another_pass() {
    ++passes_;
    return elapsed() < seconds_;
  }
  int passes() const { return passes_; }
  double elapsed() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  double seconds_;
  Clock::time_point start_;
  int passes_ = 0;
};

// -- Tracing -----------------------------------------------------------------

/// One recorded span. Times are nanoseconds since the tracer's epoch.
struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;  // index in the same SpanLog, -1 for a root
  std::int64_t request = -1;
  std::int32_t tag = -1;  // workload-defined (the graph of a cold query)
  double ms() const { return static_cast<double>(end_ns - start_ns) * 1e-6; }
};

/// Spans of one client thread, kept in memory until the run ends. Not
/// thread-safe: each thread records into its own log.
class SpanLog {
 public:
  explicit SpanLog(Clock::time_point epoch = Clock::now()) : epoch_(epoch) {}

  /// RAII span: opens at construction under the innermost open span of the
  /// log, closes at destruction.
  class Scope {
   public:
    Scope(SpanLog& log, const char* name, std::int64_t request, int tag = -1);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog& log_;
    std::int32_t index_;
  };

  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::int64_t now_ns() const;
  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<std::int32_t> open_;
};

/// Writes every span of every log as one JSON object per line.
bool write_spans(const std::string& path, const std::vector<SpanLog>& logs);

// -- Output ------------------------------------------------------------------

struct MetricDef {
  std::string name;
  std::string unit;
};

/// End-to-end metrics, printed by every untraced run.
const std::vector<MetricDef>& end_to_end_metrics();
/// Per-layer metrics, printed by every traced run (0 for a layer the
/// workload does not exercise).
const std::vector<MetricDef>& per_layer_metrics();

/// Metric values of one run; print() emits the JSON result line.
class Report {
 public:
  explicit Report(bool traced);
  void set(const std::string& name, double value);
  /// Per-graph family: sets `name` from the pooled samples and `name.<tag>`
  /// from each graph's own.
  void set_p50_family(const std::string& name,
                      const std::map<std::string, std::vector<double>>& by_graph);
  void print(bool correct, long attempted, long failed) const;

 private:
  std::vector<std::pair<std::string, std::string>> order_;  // (name, unit)
  std::map<std::string, double> values_;
};

// -- Checks and environment --------------------------------------------------

/// Exact equality: same vertices and bit-identical distances, in order.
bool same_paths(const std::vector<peek::sssp::Path>& a,
                const std::vector<peek::sssp::Path>& b);

/// VmHWM of this process in MiB.
double peak_rss_mb();
/// Restarts VmHWM from the current resident size, so set-up repetitions
/// that only time setup_s do not leave their allocator garbage in the peak.
void reset_peak_rss();

/// One line describing the pinned run environment: nproc, every OMP_* and
/// GOMP_* variable, the libgomp actually mapped, compiler, build type and
/// PEEK_OBS.
std::string environment_json();

}  // namespace perfbench
