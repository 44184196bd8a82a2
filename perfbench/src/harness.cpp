#include "harness.hpp"

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>

#include "obs/metrics.hpp"

extern char** environ;

namespace perfbench {

std::vector<std::pair<vid_t, vid_t>> sample_pairs(const peek::graph::CsrGraph& g,
                                                  size_t count, Rng& rng,
                                                  int min_hops) {
  const vid_t n = g.num_vertices();
  std::vector<std::pair<vid_t, vid_t>> pairs;
  std::set<std::pair<vid_t, vid_t>> seen;
  std::vector<int> hops(static_cast<size_t>(n), -1);
  std::vector<vid_t> queue, far;
  for (size_t attempts = 0; pairs.size() < count && attempts < count * 200;
       ++attempts) {
    const vid_t s = static_cast<vid_t>(rng.below(static_cast<std::uint64_t>(n)));
    std::fill(hops.begin(), hops.end(), -1);
    queue.assign(1, s);
    far.clear();
    hops[static_cast<size_t>(s)] = 0;
    for (size_t head = 0; head < queue.size(); ++head) {
      const vid_t u = queue[head];
      for (vid_t v : g.neighbors(u)) {
        if (hops[static_cast<size_t>(v)] != -1) continue;
        hops[static_cast<size_t>(v)] = hops[static_cast<size_t>(u)] + 1;
        if (hops[static_cast<size_t>(v)] >= min_hops) far.push_back(v);
        queue.push_back(v);
      }
    }
    if (far.empty()) continue;
    const std::pair<vid_t, vid_t> p{s, far[rng.below(far.size())]};
    if (seen.insert(p).second) pairs.push_back(p);
  }
  return pairs;
}

std::vector<std::uint32_t> zipf_ranks(size_t pool, size_t n, double theta,
                                      Rng& rng) {
  std::vector<double> cdf(pool);
  double acc = 0;
  for (size_t i = 0; i < pool; ++i) {
    acc += std::pow(static_cast<double>(i + 1), -theta);
    cdf[i] = acc;
  }
  std::vector<std::uint32_t> ranks;
  ranks.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const double u = (static_cast<double>(i) + rng.unit()) /
                     static_cast<double>(n) * acc;
    const size_t r = static_cast<size_t>(
        std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
    ranks.push_back(static_cast<std::uint32_t>(std::min(r, pool - 1)));
  }
  rng.shuffle(ranks);
  return ranks;
}

std::vector<int> weighted_blocks(const std::vector<int>& choices,
                                 const std::vector<int>& weights, size_t n,
                                 Rng& rng) {
  std::vector<int> block;
  for (size_t i = 0; i < choices.size(); ++i) {
    block.insert(block.end(), static_cast<size_t>(weights[i]), choices[i]);
  }
  std::vector<int> out;
  out.reserve(n + block.size());
  while (out.size() < n) {
    rng.shuffle(block);
    out.insert(out.end(), block.begin(), block.end());
  }
  out.resize(n);
  return out;
}

size_t tail_index(size_t n, size_t passes) {
  if (n == 0) return 0;
  const size_t p99 = (n * 99 + 99) / 100 - 1;  // ceil(0.99 n) - 1
  const size_t beyond = 10 * std::max<size_t>(passes, 1);
  if (n <= beyond) return p99;  // too few samples for ten beyond anything
  return std::min(p99, n - 1 - beyond);
}

double percentile(std::vector<double>& v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const size_t idx = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return v[std::min(idx, v.size() - 1)];
}

double tail(std::vector<double>& v, size_t passes) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  return v[tail_index(v.size(), passes)];
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double s = 0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

double median(std::vector<double> v) { return percentile(v, 0.5); }

SpanLog::Scope::Scope(SpanLog& log, const char* name, std::int64_t request,
                      int tag)
    : log_(log), index_(static_cast<std::int32_t>(log.spans_.size())) {
  Span sp;
  sp.name = name;
  sp.parent = log.open_.empty() ? -1 : log.open_.back();
  sp.request = request;
  sp.tag = tag;
  sp.start_ns = log.now_ns();
  log.spans_.push_back(sp);
  log.open_.push_back(index_);
}

SpanLog::Scope::~Scope() {
  log_.spans_[static_cast<size_t>(index_)].end_ns = log_.now_ns();
  log_.open_.pop_back();
}

std::int64_t SpanLog::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              epoch_)
      .count();
}

bool write_spans(const std::string& path, const std::vector<SpanLog>& logs) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  for (size_t th = 0; th < logs.size(); ++th) {
    const auto& spans = logs[th].spans();
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      std::fprintf(f,
                   "{\"thread\":%zu,\"id\":%zu,\"parent\":%d,\"name\":\"%s\","
                   "\"request\":%lld,\"tag\":%d,\"start_ns\":%lld,"
                   "\"end_ns\":%lld}\n",
                   th, i, s.parent, s.name, static_cast<long long>(s.request),
                   s.tag, static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns));
    }
  }
  return std::fclose(f) == 0;
}

const std::vector<MetricDef>& end_to_end_metrics() {
  static const std::vector<MetricDef> defs = {
      {"qps", "1/s"},          {"p50_ms", "ms"}, {"p99_ms", "ms"},
      {"setup_s", "s"},        {"peak_rss_mb", "MiB"},
  };
  return defs;
}

const std::vector<MetricDef>& per_layer_metrics() {
  static const std::vector<MetricDef> defs = [] {
    std::vector<MetricDef> d;
    // Cold pipeline stages, pooled and per graph.
    for (const char* stage :
         {"sssp.fwd_ms", "sssp.rev_ms", "prune.scan_ms", "compact.ms",
          "ksp.ms"}) {
      d.push_back({stage, "ms"});
      for (const char* g : {"R21", "LJ", "WL", "GT"}) {
        d.push_back({std::string(stage) + "." + g, "ms"});
      }
    }
    const std::vector<MetricDef> rest = {
        {"prune.kept_vertex_frac", "frac"},
        {"prune.kept_edge_frac", "frac"},
        {"prune.inspected_paths", "count"},
        {"compact.regen_frac", "frac"},
        {"ksp.sssp_calls", "count"},
        {"ksp.tree_shortcuts", "count"},
        {"trace.layer_sum_frac", "frac"},
        {"trace.overhead_pct", "%"},
        // Fleet workloads.
        {"shard.queue_wait_ms.p50", "ms"},
        {"shard.queue_wait_ms.p99", "ms"},
        {"serve.engine_ms.p50", "ms"},
        {"serve.engine_ms.p99", "ms"},
        {"serve.hit_ms.p50", "ms"},
        {"serve.miss_ms.p50", "ms"},
        {"serve.snapshot_hit_frac", "frac"},
        {"serve.extended_frac", "frac"},
        {"serve.coalesced_frac", "frac"},
        {"serve.tree_hit_frac", "frac"},
        {"serve.miss_frac", "frac"},
        {"serve.cache_mb", "MiB"},
        {"check.certify_ms.p50", "ms"},
        // fleet-mutate only.
        {"write_p50_ms", "ms"},
        {"dyn.apply_ms.p50", "ms"},
        {"dyn.deliver_ms.p50", "ms"},
        {"dyn.repair_ms.p50", "ms"},
        {"dyn.batches", "count"},
        {"dyn.structural_frac", "frac"},
        {"dyn.ops_per_batch", "count"},
        {"serve.stale_frac", "frac"},
        {"serve.epochs_behind.mean", "count"},
        {"serve.cache.restamps", "count"},
        {"serve.cache.region_drops", "count"},
        {"shard.epoch_bounces", "count"},
        {"dyn.repair.fallbacks", "count"},
    };
    d.insert(d.end(), rest.begin(), rest.end());
    return d;
  }();
  return defs;
}

Report::Report(bool traced) {
  for (const auto& m : traced ? per_layer_metrics() : end_to_end_metrics()) {
    order_.emplace_back(m.name, m.unit);
    values_[m.name] = 0;
  }
}

void Report::set(const std::string& name, double value) {
  const auto it = values_.find(name);
  if (it == values_.end()) {
    std::fprintf(stderr, "perfbench: internal error: unknown metric %s\n",
                 name.c_str());
    std::abort();
  }
  it->second = value;
}

void Report::set_p50_family(
    const std::string& name,
    const std::map<std::string, std::vector<double>>& by_graph) {
  std::vector<double> pooled;
  for (const auto& [graph, samples] : by_graph) {
    pooled.insert(pooled.end(), samples.begin(), samples.end());
    set(name + "." + graph, median(samples));
  }
  set(name, median(pooled));
}

void Report::print(bool correct, long attempted, long failed) const {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (size_t i = 0; i < order_.size(); ++i) {
    double v = values_.at(order_[i].first);
    if (!std::isfinite(v)) v = 0;
    char num[64];
    std::snprintf(num, sizeof num, "%.17g", v);
    out += (i ? ", \"" : "\"") + order_[i].first + "\": {\"value\": " + num +
           ", \"unit\": \"" + order_[i].second + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

bool same_paths(const std::vector<peek::sssp::Path>& a,
                const std::vector<peek::sssp::Path>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].verts != b[i].verts || a[i].dist != b[i].dist) return false;
  }
  return true;
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

void reset_peak_rss() {
  std::ofstream("/proc/self/clear_refs") << "5";
}

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

std::string loaded_libgomp() {
  std::ifstream maps("/proc/self/maps");
  std::string line;
  while (std::getline(maps, line)) {
    const auto pos = line.find('/');
    if (pos != std::string::npos && line.find("libgomp", pos) != std::string::npos) {
      return line.substr(pos);
    }
  }
  return "not mapped";
}

}  // namespace

std::string environment_json() {
  std::ostringstream o;
  o << "{\"nproc\": " << sysconf(_SC_NPROCESSORS_ONLN) << ", \"env\": {";
  bool first = true;
  for (char** e = environ; *e; ++e) {
    const std::string kv = *e;
    if (kv.rfind("OMP_", 0) != 0 && kv.rfind("GOMP_", 0) != 0) continue;
    const auto eq = kv.find('=');
    o << (first ? "" : ", ") << '"' << json_escape(kv.substr(0, eq)) << "\": \""
      << json_escape(eq == std::string::npos ? "" : kv.substr(eq + 1)) << '"';
    first = false;
  }
  o << "}, \"libgomp\": \"" << json_escape(loaded_libgomp())
    << "\", \"compiler\": \"" << PERFBENCH_COMPILER << "\", \"build_type\": \""
    << PERFBENCH_BUILD_TYPE << "\", \"peek_obs\": "
    << (peek::obs::kEnabled ? "true" : "false") << "}";
  return o.str();
}

}  // namespace perfbench
