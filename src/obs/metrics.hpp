// Pipeline observability (ROADMAP: regression-proof, quantitative): a global
// MetricsRegistry of named counters, gauges and timers that the whole PeeK
// pipeline reports into. The paper argues from internal quantities — pruned
// vertex ratios, remaining-edge ratios m_r/m, Δ-stepping bucket behaviour,
// per-stage wall times (§4–§6) — and this layer makes every one of them
// visible to the CLI (`PEEK_METRICS=out.json`), the benches
// (`--metrics-json`) and the tests.
//
// Cost model: counters are sharded across cache-line-padded atomic slots
// indexed by OpenMP thread id, so a hot-loop increment is one relaxed
// fetch_add on an uncontended line; registration is a one-time mutex-guarded
// map insert cached in a function-local static at each hook site. The CMake
// option PEEK_OBS=OFF compiles every PEEK_* hook below to a no-op.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>

#include "check/thread_safety.hpp"

#ifndef PEEK_OBS_ENABLED
#define PEEK_OBS_ENABLED 1
#endif

namespace peek::obs {

constexpr bool kEnabled = PEEK_OBS_ENABLED != 0;

struct TimerValue {
  double seconds = 0;
  std::uint64_t count = 0;  // completed spans
};

/// A point-in-time copy of every registered metric. Plain data — always
/// available (and simply empty) when the hooks are compiled out, so
/// PeekResult/bench plumbing never needs #if guards.
struct MetricsSnapshot {
  std::map<std::string, std::int64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, TimerValue> timers;

  bool empty() const {
    return counters.empty() && gauges.empty() && timers.empty();
  }
  /// Stable, sorted-key JSON (see obs/json.hpp for the inverse).
  std::string to_json() const;
};

/// Monotonic counter, sharded to keep concurrent increments off each other's
/// cache lines. Aggregated (summed) on read.
class Counter {
 public:
  void add(std::int64_t n) {
    slots_[shard_index()].v.fetch_add(n, std::memory_order_relaxed);
  }
  void inc() { add(1); }
  std::int64_t value() const {
    std::int64_t total = 0;
    for (const auto& s : slots_) total += s.v.load(std::memory_order_relaxed);
    return total;
  }
  void reset() {
    for (auto& s : slots_) s.v.store(0, std::memory_order_relaxed);
  }

 private:
  static constexpr size_t kShards = 64;
  struct alignas(64) Slot {
    std::atomic<std::int64_t> v{0};
  };
  static size_t shard_index();
  std::array<Slot, kShards> slots_{};
};

/// Last-write-wins scalar (ratios, sizes, configuration echoes).
class Gauge {
 public:
  void set(double v) { v_.store(v, std::memory_order_relaxed); }
  double value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { set(0); }

 private:
  std::atomic<double> v_{0};
};

/// Accumulating wall-clock timer (total seconds + span count). Fed by
/// ScopedTimer; nesting just accumulates into distinct timers.
class Timer {
 public:
  void add_nanos(std::int64_t ns) {
    nanos_.fetch_add(ns, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
  }
  TimerValue value() const {
    return {static_cast<double>(nanos_.load(std::memory_order_relaxed)) * 1e-9,
            count_.load(std::memory_order_relaxed)};
  }
  void reset() {
    nanos_.store(0, std::memory_order_relaxed);
    count_.store(0, std::memory_order_relaxed);
  }

 private:
  std::atomic<std::int64_t> nanos_{0};
  std::atomic<std::uint64_t> count_{0};
};

/// RAII stage span: measures construction->destruction and adds it to the
/// timer. Safe to nest (each scope owns its own start point).
class ScopedTimer {
 public:
  explicit ScopedTimer(Timer& t)
      : timer_(&t), start_(std::chrono::steady_clock::now()) {}
  ~ScopedTimer() {
    timer_->add_nanos(std::chrono::duration_cast<std::chrono::nanoseconds>(
                          std::chrono::steady_clock::now() - start_)
                          .count());
  }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  Timer* timer_;
  std::chrono::steady_clock::time_point start_;
};

/// Name -> metric registry. `global()` is the process-wide instance every
/// pipeline hook reports to; tests may construct private registries.
/// Returned references stay valid for the registry's lifetime.
class MetricsRegistry {
 public:
  static MetricsRegistry& global();

  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Timer& timer(std::string_view name);

  MetricsSnapshot snapshot() const;
  /// Zeroes every metric value (registrations and references survive).
  void reset();

 private:
  /// Registration maps only — the metric objects themselves are lock-free
  /// (sharded atomics) and are updated through the returned references
  /// without touching mu_.
  mutable check::Mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_
      PEEK_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_
      PEEK_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Timer>, std::less<>> timers_
      PEEK_GUARDED_BY(mu_);
};

}  // namespace peek::obs

// Hook macros — the only spelling instrumentation sites should use. Each
// (counter, gauge and timer span alike) expands to a function-local static
// lookup — one registry mutex hit per hook site, ever — plus the cheap
// sharded update, or to nothing under PEEK_OBS=OFF. Names must be literals:
// a site caches the metric its first call named.
#if PEEK_OBS_ENABLED

#define PEEK_OBS_CONCAT_IMPL(a, b) a##b
#define PEEK_OBS_CONCAT(a, b) PEEK_OBS_CONCAT_IMPL(a, b)

#define PEEK_COUNT_ADD(name, n)                              \
  do {                                                       \
    static ::peek::obs::Counter& peek_obs_counter_ref_ =     \
        ::peek::obs::MetricsRegistry::global().counter(name); \
    peek_obs_counter_ref_.add(static_cast<std::int64_t>(n)); \
  } while (0)

#define PEEK_COUNT_INC(name) PEEK_COUNT_ADD(name, 1)

#define PEEK_GAUGE_SET(name, v)                            \
  do {                                                     \
    static ::peek::obs::Gauge& peek_obs_gauge_ref_ =       \
        ::peek::obs::MetricsRegistry::global().gauge(name); \
    peek_obs_gauge_ref_.set(static_cast<double>(v));       \
  } while (0)

/// Declares an RAII span covering the rest of the enclosing scope. Two
/// statements (the cached timer, then the span), so it cannot be the body of
/// an unbraced if/for.
#define PEEK_TIMER_SCOPE(name)                                       \
  static ::peek::obs::Timer& PEEK_OBS_CONCAT(peek_obs_timer_,        \
                                             __LINE__) =             \
      ::peek::obs::MetricsRegistry::global().timer(name);            \
  ::peek::obs::ScopedTimer PEEK_OBS_CONCAT(peek_obs_span_, __LINE__)( \
      PEEK_OBS_CONCAT(peek_obs_timer_, __LINE__))

#else  // PEEK_OBS_ENABLED

// The (void) casts keep hook-only locals from tripping -Wunused-but-set
// warnings in OBS=OFF builds; the reads they perform optimize away.
#define PEEK_COUNT_ADD(name, n) \
  do {                          \
    (void)(name);               \
    (void)(n);                  \
  } while (0)
#define PEEK_COUNT_INC(name) \
  do {                       \
    (void)(name);            \
  } while (0)
#define PEEK_GAUGE_SET(name, v) \
  do {                          \
    (void)(name);               \
    (void)(v);                  \
  } while (0)
#define PEEK_TIMER_SCOPE(name) ((void)0)

#endif  // PEEK_OBS_ENABLED
