// fleet-zipf / fleet-mutate: shard::ShardFleet over WL (2 shards x 1 replica
// x 2 workers, fleet defaults: certification on, hedging off). Closed-loop
// clients replay a seeded Zipf(0.99) list over a pool of 400 pairs with K
// drawn from 8 / 32 / 128 at 6 : 3 : 1. fleet-mutate builds the fleet over a
// dyn::DynamicGraph in live mode, runs three readers instead of four, and
// adds one writer that applies a seeded UpdateBatch at a time with a fixed
// think time between writes.
#include <algorithm>
#include <atomic>
#include <barrier>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>

#include "bench_common.hpp"
#include "check/certify.hpp"
#include "core/peek.hpp"
#include "dyn/update_batch.hpp"
#include "harness.hpp"
#include "inputs.hpp"
#include "obs/metrics.hpp"
#include "shard/fleet.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace dyn = peek::dyn;
namespace shard = peek::shard;

/// Every pool pair is re-queried and checked against core::peek_ksp after
/// each run, and a WL miss costs two full-graph SSSPs, so the pool is 400.
constexpr size_t kPoolSize = 400;
constexpr double kTheta = 0.99;
/// Per-replica artifact cache budget, well below what the pool needs: about
/// 47% of fleet-zipf reads hit a snapshot. That keeps the median read among
/// the misses instead of on the hit/miss cliff, where it swings run to run.
constexpr std::size_t kCacheBytes = std::size_t{10} << 20;
/// Pairs whose current shortest path the writer's "hot" ops aim at.
constexpr size_t kHotPairs = 16;
constexpr auto kThinkTime = std::chrono::milliseconds(20);
/// Verification re-queries the hottest pairs at the largest K as well.
constexpr size_t kVerifyLargeK = 16;
/// Warm-up requests: enough misses to fill both replicas' cache budgets.
constexpr size_t kWarmupRequests = 300;

/// Requests in one pass, sized so one pass takes a little longer than the
/// time box on a 4-thread x86-64 host.
size_t requests_per_pass(bool mutate, double seconds) {
  const double per_second = mutate ? 160 : 300;
  return std::max<size_t>(64, static_cast<size_t>(std::ceil(per_second * seconds)));
}

/// CSR per fence epoch, for certifying an answer against the graph it is
/// exact for. Keeps the most recent epochs only.
class EpochGraphs {
 public:
  void publish(std::uint64_t epoch, std::shared_ptr<const peek::graph::CsrGraph> g) {
    std::lock_guard<std::mutex> lk(mu_);
    graphs_[epoch] = std::move(g);
    while (graphs_.size() > 4) graphs_.erase(graphs_.begin());
  }
  std::shared_ptr<const peek::graph::CsrGraph> at(std::uint64_t epoch) const {
    std::lock_guard<std::mutex> lk(mu_);
    const auto it = graphs_.find(epoch);
    return it == graphs_.end() ? nullptr : it->second;
  }

 private:
  mutable std::mutex mu_;
  std::map<std::uint64_t, std::shared_ptr<const peek::graph::CsrGraph>> graphs_;
};

struct Setup {
  peek::graph::CsrGraph g;  // WL
  std::vector<std::pair<vid_t, vid_t>> pool;
  std::vector<FleetRequest> list;    // the timed request list
  std::unique_ptr<dyn::DynamicGraph> dg;  // fleet-mutate only
  std::unique_ptr<shard::ShardFleet> fleet;  // declared last: destroyed first
};

shard::FleetOptions fleet_options() {
  shard::FleetOptions fo;  // fleet defaults: certify on, hedging off
  fo.router.shards = 2;
  fo.replicas = 1;
  fo.workers_per_replica = 2;
  fo.serve.cache.byte_budget = kCacheBytes;
  return fo;
}

/// Per-request outcome, recorded outside the request's timed region.
struct Record {
  double lat_ms = 0;
  double fleet_ms = 0;
  double engine_ms = 0;
  bool ok = false;
  bool hit = false, extended = false, coalesced = false, tree_hit = false;
  bool stale = false;
  std::uint64_t epochs_behind = 0;
};

Record record_of(const shard::FleetResult& fr, double lat_ms) {
  const auto& r = fr.result;
  Record rec;
  rec.lat_ms = lat_ms;
  rec.fleet_ms = fr.seconds * 1e3;
  rec.engine_ms = r.seconds * 1e3;
  rec.ok = r.status.ok() && !r.degraded && !r.certificate_failed;
  rec.hit = r.snapshot_hit;
  rec.extended = r.snapshot_hit && r.extended;  // misses extend their fresh snapshot too
  rec.coalesced = r.coalesced;
  rec.tree_hit = !r.snapshot_hit && !r.coalesced && (r.fwd_tree_hit || r.rev_tree_hit);
  rec.stale = r.staleness.stale;
  rec.epochs_behind = r.staleness.epochs_behind;
  return rec;
}

/// Closed-loop clients over `list`: client c sends requests c, c + C, ...
/// of each pass and waits for every answer. All clients meet at each pass
/// boundary, where the PassClock decides whether another pass runs.
struct ClientRun {
  std::vector<std::vector<Record>> records;  // per client
  std::vector<SpanLog> logs;                 // per client (traced only)
  int passes = 0;
  double wall_s = 0;
};

ClientRun run_clients(shard::ShardFleet& fleet, const Setup& su,
                      const std::vector<FleetRequest>& list, int clients,
                      double seconds, bool traced, const EpochGraphs* graphs,
                      Clock::time_point epoch) {
  ClientRun run;
  run.records.resize(static_cast<size_t>(clients));
  run.logs.assign(static_cast<size_t>(clients), SpanLog(epoch));
  PassClock clock(seconds);
  std::atomic<bool> more{true};
  std::barrier sync(clients, [&]() noexcept { more = clock.another_pass(); });
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      auto& recs = run.records[static_cast<size_t>(c)];
      SpanLog& log = run.logs[static_cast<size_t>(c)];
      do {
        for (size_t i = static_cast<size_t>(c); i < list.size();
             i += static_cast<size_t>(clients)) {
          const auto [s, t] = su.pool[list[i].pair];
          const auto t0 = Clock::now();
          shard::FleetResult fr;
          if (traced) {
            SpanLog::Scope sp(log, "fleet.query", static_cast<std::int64_t>(i));
            fr = fleet.query(s, t, list[i].k);
          } else {
            fr = fleet.query(s, t, list[i].k);
          }
          const double ms =
              std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
          recs.push_back(record_of(fr, ms));
          if (traced && recs.back().ok) {
            // A live fleet's answer is certified against the graph of the
            // epoch it is exact for, while that epoch is still retained.
            const auto g = graphs ? graphs->at(fr.result.staleness.epoch) : nullptr;
            if (!graphs || g) {
              SpanLog::Scope sp(log, "check.certify", static_cast<std::int64_t>(i));
              if (!peek::check::certify_paths(g ? *g : su.g, s, t, fr.result.paths)
                       .ok()) {
                recs.back().ok = false;
              }
            }
          }
        }
        sync.arrive_and_wait();
      } while (more.load());
    });
  }
  for (auto& th : threads) th.join();
  run.passes = clock.passes();
  run.wall_s = clock.elapsed();
  return run;
}

/// The writer's timings of one batch.
struct Write {
  double apply_ms = 0, deliver_ms = 0, repair_ms = 0, total_ms = 0;
  bool structural = false;
  size_t ops = 0;
};

/// Closed-loop writer: generate the next batch, wait out the think time,
/// then apply_batch, deliver_batches and drain_repairs on every engine.
/// Runs until `stop`; publishes each epoch's graph into `graphs`.
void writer_loop(shard::ShardFleet& fleet, BatchSource& src, EpochGraphs& graphs,
                 const std::atomic<bool>& stop, std::vector<Write>& writes,
                 SpanLog& log, bool traced) {
  auto since = [](Clock::time_point t) {
    return std::chrono::duration<double, std::milli>(Clock::now() - t).count();
  };
  auto last = Clock::now();
  while (!stop.load()) {
    const dyn::UpdateBatch b = src.next();
    std::this_thread::sleep_until(last + kThinkTime);
    if (stop.load()) break;
    Write w;
    w.ops = b.ops.size();
    const std::int64_t id = static_cast<std::int64_t>(writes.size());
    std::optional<SpanLog::Scope> root;
    if (traced) root.emplace(log, "dyn.write", id);
    const auto t0 = Clock::now();
    dyn::AppliedBatch applied;
    {
      std::optional<SpanLog::Scope> sp;
      if (traced) sp.emplace(log, "dyn.apply_batch", id);
      applied = fleet.apply_batch(b);
    }
    w.apply_ms = since(t0);
    const auto t1 = Clock::now();
    {
      std::optional<SpanLog::Scope> sp;
      if (traced) sp.emplace(log, "dyn.deliver_batches", id);
      fleet.deliver_batches();
    }
    w.deliver_ms = since(t1);
    const auto t2 = Clock::now();
    {
      std::optional<SpanLog::Scope> sp;
      if (traced) sp.emplace(log, "dyn.drain_repairs", id);
      for (int sh = 0; sh < fleet.shards(); ++sh) {
        for (int r = 0; r < fleet.replicas(); ++r) fleet.engine(sh, r).drain_repairs();
      }
    }
    w.repair_ms = since(t2);
    w.total_ms = since(t0);
    root.reset();
    w.structural = applied.structural();
    writes.push_back(w);
    graphs.publish(applied.epoch, src.advance(b));
    last = Clock::now();
  }
}

/// Heap-allocated so the fleet's references into it stay valid.
std::unique_ptr<Setup> make_setup(const RunArgs& args, bool mutate, int clients) {
  auto owner = std::make_unique<Setup>();
  Setup& su = *owner;
  for (auto& bg : peek::bench::benchmark_suite(0)) {
    if (bg.name == "WL") su.g = std::move(bg.g);
  }
  Rng pool_rng(stream_seed(args.seed, 4));
  su.pool = sample_pairs(su.g, kPoolSize, pool_rng);
  if (su.pool.size() < kPoolSize) {
    std::fprintf(stderr, "perfbench: sampled only %zu pool pairs\n", su.pool.size());
    std::exit(1);
  }
  su.list = zipf_requests(kPoolSize, requests_per_pass(mutate, args.seconds), kTheta,
                          args.seed, 10);
  if (mutate) {
    su.dg = std::make_unique<dyn::DynamicGraph>(su.g);
    su.fleet = std::make_unique<shard::ShardFleet>(*su.dg, fleet_options());
  } else {
    su.fleet = std::make_unique<shard::ShardFleet>(su.g, fleet_options());
  }
  // Warm-up: a quarter-length list of its own through the same clients, so
  // caches hold the hot head before the timed phase starts.
  const auto warm = zipf_requests(kPoolSize, kWarmupRequests, kTheta, args.seed, 20);
  (void)run_clients(*su.fleet, su, warm, clients, 0, false, nullptr, Clock::now());
  return owner;
}

std::int64_t counter(const char* name) {
  return peek::obs::MetricsRegistry::global().counter(name).value();
}

const char* const kCounters[] = {"serve.cache.restamps", "serve.cache.region_drops",
                                 "shard.epoch_bounces", "dyn.repair.fallbacks",
                                 "serve.certify.failures"};

struct Phase {
  ClientRun reads;
  std::vector<Write> writes;
  SpanLog writer_log;
  std::map<std::string, std::int64_t> counter_delta;
};

Phase run_phase(Setup& su, const RunArgs& args, bool mutate, int clients,
                bool traced) {
  Phase ph;
  std::map<std::string, std::int64_t> before;
  for (const char* c : kCounters) before[c] = counter(c);
  const auto epoch = Clock::now();
  ph.writer_log = SpanLog(epoch);
  EpochGraphs graphs;
  std::unique_ptr<BatchSource> src;
  std::atomic<bool> stop{false};
  std::thread writer;
  if (mutate) {
    src = std::make_unique<BatchSource>(
        su.g,
        std::vector<std::pair<vid_t, vid_t>>(su.pool.begin(),
                                             su.pool.begin() + kHotPairs),
        args.seed);
    graphs.publish(su.fleet->fence_epoch(), src->current());
    writer = std::thread([&] {
      writer_loop(*su.fleet, *src, graphs, stop, ph.writes, ph.writer_log, traced);
    });
  }
  ph.reads = run_clients(*su.fleet, su, su.list, clients, args.seconds, traced,
                         mutate ? &graphs : nullptr, epoch);
  if (mutate) {
    stop = true;
    writer.join();
  }
  for (const char* c : kCounters) ph.counter_delta[c] = counter(c) - before[c];
  return ph;
}

/// Re-queries every pool pair at K = 8, and the hottest pairs at K = 128,
/// through the fleet and compares each answer bit for bit with
/// core::peek_ksp on the final graph. Returns the number of mismatches.
long verify_pool(Setup& su, int clients, long& attempted) {
  if (su.dg) {
    su.fleet->deliver_batches();
    for (int sh = 0; sh < su.fleet->shards(); ++sh) {
      for (int r = 0; r < su.fleet->replicas(); ++r) su.fleet->engine(sh, r).drain_repairs();
    }
  }
  const peek::graph::CsrGraph final_graph = su.dg ? su.dg->to_csr() : su.g;
  std::vector<FleetRequest> checks;
  for (size_t i = 0; i < su.pool.size(); ++i) checks.push_back({static_cast<std::uint32_t>(i), 8});
  for (size_t i = 0; i < std::min(kVerifyLargeK, su.pool.size()); ++i) {
    checks.push_back({static_cast<std::uint32_t>(i), 128});
  }
  std::atomic<long> failed{0};
  const auto t0 = Clock::now();
  std::vector<std::thread> threads;
  for (int c = 0; c < clients + 1; ++c) {
    threads.emplace_back([&, c] {
      for (size_t i = static_cast<size_t>(c); i < checks.size();
           i += static_cast<size_t>(clients + 1)) {
        const auto [s, t] = su.pool[checks[i].pair];
        const auto fr = su.fleet->query(s, t, checks[i].k);
        peek::core::PeekOptions po;
        po.k = checks[i].k;
        const auto truth = peek::core::peek_ksp(final_graph, s, t, po);
        if (!fr.result.status.ok() || fr.result.degraded || fr.result.staleness.stale ||
            !same_paths(fr.result.paths, truth.ksp.paths)) {
          std::fprintf(stderr, "check: pool pair %u (%d->%d, K=%d) differs from "
                               "peek_ksp on the final graph\n",
                       checks[i].pair, s, t, checks[i].k);
          ++failed;
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  std::printf("# verify: %zu pool re-queries in %.3f s\n", checks.size(),
              std::chrono::duration<double>(Clock::now() - t0).count());
  attempted += static_cast<long>(checks.size());
  return failed.load();
}

std::vector<Record> all_records(const ClientRun& run) {
  std::vector<Record> all;
  for (const auto& r : run.records) all.insert(all.end(), r.begin(), r.end());
  return all;
}

/// Failed reads of a phase plus certificate failures the fleet counted.
long phase_failures(const Phase& ph) {
  long failed = ph.counter_delta.at("serve.certify.failures");
  for (const auto& rec : all_records(ph.reads)) failed += rec.ok ? 0 : 1;
  return failed;
}

void report_layers(Report& report, const Phase& ph, double untraced_p50) {
  const auto recs = all_records(ph.reads);
  const size_t passes = static_cast<size_t>(ph.reads.passes);
  std::vector<double> queue, engine, hit, miss;
  double n_hit = 0, n_ext = 0, n_coal = 0, n_tree = 0, n_miss = 0, n_stale = 0,
         behind = 0;
  for (const Record& r : recs) {
    queue.push_back(r.fleet_ms - r.engine_ms);
    engine.push_back(r.engine_ms);
    const bool is_miss = !r.hit && !r.coalesced;
    if (r.hit) {
      hit.push_back(r.engine_ms);
    } else if (is_miss) {
      miss.push_back(r.engine_ms);
    }
    n_hit += r.hit;
    n_ext += r.extended;
    n_coal += r.coalesced;
    n_tree += r.tree_hit;
    n_miss += is_miss;
    if (r.stale) {
      ++n_stale;
      behind += static_cast<double>(r.epochs_behind);
    }
  }
  const double n = std::max<double>(1, static_cast<double>(recs.size()));
  report.set("shard.queue_wait_ms.p50", median(queue));
  report.set("shard.queue_wait_ms.p99", tail(queue, passes));
  report.set("serve.engine_ms.p50", median(engine));
  report.set("serve.engine_ms.p99", tail(engine, passes));
  report.set("serve.hit_ms.p50", median(hit));
  report.set("serve.miss_ms.p50", median(miss));
  report.set("serve.snapshot_hit_frac", n_hit / n);
  report.set("serve.extended_frac", n_ext / n);
  report.set("serve.coalesced_frac", n_coal / n);
  report.set("serve.tree_hit_frac", n_tree / n);
  report.set("serve.miss_frac", n_miss / n);
  report.set("serve.stale_frac", n_stale / n);
  report.set("serve.epochs_behind.mean", n_stale > 0 ? behind / n_stale : 0);

  std::vector<double> traced_lat, certify;
  for (const auto& log : ph.reads.logs) {
    for (const Span& sp : log.spans()) {
      (std::string(sp.name) == "fleet.query" ? traced_lat : certify).push_back(sp.ms());
    }
  }
  report.set("check.certify_ms.p50", median(certify));
  report.set("trace.overhead_pct",
             100.0 * (median(traced_lat) - untraced_p50) / untraced_p50);
}

void report_writes(Report& report, const Phase& ph) {
  std::vector<double> apply, deliver, repair, total;
  double structural = 0, ops = 0;
  for (const Write& w : ph.writes) {
    apply.push_back(w.apply_ms);
    deliver.push_back(w.deliver_ms);
    repair.push_back(w.repair_ms);
    total.push_back(w.total_ms);
    structural += w.structural;
    ops += static_cast<double>(w.ops);
  }
  const double n = std::max<double>(1, static_cast<double>(ph.writes.size()));
  report.set("write_p50_ms", median(total));
  report.set("dyn.apply_ms.p50", median(apply));
  report.set("dyn.deliver_ms.p50", median(deliver));
  report.set("dyn.repair_ms.p50", median(repair));
  report.set("dyn.batches", static_cast<double>(ph.writes.size()));
  report.set("dyn.structural_frac", structural / n);
  report.set("dyn.ops_per_batch", ops / n);
  for (const char* c : {"serve.cache.restamps", "serve.cache.region_drops",
                        "shard.epoch_bounces", "dyn.repair.fallbacks"}) {
    report.set(c, static_cast<double>(ph.counter_delta.at(c)));
  }
}

}  // namespace

int run_fleet(const RunArgs& args, bool mutate) {
  const int clients = mutate ? 3 : 4;
  std::vector<double> setup_times;
  std::unique_ptr<Setup> owner;
  for (int rep = 0; rep < 3; ++rep) {  // setup_s is the median of three
    owner.reset();
    if (rep == 2) reset_peak_rss();  // peak_rss_mb counts from the kept set-up
    const auto t0 = Clock::now();
    owner = make_setup(args, mutate, clients);
    setup_times.push_back(std::chrono::duration<double>(Clock::now() - t0).count());
  }
  Setup& su = *owner;
  std::printf("# %s: pool %zu pairs, %zu requests per pass, %d reader client(s)%s\n",
              args.workload.c_str(), su.pool.size(), su.list.size(), clients,
              mutate ? " + 1 writer" : "");

  Phase ph = run_phase(su, args, mutate, clients, false);
  auto recs = all_records(ph.reads);
  std::vector<double> lat;
  for (const Record& r : recs) lat.push_back(r.lat_ms);
  const double untraced_p50 = median(lat);
  long attempted = static_cast<long>(recs.size() + ph.writes.size());
  long failed = phase_failures(ph);
  double hits = 0;
  for (const Record& r : recs) hits += r.hit;
  std::printf("# untraced: %d pass(es), %zu reads (%.1f%% snapshot hits), %zu "
              "writes in %.3f s\n",
              ph.reads.passes, recs.size(),
              100.0 * hits / std::max<double>(1, static_cast<double>(recs.size())),
              ph.writes.size(), ph.reads.wall_s);

  Report report(args.trace);
  if (!args.trace) {
    failed += verify_pool(su, clients, attempted);
    report.set("qps", static_cast<double>(recs.size()) / ph.reads.wall_s);
    report.set("p50_ms", untraced_p50);
    report.set("p99_ms", tail(lat, static_cast<size_t>(ph.reads.passes)));
    report.set("setup_s", median(setup_times));
    report.set("peak_rss_mb", peak_rss_mb());
    report.print(failed == 0, attempted, failed);
    return 0;
  }

  // Traced replay on a fresh set-up, so it starts from the same state.
  owner.reset();
  owner = make_setup(args, mutate, clients);
  Setup& tsu = *owner;
  Phase traced = run_phase(tsu, args, mutate, clients, true);
  const auto trecs = all_records(traced.reads);
  attempted += static_cast<long>(trecs.size() + traced.writes.size());
  failed += phase_failures(traced);
  failed += verify_pool(tsu, clients, attempted);
  report_layers(report, traced, untraced_p50);
  double cache_bytes = 0;
  for (int sh = 0; sh < tsu.fleet->shards(); ++sh) {
    for (int r = 0; r < tsu.fleet->replicas(); ++r) {
      cache_bytes += static_cast<double>(tsu.fleet->engine(sh, r).cache().stats().bytes_used);
    }
  }
  report.set("serve.cache_mb", cache_bytes / (1024.0 * 1024.0));
  if (mutate) {
    report_writes(report, traced);
    std::printf("# writes: %zu batches; dyn.repair.fallbacks %lld\n",
                traced.writes.size(),
                static_cast<long long>(traced.counter_delta.at("dyn.repair.fallbacks")));
    if (traced.counter_delta.at("dyn.repair.fallbacks") != 0) ++failed;
  }
  if (!args.trace_out.empty()) {
    std::vector<SpanLog> logs = std::move(traced.reads.logs);
    logs.push_back(std::move(traced.writer_log));
    if (!write_spans(args.trace_out, logs)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", args.trace_out.c_str());
      return 1;
    }
  }
  report.print(failed == 0, attempted, failed);
  return 0;
}

}  // namespace perfbench
