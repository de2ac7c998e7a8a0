#include "probes.hpp"

#include <algorithm>
#include <map>
#include <memory>
#include <thread>

#include "malsched/core/order_lp.hpp"
#include "malsched/core/orderings.hpp"
#include "malsched/net/shm.hpp"
#include "malsched/service/canonical.hpp"
#include "malsched/service/scheduler.hpp"
#include "malsched/shard/router.hpp"
#include "malsched/shard/wire.hpp"
#include "malsched/sim/engine.hpp"
#include "malsched/sim/policy.hpp"

namespace perfbench {

namespace core = malsched::core;
namespace net = malsched::net;
namespace service = malsched::service;
namespace shard = malsched::shard;
namespace wire = malsched::shard::wire;

namespace {

/// Workloads a per-layer row is measured on, as a bit set.
enum : unsigned {
  kExact = 1u,
  kZipf = 2u,
  kShard = 4u,
  kOnline = 8u,
  kAll = kExact | kZipf | kShard | kOnline,
  kService = kExact | kZipf | kShard,  ///< requests pass through a Scheduler
};

struct LayerRow {
  const char* name;
  const char* unit;
  unsigned on;
};

/// BENCHMARK.json's per-layer list with the workloads whose requests pass
/// through each row's call.
const LayerRow kLayerRows[] = {
    {"core.bnb.nodes", "count", kExact},
    {"core.bnb.lp_evaluations", "count", kExact},
    {"core.bnb.us_per_node", "us", kExact},
    {"core.enum.orders_tried", "count", kExact},
    {"core.enum.share", "ratio", kExact},
    {"core.enum.bnb_alt_ms", "ms", kExact},
    {"lp.order_lp.warm_push_us", "us", kExact},
    {"lp.order_lp.cold_solve_us", "us", kExact | kZipf},
    {"core.water_filling.us", "us", kShard | kZipf},
    {"sim.engine.events", "count", kShard | kZipf},
    {"sim.engine.us_per_event", "us", kShard | kZipf},
    {"service.intern_us", "us", kService},
    {"service.canonicalize_us", "us", kService},
    {"service.cache.get_us", "us", kService},
    {"service.cache.put_us", "us", kService},
    {"service.cache.hit_rate", "ratio", kService},
    {"service.cache.misses", "count", kService},
    {"service.cache.admitted", "count", kService},
    {"service.cache.rejected", "count", kService},
    {"service.cache.evictions", "count", kService},
    {"service.solves_per_request", "ratio", kService},
    {"service.dispatch_us", "us", kService},
    {"service.queue_wait_ms", "ms", kService},
    {"shard.wire.binary.encode_ns", "ns", kShard},
    {"shard.wire.binary.decode_ns", "ns", kShard},
    {"shard.wire.text.encode_ns", "ns", kShard},
    {"shard.wire.text.decode_ns", "ns", kShard},
    {"shard.frames_per_request", "ratio", kShard},
    {"shard.bytes_per_request", "bytes", kShard},
    {"shard.fleet.hit_rate", "ratio", kShard},
    {"shard.transport.dead_peers", "count", kShard},
    {"shard.transport.retries_replayed", "count", kShard},
    {"net.shm.producer_sleeps", "1/kframe", kShard},
    {"net.shm.consumer_sleeps", "1/kframe", kShard},
    {"net.shm.wakes", "1/kframe", kShard},
    {"net.shm.hop_us", "us", kShard},
    {"online.replans", "count", kOnline},
    {"online.events", "count", kOnline},
    {"online.us_per_replan.greedy-append", "us", kOnline},
    {"online.us_per_replan.wsew-replan", "us", kOnline},
    {"online.us_per_replan.wdeq-replan", "us", kOnline},
    {"bench.gen_lag_ms", "ms", kZipf},
    {"bench.late_sends", "count", kZipf},
    {"bench.trace_overhead_frac", "ratio", kAll},
    {"failed_frac", "ratio", kAll},
    {"core.self_ms", "ms", kAll},
    {"lp.self_ms", "ms", kAll},
    {"sim.self_ms", "ms", kAll},
    {"service.self_ms", "ms", kAll},
    {"shard.self_ms", "ms", kAll},
    {"net.self_ms", "ms", kAll},
    {"online.self_ms", "ms", kAll},
};

const char* const kLayers[] = {"core", "lp", "sim", "service", "shard", "net", "online"};

unsigned workload_bit(const std::string& workload) {
  if (workload == "exact-mix") {
    return kExact;
  }
  if (workload == "zipf-open") {
    return kZipf;
  }
  if (workload == "shard-miss") {
    return kShard;
  }
  return kOnline;
}

double elapsed_us(Clock::time_point start) {
  return seconds_between(start, Clock::now()) * 1e6;
}

}  // namespace

std::vector<std::string> end_to_end_metrics(const std::string& workload) {
  // latency_tail_ms is left out of BENCHMARK.json: it followed host steal
  // (see README.md), so it is printed on a '#' line instead.
  std::vector<std::string> names = {"setup_s", "throughput_rps", "latency_p50_ms",
                                    "peak_rss_mb"};
  if (workload == "zipf-open") {
    names.insert(names.end(), {"latency_tail_ms", "latency_p50_ms.peak",
                               "latency_tail_ms.peak", "max_rate_rps"});
  }
  return names;
}

std::vector<std::string> per_layer_metrics() {
  std::vector<std::string> names;
  for (const auto& row : kLayerRows) {
    names.emplace_back(row.name);
  }
  return names;
}

void finish_layer_rows(const std::string& workload, Report& report) {
  const unsigned bit = workload_bit(workload);
  std::string off_path;
  std::string missing;
  for (const auto& row : kLayerRows) {
    if (report.has(row.name)) {
      continue;
    }
    if ((row.on & bit) != 0) {
      missing += std::string(" ") + row.name;
      continue;
    }
    report.set(row.name, 0.0, row.unit);
    off_path += std::string(" ") + row.name;
  }
  if (!off_path.empty()) {
    report.note(workload + " does not pass through these rows (printed as 0):" + off_path);
  }
  if (!missing.empty()) {
    report.check_failed(workload + " did not measure its rows:" + missing);
  }
}

void report_shard_layer(shard::ShardRouter& router, std::uint64_t requests,
                        Report& report) {
  std::uint64_t frames = 0;
  std::uint64_t bytes = 0;
  std::uint64_t producer_sleeps = 0;
  std::uint64_t consumer_sleeps = 0;
  std::uint64_t wakes = 0;
  for (std::size_t w = 0; w < router.shard_count(); ++w) {
    if (const auto stats = router.data_plane_stats(w)) {
      frames += stats->frames_out + stats->frames_in;
      bytes += stats->bytes_out + stats->bytes_in;
      producer_sleeps += stats->producer_sleeps;
      consumer_sleeps += stats->consumer_sleeps;
      wakes += stats->wakes;
    }
  }
  const double per_request = 1.0 / static_cast<double>(std::max<std::uint64_t>(requests, 1));
  const double per_kframe = 1000.0 / static_cast<double>(std::max<std::uint64_t>(frames, 1));
  report.set("shard.frames_per_request", static_cast<double>(frames) * per_request, "ratio");
  report.set("shard.bytes_per_request", static_cast<double>(bytes) * per_request, "bytes");
  report.set("net.shm.producer_sleeps", static_cast<double>(producer_sleeps) * per_kframe, "1/kframe");
  report.set("net.shm.consumer_sleeps", static_cast<double>(consumer_sleeps) * per_kframe, "1/kframe");
  report.set("net.shm.wakes", static_cast<double>(wakes) * per_kframe, "1/kframe");
  const auto fleet = router.fleet_cache_summary();
  report.set("shard.fleet.hit_rate", fleet.total.hit_rate(), "ratio");
  const auto& transport = router.transport_stats();
  report.set("shard.transport.dead_peers", static_cast<double>(transport.dead_peers), "count");
  report.set("shard.transport.retries_replayed",
             static_cast<double>(transport.retries_replayed), "count");
}

void report_cache_layer(const service::CacheStats& stats, std::size_t requests,
                        Report& report) {
  report.set("service.cache.hit_rate", stats.hit_rate(), "ratio");
  report.set("service.cache.misses", static_cast<double>(stats.misses), "count");
  report.set("service.cache.admitted", static_cast<double>(stats.admitted), "count");
  report.set("service.cache.rejected", static_cast<double>(stats.rejected), "count");
  report.set("service.cache.evictions", static_cast<double>(stats.evictions), "count");
  report.set("service.solves_per_request",
             static_cast<double>(stats.misses) /
                 static_cast<double>(std::max<std::size_t>(requests, 1)),
             "ratio");
}

void time_service_calls(const std::vector<core::Instance>& instances,
                        const std::vector<std::string>& solvers, Report& report) {
  double intern_us = 0.0;
  double canonical_us = 0.0;
  std::vector<std::string> keys(instances.size());
  const std::size_t calls = for_budget(instances.size(), 0.15, [&](std::size_t i) {
    core::Instance copy = instances[i];
    auto start = Clock::now();
    auto handle = service::intern(std::move(copy));
    intern_us += elapsed_us(start);
    start = Clock::now();
    keys[i] = solvers[i] + '\n' + service::canonical_text(service::canonicalize(instances[i]));
    canonical_us += elapsed_us(start);
  });
  report.set("service.intern_us", intern_us / static_cast<double>(calls), "us");
  report.set("service.canonicalize_us", canonical_us / static_cast<double>(calls), "us");

  service::CacheOptions options;
  options.admission = true;
  service::ResultCache cache(options);
  double put_us = 0.0;
  double get_us = 0.0;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    service::CachedSolve value;
    value.objective = 1.0;
    value.makespan = 1.0;
    value.completions.assign(instances[i].size(), 1.0);
    const auto start = Clock::now();
    cache.put(keys[i], std::move(value));
    put_us += elapsed_us(start);
  }
  for (const auto& key : keys) {
    const auto start = Clock::now();
    auto hit = cache.get(key);
    get_us += elapsed_us(start);
  }
  const auto count = static_cast<double>(std::max<std::size_t>(keys.size(), 1));
  report.set("service.cache.put_us", put_us / count, "us");
  report.set("service.cache.get_us", get_us / count, "us");
}

double measure_dispatch_seconds(const std::vector<core::Instance>& instances,
                                const std::vector<std::string>& solvers,
                                const service::SolverRegistry& registry,
                                double budget, bool warm) {
  service::CacheOptions options;
  options.admission = true;
  service::ResultCache cache(options);
  if (warm) {
    for (std::size_t i = 0; i < instances.size(); ++i) {
      auto result = service::detail::solve_dispatch(registry, solvers[i],
                                                    service::intern(instances[i]), &cache);
    }
  }
  double total = 0.0;
  std::size_t timed = 0;
  const auto start = Clock::now();
  for (std::size_t i = 0; i < instances.size(); ++i) {
    auto handle = service::intern(instances[i]);
    const auto t0 = Clock::now();
    auto result = service::detail::solve_dispatch(registry, solvers[i], handle, &cache);
    total += seconds_between(t0, Clock::now());
    ++timed;
    if (seconds_between(start, Clock::now()) >= budget) {
      break;
    }
  }
  return total / static_cast<double>(std::max<std::size_t>(timed, 1));
}

void time_fluid_solvers(const std::vector<core::Instance>& instances,
                        const std::vector<std::string>& solvers,
                        const service::SolverRegistry& registry, Report& report) {
  std::map<std::string, std::unique_ptr<malsched::sim::AllocationPolicy>> policies;
  for (auto& policy : malsched::sim::all_policies()) {
    const std::string name = policy->name();
    policies.emplace(name, std::move(policy));
  }
  std::vector<std::size_t> water_fill;
  std::vector<std::size_t> fluid;
  for (std::size_t i = 0; i < instances.size(); ++i) {
    if (solvers[i] == "water-fill-smith") {
      water_fill.push_back(i);
    } else if (policies.count(solvers[i]) != 0) {
      fluid.push_back(i);
    }
  }
  double wf_us = 0.0;
  const std::size_t wf_calls = for_budget(water_fill.size(), 0.15, [&](std::size_t k) {
    const auto start = Clock::now();
    auto result = registry.solve("water-fill-smith", instances[water_fill[k]]);
    wf_us += elapsed_us(start);
  });
  report.set("core.water_filling.us", wf_us / static_cast<double>(std::max<std::size_t>(wf_calls, 1)),
             "us");

  double engine_us = 0.0;
  double events = 0.0;
  const std::size_t engine_calls = for_budget(fluid.size(), 0.15, [&](std::size_t k) {
    const std::size_t i = fluid[k];
    const auto start = Clock::now();
    const auto result = malsched::sim::run_policy(instances[i], *policies.at(solvers[i]));
    engine_us += elapsed_us(start);
    events += static_cast<double>(result.events);
  });
  report.set("sim.engine.events", events / static_cast<double>(std::max<std::size_t>(engine_calls, 1)),
             "count");
  report.set("sim.engine.us_per_event", engine_us / std::max(events, 1.0), "us");
}

void time_cold_order_lp(const std::vector<core::Instance>& instances, double budget,
                        Report& report) {
  double cold_us = 0.0;
  const std::size_t calls = for_budget(instances.size(), budget, [&](std::size_t i) {
    const auto order = core::smith_order(instances[i]);
    const auto start = Clock::now();
    const auto result = core::solve_order_lp(instances[i], order);
    cold_us += elapsed_us(start);
  });
  report.set("lp.order_lp.cold_solve_us", cold_us / static_cast<double>(std::max<std::size_t>(calls, 1)),
             "us");
}

void time_wire_and_ring(const std::vector<core::Instance>& instances,
                        const std::vector<std::string>& solvers, Report& report) {
  const std::size_t count = std::min<std::size_t>(instances.size(), 256);
  std::vector<service::SolveResult> results;
  for (std::size_t i = 0; i < count; ++i) {
    service::SolveOutput output;
    output.objective = 1.0 + static_cast<double>(i);
    output.makespan = 2.0;
    output.completions.assign(instances[i].size(), 0.5);
    results.push_back(service::SolveResult::success(solvers[i], std::move(output)));
  }
  std::vector<std::string> binary_frames;
  for (const auto dialect : {wire::Dialect::Binary, wire::Dialect::Text}) {
    const char* tag = dialect == wire::Dialect::Binary ? "binary" : "text";
    std::vector<std::string> frames;
    double frames_encoded = 0.0;
    const auto encode_start = Clock::now();
    for (int round = 0; round < 4; ++round) {
      frames.clear();
      for (std::size_t i = 0; i < count; ++i) {
        const std::string name = "i" + std::to_string(i);
        frames.push_back(wire::encode_instance(name, instances[i], dialect));
        wire::SolveMessage solve;
        solve.id = i + 1;
        solve.token = i + 1;
        solve.solver = solvers[i];
        solve.instance_name = name;
        frames.push_back(wire::encode_solve(solve, dialect));
        frames.push_back(wire::encode_result(i + 1, i + 1, results[i], dialect));
        frames_encoded += 3.0;
      }
    }
    const double encode_ns = seconds_between(encode_start, Clock::now()) * 1e9;
    double frames_decoded = 0.0;
    bool decoded_all = true;
    const auto decode_start = Clock::now();
    for (int round = 0; round < 4; ++round) {
      for (std::size_t f = 0; f + 2 < frames.size(); f += 3) {
        decoded_all &= wire::decode_instance(frames[f]).has_value();
        decoded_all &= wire::decode_solve(frames[f + 1]).has_value();
        decoded_all &= wire::decode_result(frames[f + 2]).has_value();
        frames_decoded += 3.0;
      }
    }
    const double decode_ns = seconds_between(decode_start, Clock::now()) * 1e9;
    if (!decoded_all) {
      report.check_failed(std::string("a ") + tag + " wire frame did not decode");
    }
    report.set(std::string("shard.wire.") + tag + ".encode_ns",
               encode_ns / std::max(frames_encoded, 1.0), "ns");
    report.set(std::string("shard.wire.") + tag + ".decode_ns",
               decode_ns / std::max(frames_decoded, 1.0), "ns");
    if (dialect == wire::Dialect::Binary) {
      binary_frames = frames;
    }
  }

  // One frame in flight: push on one ring, an echo thread pops it and
  // pushes it back on the other; a hop is half the round trip.
  constexpr std::size_t kRingBytes = std::size_t{1} << 20;
  const std::size_t slot = (net::ShmRing::footprint(kRingBytes) + 63) / 64 * 64;
  auto region = net::ShmRegion::create(2 * slot);
  if (region == nullptr || binary_frames.empty()) {
    report.check_failed("net.shm.hop_us: shared memory unavailable");
    return;
  }
  auto* base = static_cast<unsigned char*>(region->data());
  net::ShmRing forward(base, kRingBytes, true);
  net::ShmRing backward(base + slot, kRingBytes, true);
  const auto forever = Clock::now() + std::chrono::hours(1);
  std::thread echo([&] {
    std::string payload;
    while (forward.pop(&payload, forever) == net::RingStatus::Ok) {
      if (backward.push(payload, forever) != net::RingStatus::Ok) {
        break;
      }
    }
  });
  std::vector<double> round_trips;
  std::string reply;
  bool ring_ok = true;
  for_budget(binary_frames.size(), 0.15, [&](std::size_t i) {
    const auto start = Clock::now();
    ring_ok &= forward.push(binary_frames[i], forever) == net::RingStatus::Ok;
    ring_ok &= backward.pop(&reply, forever) == net::RingStatus::Ok;
    ring_ok &= reply == binary_frames[i];
    round_trips.push_back(seconds_between(start, Clock::now()));
  });
  forward.close();
  echo.join();
  if (!ring_ok) {
    report.check_failed("shm ring echo returned a different frame");
  }
  report.set("net.shm.hop_us", median_of(round_trips) * 0.5e6, "us");
}

void report_self_time(const Tracer& tracer, Report& report) {
  const auto self = tracer.self_seconds();
  for (const char* layer : kLayers) {
    const auto it = self.find(layer);
    report.set(std::string(layer) + ".self_ms", it == self.end() ? 0.0 : it->second * 1e3, "ms");
  }
  if (tracer.dropped() > 0) {
    report.note("tracer dropped " + std::to_string(tracer.dropped()) + " spans");
  }
}

void dump_spans(const Tracer& tracer, const Args& args, Report& report) {
  if (args.out_dir.empty()) {
    return;
  }
  const std::string path = args.out_dir + "/spans-" + args.workload + ".csv";
  if (tracer.write(path)) {
    report.note("spans written to " + path);
  } else {
    report.note("could not write spans to " + path);
  }
}

}  // namespace perfbench
