// shard-miss: closed batches through a ShardRouter with two forked workers
// on the default shm data plane, one Scheduler thread each.  Every request
// is a distinct instance with a cheap solver, so every one is a cache miss
// plus an insert (the write side of the cache zipf-open reads).
//
// The router and its workers share one CPU while they serve.  Spread over
// the cores of a shared VM, every ring hand-off wakes another vCPU, and how
// long that takes follows the load of other guests: unpinned, runs minutes
// apart went at 10 000-20 000 requests/s.  On one CPU the hand-offs are
// local context switches, and 1 / throughput is the CPU cost of the whole
// sharded path: router wire, rings, worker, Scheduler, cache and solver.

#include <cmath>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include <sched.h>

#include "common.hpp"
#include "malsched/service/service.hpp"
#include "malsched/shard/router.hpp"
#include "probes.hpp"
#include "tracer.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace service = malsched::service;
namespace shard = malsched::shard;

namespace {

const char* const kSolvers[] = {"wdeq", "deq", "smith-greedy", "water-fill-smith"};
constexpr std::size_t kBatch = 5000;
/// Batches one CPU of a 4-vCPU x86 VM serves per second, with the router
/// and both workers pinned to it (RelWithDebInfo).
constexpr double kBatchesPerSecond = 2.0;

/// Confines the calling thread, and the workers it forks from then on, to
/// the last CPU it may run on.  Returns the previous set, for restore_cpus.
cpu_set_t pin_to_one_cpu() {
  cpu_set_t previous;
  CPU_ZERO(&previous);
  if (sched_getaffinity(0, sizeof previous, &previous) != 0) {
    return previous;
  }
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
    if (CPU_ISSET(cpu, &previous)) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpu, &one);
      sched_setaffinity(0, sizeof one, &one);
      break;
    }
  }
  return previous;
}

/// Gives the calling thread back the CPUs pin_to_one_cpu took from it, so
/// the untimed checks and probes run on every core.
void restore_cpus(const cpu_set_t& previous) {
  if (CPU_COUNT(&previous) > 0) {
    sched_setaffinity(0, sizeof previous, &previous);
  }
}

service::ServiceOptions worker_options() {
  service::ServiceOptions options;
  options.threads = 1;
  return options;
}

std::unique_ptr<shard::ShardRouter> make_router(const service::SolverRegistry& registry) {
  shard::RouterOptions options;
  options.shards = 2;
  options.data_plane = shard::DataPlaneMode::Shm;
  options.worker = worker_options();
  return std::make_unique<shard::ShardRouter>(registry, options);
}

/// Batch `index` of the run: distinct §V-uniform instances (P = 8,
/// n = 8..16), solvers in rotation.
service::BatchSpec make_batch(std::uint64_t seed, std::size_t index, std::size_t size) {
  malsched::support::Rng rng(seed * 6364136223846793005ULL + index * 1442695040888963407ULL + 7);
  service::BatchSpec batch;
  for (std::size_t i = 0; i < size; ++i) {
    const std::string name = "b" + std::to_string(index) + "i" + std::to_string(i);
    const auto n = static_cast<std::size_t>(rng.uniform_int(8, 16));
    batch.instances.emplace(name, uniform_instance(n, 8.0, rng));
    service::BatchSpec::Request request;
    request.solver = kSolvers[rng.uniform_int(0, 3)];
    request.instance_name = name;
    batch.requests.push_back(request);
  }
  return batch;
}

struct Pass {
  std::vector<double> latency;  ///< router send-to-result, seconds
  std::size_t requests = 0;
  std::size_t ok = 0;
  double wall = 0.0;            ///< sum of timed router runs
  std::vector<double> batch_rps;  ///< successful requests / wall, per batch
  std::vector<double> batch_p50;  ///< median latency of each batch, seconds
  /// Hash of format_results per batch; the text itself would inflate the
  /// peak RSS this workload reports.
  std::vector<std::size_t> outputs;
};

/// Runs `batches` batches.  Generating a batch is not timed.
Pass run_pass(shard::ShardRouter& router, std::uint64_t seed, std::size_t batch_size,
              std::size_t batches, Tracer* tracer) {
  Pass pass;
  for (std::size_t b = 0; b < batches; ++b) {
    const auto batch = make_batch(seed, b, batch_size);
    const auto start = Clock::now();
    service::ServiceReport result;
    {
      ScopedSpan span(tracer, "shard.router_run", b + 1);
      result = router.run(batch);
    }
    const double wall = seconds_between(start, Clock::now());
    pass.wall += wall;
    pass.requests += batch.requests.size();
    std::size_t ok = 0;
    for (const auto& r : result.results) {
      ok += r.ok() ? 1 : 0;
    }
    pass.ok += ok;
    pass.batch_rps.push_back(static_cast<double>(ok) / wall);
    const auto& samples = result.latencies.values();
    pass.batch_p50.push_back(median_of(samples));
    pass.latency.insert(pass.latency.end(), samples.begin(), samples.end());
    pass.outputs.push_back(std::hash<std::string>{}(service::format_results(result)));
  }
  return pass;
}

void account(const Pass& pass, Report& report) {
  report.attempted += pass.requests;
  report.failed += pass.requests - pass.ok;
}

/// Each batch's output must be byte-identical to single-process serving
/// (compared through a 64-bit hash of the text).
void check(const Pass& pass, std::uint64_t seed, std::size_t batch_size,
           const service::SolverRegistry& registry, Report& report) {
  service::ServiceOptions options = worker_options();
  options.threads = 4;  // the answers do not depend on the thread count
  for (std::size_t b = 0; b < pass.outputs.size(); ++b) {
    const auto batch = make_batch(seed, b, batch_size);
    const auto single = service::run_service(batch, registry, options);
    for (std::size_t i = 0; i < single.results.size(); ++i) {
      if (!single.results[i].ok()) {
        report.count_failure(batch.requests[i].solver,
                             service::error_code_name(single.results[i].error().code));
      }
    }
    if (std::hash<std::string>{}(service::format_results(single)) != pass.outputs[b]) {
      report.check_failed("shard-miss: batch " + std::to_string(b) +
                          " differs from single-process run_service");
    }
  }
  report.note("shard-miss compared " + std::to_string(pass.outputs.size()) +
              " batches with run_service (hash of the result text)");
}

double fleet_peak_rss_mb(const shard::ShardRouter& router) {
  double total = self_peak_rss_mb();
  for (std::size_t w = 0; w < router.shard_count(); ++w) {
    total += process_peak_rss_mb(router.pid_of(w));
  }
  return total;
}

}  // namespace

void run_shard_miss(const Args& args, Report& report) {
  const std::size_t batch_size = args.smoke ? 200 : kBatch;
  // Fixed work: as many batches as take about --seconds on the reference
  // host, so every run serves the same number of requests.
  const std::size_t batches =
      args.smoke ? 5
                 : std::max<std::size_t>(
                       2, static_cast<std::size_t>(std::lround(args.seconds * kBatchesPerSecond)));
  // The routers fork without exec, so every router is built here, before
  // this process starts any thread.  The workers inherit the one CPU.
  const cpu_set_t all_cpus = pin_to_one_cpu();
  std::unique_ptr<service::SolverRegistry> registry;
  std::unique_ptr<shard::ShardRouter> router;
  service::BatchSpec first;
  const auto teardown = [&] {
    router.reset();
    registry.reset();
  };
  const double setup = median_setup_seconds(args.smoke ? 1 : 15, teardown, [&] {
    first = make_batch(args.seed, 0, batch_size);
    registry = std::make_unique<service::SolverRegistry>(
        service::SolverRegistry::with_default_solvers());
    router = make_router(*registry);
  });
  std::unique_ptr<shard::ShardRouter> traced_router;
  if (args.trace) {
    traced_router = make_router(*registry);
  }

  if (!args.trace) {
    const Pass pass = run_pass(*router, args.seed, batch_size, batches, nullptr);
    restore_cpus(all_cpus);
    account(pass, report);
    report.set("peak_rss_mb", fleet_peak_rss_mb(*router), "MiB");
    check(pass, args.seed, batch_size, *registry, report);
    report.set("setup_s", setup, "s");
    // Medians over the batches: a stretch of host contention that slows a
    // few batches does not move them.
    report.set("throughput_rps", median_of(pass.batch_rps), "1/s");
    report_latency(report, pass.latency, "shard-miss");
    // Replaces the whole-run median report_latency set; that one is noted below.
    report.set("latency_p50_ms", median_of(pass.batch_p50) * 1e3, "ms");
    char line[200];
    std::snprintf(line, sizeof line,
                  "shard-miss over all %zu batches: %.6g requests/s, latency p50 %.6g ms",
                  pass.batch_rps.size(), static_cast<double>(pass.ok) / pass.wall,
                  median_of(pass.latency) * 1e3);
    report.note(line);
    return;
  }

  // Untraced half, then the same batches traced on the second (cold) fleet.
  const Pass plain = run_pass(*router, args.seed, batch_size, batches / 2, nullptr);
  Tracer tracer;
  const Pass traced = run_pass(*traced_router, args.seed, batch_size, batches / 2, &tracer);
  restore_cpus(all_cpus);
  account(traced, report);
  if (traced.outputs != plain.outputs) {
    report.check_failed("shard-miss: traced fleet answered differently from the untraced one");
  }
  report.set("bench.trace_overhead_frac", traced.wall / plain.wall - 1.0, "ratio");
  report.set("failed_frac",
             static_cast<double>(report.failed) / static_cast<double>(std::max<std::uint64_t>(report.attempted, 1)),
             "ratio");
  report_self_time(tracer, report);
  report.note("shard-miss: a router run covers its ring hops and the workers' service and "
              "solver time (in other processes), so only shard.self_ms is nonzero");
  report_shard_layer(*traced_router, traced.requests, report);
  report_cache_layer(traced_router->fleet_cache_summary().total, traced.requests, report);

  // The remaining rows time the same public calls on the first batch.
  std::vector<malsched::core::Instance> instances;
  std::vector<std::string> solvers;
  for (const auto& request : first.requests) {
    instances.push_back(first.instances.at(request.instance_name));
    solvers.push_back(request.solver);
  }
  time_service_calls(instances, solvers, report);
  const double dispatch = measure_dispatch_seconds(instances, solvers, *registry, 0.3);
  report.set("service.dispatch_us", dispatch * 1e6, "us");
  report.set("service.queue_wait_ms", std::max(0.0, mean_of(traced.latency) - dispatch) * 1e3, "ms");
  time_fluid_solvers(instances, solvers, *registry, report);
  time_wire_and_ring(instances, solvers, report);
  dump_spans(tracer, args, report);
}

}  // namespace perfbench
