// exact-mix: one client, one request outstanding, `optimal` on a distinct
// instance each time, through a one-worker Scheduler.  Exact search in
// core/lp does nearly all the work: n! enumeration at n <= 7, B&B above.
// Sizes stop at n = 8 (plus the structured n = 12 shape, which the
// exchange cut keeps near 0.1 s): a uniform n = 9 instance took 0.1-1.2 s
// on a 4-vCPU x86 VM, so a handful of them decided a run's throughput on
// their own.

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "malsched/core/bnb.hpp"
#include "malsched/core/bounds.hpp"
#include "malsched/core/optimal.hpp"
#include "malsched/core/order_lp.hpp"
#include "malsched/service/canonical.hpp"
#include "malsched/service/scheduler.hpp"
#include "probes.hpp"
#include "tracer.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace core = malsched::core;
namespace service = malsched::service;

namespace {

/// Sizes of one block of 20 requests, interleaved so that half a run has
/// the block's mix.  Zero marks the structured two-class n = 12 shape.
/// A run of five blocks holds 20 n = 7 requests, the slowest kind, so its
/// ten-beyond tail (the eleventh-largest latency) falls in the middle of
/// them rather than on a few outliers, and its median on the n = 6 ones.
constexpr std::size_t kBlock[] = {6, 7, 6, 8, 6, 6, 7, 8, 6, 0,
                                  6, 7, 8, 6, 6, 7, 6, 8, 6, 6};
constexpr std::size_t kBlockSize = sizeof(kBlock) / sizeof(kBlock[0]);
/// Wall time of one block on a 4-core x86 host (RelWithDebInfo).
constexpr double kBlockSeconds = 4.2;

/// Tall-narrow (V=2, δ=1) and short-wide (V=1, δ=4) classes of six on
/// P = 4 with geometric weights, as in bench_bnb; the ratio is drawn per
/// instance so each is a distinct canonical key.
core::Instance structured_instance(malsched::support::Rng& rng) {
  const double ratio = rng.uniform(1.5, 2.5);
  const double cross = rng.uniform(0.7, 1.1);
  std::vector<core::Task> tasks;
  for (int i = 0; i < 6; ++i) {
    tasks.push_back({2.0, 1.0, std::pow(ratio, i)});
    tasks.push_back({1.0, 4.0, cross * std::pow(ratio, 5 - i)});
  }
  return core::Instance(4.0, std::move(tasks));
}

std::vector<core::Instance> make_inputs(std::uint64_t seed, std::size_t blocks,
                                        bool smoke) {
  malsched::support::Rng rng(seed * 1000003 + 11);
  std::vector<core::Instance> inputs;
  for (std::size_t b = 0; b < blocks; ++b) {
    for (const std::size_t n : kBlock) {
      if (smoke) {
        inputs.push_back(uniform_instance(5, 4.0, rng));
      } else {
        inputs.push_back(n == 0 ? structured_instance(rng) : uniform_instance(n, 4.0, rng));
      }
    }
  }
  return inputs;
}

struct Record {
  std::size_t input = 0;
  double latency = 0.0;  ///< submit to Ticket::get, seconds
  double gap = 0.0;      ///< previous completion to this submit, seconds
  service::SolveResult result;
};

struct Pass {
  std::vector<Record> records;
  double wall = 0.0;
};

/// Closed loop over the first `count` inputs: the next request is
/// submitted when the previous one returned.
Pass run_pass(service::Scheduler& scheduler, const std::vector<core::Instance>& inputs,
              std::size_t count, Tracer* tracer) {
  Pass pass;
  const auto start = Clock::now();
  auto previous = start;
  for (std::size_t i = 0; i < count; ++i) {
    Record record;
    record.input = i;
    ScopedSpan request_span(tracer, "bench.request", i + 1);
    const auto submitted = Clock::now();
    record.gap = seconds_between(previous, submitted);
    service::Ticket ticket;
    {
      service::InstanceHandle handle;
      {
        ScopedSpan span(tracer, "service.intern", i + 1);
        handle = service::intern(inputs[i]);
      }
      ScopedSpan span(tracer, "service.submit", i + 1);
      ticket = scheduler.submit("optimal", std::move(handle));
    }
    {
      ScopedSpan span(tracer, "bench.wait", i + 1);
      record.result = ticket.get();
    }
    previous = Clock::now();
    record.latency = seconds_between(submitted, previous);
    pass.records.push_back(std::move(record));
  }
  pass.wall = seconds_between(start, Clock::now());
  return pass;
}

void account(const Pass& pass, Report& report) {
  for (const auto& record : pass.records) {
    ++report.attempted;
    if (!record.result.ok()) {
      ++report.failed;
      report.count_failure("optimal", service::error_code_name(record.result.error().code));
    }
  }
}

void check(const Pass& pass, const std::vector<core::Instance>& inputs,
           const service::SolverRegistry& registry, Report& report) {
  std::size_t checked = 0;
  for (const auto& record : pass.records) {
    if (!record.result.ok()) {
      continue;
    }
    const auto& instance = inputs[record.input];
    const double objective = record.result.objective();
    const double lower = core::best_simple_lower_bound(instance);
    const auto greedy = registry.solve("greedy-heuristic", instance);
    const double slack = 1e-9 * std::max(1.0, std::abs(objective));
    if (objective < lower - slack) {
      report.check_failed("exact-mix: objective below the lower bound on input " +
                          std::to_string(record.input));
    }
    if (greedy.ok() && objective > greedy.objective() + slack) {
      report.check_failed("exact-mix: objective above greedy-heuristic on input " +
                          std::to_string(record.input));
    }
    if (instance.size() <= 7) {
      // The service solves `optimal` in its scale-only canonical space and
      // rescales the objective; B&B on the same space, rescaled the same
      // way, must give the very same bits.
      service::CanonicalOptions options;
      options.permute = false;
      const auto form = service::canonicalize(instance, options);
      const bool canonical = service::well_conditioned(form);
      const double expected =
          canonical ? form.objective_scale * core::branch_and_bound(form.instance).objective
                    : core::branch_and_bound(instance).objective;
      if (expected != objective) {
        report.check_failed("exact-mix: objective differs from branch_and_bound on input " +
                            std::to_string(record.input));
      }
    }
    ++checked;
  }
  report.note("exact-mix checked " + std::to_string(checked) + " objectives");
}

/// The core.bnb.*, core.enum.* and lp.order_lp.warm_push_us rows, timed
/// on the workload's own instances: B&B where the service runs it (n >= 8),
/// enumeration and B&B side by side where it enumerates (n <= 7), and warm
/// pushes along each instance's optimal order.
void time_exact_search(const std::vector<core::Instance>& instances, Report& report) {
  std::vector<std::size_t> searched;
  std::vector<std::size_t> enumerated;
  for (std::size_t i = 0; i < instances.size(); ++i) {
    (instances[i].size() <= 7 ? enumerated : searched).push_back(i);
  }
  double nodes = 0.0;
  double lp_evaluations = 0.0;
  double busy_us = 0.0;
  std::vector<std::vector<std::size_t>> orders(instances.size());
  const std::size_t bnb_calls = for_budget(searched.size(), 1.5, [&](std::size_t k) {
    const std::size_t i = searched[k];
    const auto start = Clock::now();
    auto result = core::branch_and_bound(instances[i]);
    busy_us += seconds_between(start, Clock::now()) * 1e6;
    nodes += static_cast<double>(result.stats.nodes);
    lp_evaluations += static_cast<double>(result.stats.lp_evaluations);
    orders[i] = std::move(result.order);
  }, /*wrap=*/false);
  const double calls = static_cast<double>(std::max<std::size_t>(bnb_calls, 1));
  report.set("core.bnb.nodes", nodes / calls, "count");
  report.set("core.bnb.lp_evaluations", lp_evaluations / calls, "count");
  report.set("core.bnb.us_per_node", busy_us / std::max(nodes, 1.0), "us");

  double orders_tried = 0.0;
  double alt_ms = 0.0;
  const std::size_t enum_calls = for_budget(enumerated.size(), 1.5, [&](std::size_t k) {
    const std::size_t i = enumerated[k];
    orders_tried += static_cast<double>(core::optimal_by_enumeration(instances[i]).orders_tried);
    const auto start = Clock::now();
    auto result = core::branch_and_bound(instances[i]);
    alt_ms += seconds_between(start, Clock::now()) * 1e3;
    orders[i] = std::move(result.order);
  }, /*wrap=*/false);
  const double enums = static_cast<double>(std::max<std::size_t>(enum_calls, 1));
  report.set("core.enum.orders_tried", orders_tried / enums, "count");
  report.set("core.enum.bnb_alt_ms", alt_ms / enums, "ms");

  double push_us = 0.0;
  double pushes = 0.0;
  for (std::size_t i = 0; i < instances.size(); ++i) {
    if (orders[i].empty()) {
      continue;
    }
    core::OrderLpEvaluator evaluator(instances[i]);
    for (const std::size_t task : orders[i]) {
      const auto start = Clock::now();
      evaluator.push(task, /*exact=*/false);
      push_us += seconds_between(start, Clock::now()) * 1e6;
      pushes += 1.0;
    }
  }
  report.set("lp.order_lp.warm_push_us", push_us / std::max(pushes, 1.0), "us");
}

}  // namespace

void run_exact_mix(const Args& args, Report& report) {
  std::unique_ptr<service::SolverRegistry> registry;
  std::unique_ptr<service::Scheduler> scheduler;
  std::vector<core::Instance> inputs;
  // Fixed work: whole blocks, as many as take about --seconds on the
  // reference host, so every run solves the same mix.
  const std::size_t blocks = args.smoke ? 2
                                        : std::max<std::size_t>(
                                              2, static_cast<std::size_t>(std::lround(
                                                     args.seconds / kBlockSeconds)));
  const auto teardown = [&] {
    scheduler.reset();
    registry.reset();
  };
  const double setup = median_setup_seconds(args.smoke ? 1 : 31, teardown, [&] {
    inputs = make_inputs(args.seed, blocks, args.smoke);
    registry = std::make_unique<service::SolverRegistry>(
        service::SolverRegistry::with_default_solvers());
    service::Scheduler::Options options;
    options.threads = 1;
    scheduler = std::make_unique<service::Scheduler>(*registry, options);
  });

  if (!args.trace) {
    const Pass pass = run_pass(*scheduler, inputs, inputs.size(), nullptr);
    account(pass, report);
    check(pass, inputs, *registry, report);
    std::vector<double> latencies;
    std::map<std::size_t, std::pair<std::size_t, double>> by_size;
    for (const auto& record : pass.records) {
      latencies.push_back(record.latency);
      auto& [count, total] = by_size[inputs[record.input].size()];
      ++count;
      total += record.latency;
    }
    for (const auto& [n, entry] : by_size) {
      report.note("exact-mix n=" + std::to_string(n) + ": " + std::to_string(entry.first) +
                  " requests, mean " + std::to_string(entry.second / static_cast<double>(entry.first) * 1e3) +
                  " ms");
    }
    report.set("setup_s", setup, "s");
    report.set("throughput_rps",
               static_cast<double>(report.attempted - report.failed) / pass.wall, "1/s");
    report_latency(report, latencies, "exact-mix");
    report.set("peak_rss_mb", self_peak_rss_mb(), "MiB");
    return;
  }

  // Untraced half, then the same requests traced on a fresh Scheduler (so
  // its cache is as cold as the first one's was).  The traced Scheduler's
  // registry wraps "optimal" in a span, so the exact search its worker
  // thread runs is charged to core.
  const std::size_t half = blocks / 2 * kBlockSize;
  const Pass plain = run_pass(*scheduler, inputs, half, nullptr);
  Tracer tracer;
  service::SolverRegistry traced_registry = *registry;
  {
    auto info = *registry->find("optimal");
    info.fn = [inner = info.fn, &tracer](const core::Instance& instance,
                                         const service::SolveContext& context) {
      ScopedSpan span(&tracer, "core.optimal");
      return inner(instance, context);
    };
    traced_registry.register_solver("optimal", std::move(info));
  }
  service::Scheduler::Options options;
  options.threads = 1;
  auto traced_scheduler = std::make_unique<service::Scheduler>(traced_registry, options);
  const Pass traced = run_pass(*traced_scheduler, inputs, half, &tracer);
  const auto cache = traced_scheduler->cache_stats();
  traced_scheduler.reset();  // joins the worker, so its spans are complete
  account(traced, report);
  for (std::size_t i = 0; i < traced.records.size(); ++i) {
    if (!same_answer(traced.records[i].result, plain.records[i].result)) {
      report.check_failed("exact-mix: traced answer differs from untraced on input " +
                          std::to_string(i));
    }
  }
  report.set("bench.trace_overhead_frac", traced.wall / plain.wall - 1.0, "ratio");
  report.set("failed_frac",
             static_cast<double>(report.failed) / static_cast<double>(std::max<std::uint64_t>(report.attempted, 1)),
             "ratio");
  report_self_time(tracer, report);
  report.note("exact-mix: lp runs inside core.optimal on the worker thread, so lp.self_ms "
              "is 0 here; lp.order_lp.* time its calls");
  report_cache_layer(cache, traced.records.size(), report);

  std::vector<core::Instance> instances;
  double enum_busy = 0.0;
  double busy = 0.0;
  for (const auto& record : traced.records) {
    instances.push_back(inputs[record.input]);
    busy += record.latency;
    if (inputs[record.input].size() <= 7) {
      enum_busy += record.latency;
    }
  }
  report.set("core.enum.share", busy > 0.0 ? enum_busy / busy : 0.0, "ratio");
  time_exact_search(instances, report);
  time_cold_order_lp(instances, 0.3, report);
  const std::vector<std::string> solvers(instances.size(), "optimal");
  time_service_calls(instances, solvers, report);
  // Dispatch is timed on one whole block, so it sees the block's mix, and
  // compared with the same requests' latency.
  const std::size_t block = std::min(kBlockSize, instances.size());
  const std::vector<core::Instance> first_block(instances.begin(),
                                                instances.begin() + static_cast<std::ptrdiff_t>(block));
  const double dispatch = measure_dispatch_seconds(first_block, solvers, *registry, 60.0);
  double block_latency = 0.0;
  for (std::size_t i = 0; i < block; ++i) {
    block_latency += traced.records[i].latency;
  }
  report.set("service.dispatch_us", dispatch * 1e6, "us");
  report.set("service.queue_wait_ms",
             std::max(0.0, block_latency / static_cast<double>(std::max<std::size_t>(block, 1)) -
                               dispatch) * 1e3,
             "ms");
  dump_spans(tracer, args, report);
}

}  // namespace perfbench
