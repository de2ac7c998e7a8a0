// zipf-open: independent users, so an open loop.  One generator thread
// sends Poisson arrivals into a two-worker Scheduler with default cache,
// TinyLFU and priority admission.  Requests draw zipf(1.2) over a pool of
// base instances, each re-presented in fresh units and task order, so the
// service interns and canonicalizes every request anew and mostly hits its
// cache: the service layer does most of the work.  Latency is timed from
// when a request was due, so a stall is charged to the requests queued
// behind it.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "malsched/core/order_lp.hpp"
#include "malsched/core/orderings.hpp"
#include "malsched/service/scheduler.hpp"
#include "probes.hpp"
#include "tracer.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace core = malsched::core;
namespace service = malsched::service;

namespace {

const char* const kSolvers[] = {"wdeq",           "deq",
                                "wrr",            "smith-greedy",
                                "water-fill-smith", "greedy-heuristic",
                                "order-lp-smith"};
constexpr std::size_t kSolverCount = sizeof(kSolvers) / sizeof(kSolvers[0]);

/// Offered rates, fixed so that runs on one host compare: `nominal` near
/// half the knee, `peak` below it.  On a 4-core x86 VM the knee moved
/// between ~47 000/s and ~76 000/s with the load of other guests, so
/// `peak` stays under the lowest.  Much lower rates leave the workers idle
/// between requests, and then the time a VM takes to wake an idle vCPU,
/// not the service, sets the tail.
constexpr double kNominalRps = 25000.0;
constexpr double kPeakRps = 38000.0;
/// Latency limit of the max-rate search, on the same windowed tail as
/// latency_tail_ms.  Loose on purpose: on a shared host that tail jumps
/// between ~0.1 and ~10 ms from run to run below the knee, so the knee is
/// found by the backlog test, and the limit only catches stalls.
constexpr double kTailLimitSeconds = 0.100;
/// Stands for a failed request's latency: it misses every limit.
constexpr double kFailedLatencySeconds = 1e9;
/// A send more than this behind its own schedule counts as late.
constexpr double kLateSeconds = 0.001;
/// A phase whose generator was this late on its own account (not blocked
/// by backpressure) for 1% of its sends measured the generator, not the
/// service: the run is invalid.
constexpr double kInvalidLagP99Seconds = 0.002;
constexpr std::size_t kPoolSize = 64;
constexpr std::size_t kPresentations = 4;

struct Request {
  std::uint32_t base = 0;
  std::uint16_t presentation = 0;
  std::uint16_t solver = 0;
};

struct Inputs {
  std::vector<core::Instance> bases;
  /// presentations[base * kPresentations + k]
  std::vector<core::Instance> presentations;
  std::vector<Request> stream;
};

Inputs make_inputs(std::uint64_t seed, std::size_t requests, bool smoke) {
  malsched::support::Rng rng(seed * 2654435761ULL + 17);
  Inputs inputs;
  const std::size_t pool = smoke ? 16 : kPoolSize;
  const double processors[] = {4.0, 8.0, 16.0};
  // Sizes cycle 8..24 along the popularity ranks (and P along 4, 8, 16), so
  // the hot bases have the same sizes under every seed; the solvers' cost
  // hints, which order the admission queue, scale with n.
  for (std::size_t b = 0; b < pool; ++b) {
    const std::size_t n = smoke ? 8 + b % 3 : 8 + b % 17;
    inputs.bases.push_back(uniform_instance(n, processors[b % 3], rng));
  }
  for (const auto& base : inputs.bases) {
    for (std::size_t k = 0; k < kPresentations; ++k) {
      inputs.presentations.push_back(represent(base, rng));
    }
  }
  std::vector<double> cdf(pool);
  double total = 0.0;
  for (std::size_t r = 0; r < pool; ++r) {
    total += std::pow(static_cast<double>(r + 1), -1.2);
    cdf[r] = total;
  }
  inputs.stream.reserve(requests);
  for (std::size_t i = 0; i < requests; ++i) {
    const double u = rng.uniform(0.0, total);
    Request request;
    request.base = static_cast<std::uint32_t>(std::min<std::size_t>(
        static_cast<std::size_t>(std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin()),
        pool - 1));
    request.presentation = static_cast<std::uint16_t>(rng.uniform_int(0, kPresentations - 1));
    request.solver = static_cast<std::uint16_t>(rng.uniform_int(0, kSolverCount - 1));
    inputs.stream.push_back(request);
  }
  return inputs;
}

const core::Instance& presentation_of(const Inputs& inputs, const Request& request) {
  return inputs.presentations[request.base * kPresentations + request.presentation];
}

/// Poisson send offsets (seconds from the phase start) at `rate` for
/// `duration`, drawn from `seed`.
std::vector<double> schedule(std::uint64_t seed, double rate, double duration) {
  malsched::support::Rng rng(seed);
  std::vector<double> offsets;
  double t = 0.0;
  while (true) {
    t += -std::log(rng.uniform_pos(1.0)) / rate;
    if (t >= duration) {
      return offsets;
    }
    offsets.push_back(t);
  }
}

struct Phase {
  std::vector<double> latency;  ///< successful requests, seconds from due
  /// Every request in send order, a failure counted as missing any limit.
  std::vector<double> judged;
  std::vector<service::SolveResult> results;  ///< kept when asked
  std::size_t sent = 0;
  std::size_t failed = 0;
  std::size_t late = 0;       ///< sends behind their own schedule
  double lag_p99 = 0.0;       ///< seconds
  double drain = 0.0;         ///< last send to last completion, seconds
  double wall = 0.0;          ///< first due to last completion, seconds
  service::CacheStats cache_before;
  service::CacheStats cache_after;
};

/// Sends stream[first, first + offsets.size()) on the schedule and collects
/// every answer.
Phase run_phase(service::Scheduler& scheduler, const Inputs& inputs,
                std::size_t first, const std::vector<double>& offsets,
                Tracer* tracer, bool keep_results) {
  const std::size_t count = offsets.size();
  Phase phase;
  phase.cache_before = scheduler.cache_stats();
  std::vector<service::Ticket> tickets(count);
  std::vector<double> early(count, 0.0);  // submit time minus due time
  std::vector<double> own_lag(count, 0.0);
  if (keep_results) {
    phase.results.resize(count);
  }
  std::vector<double> latency(count, -1.0);
  // Answers are collected on this thread while it waits for the next send
  // time, so the generator adds one busy thread, not two, next to the
  // workers.  The worker stamps each answer's latency, so collecting late
  // does not change it.
  std::size_t collected = 0;
  const auto collect = [&] {
    service::SolveResult result = tickets[collected].get();
    latency[collected] = result.ok() ? early[collected] + result.latency_seconds : -1.0;
    if (keep_results) {
      phase.results[collected] = std::move(result);
    }
    ++collected;
  };

  const auto start = Clock::now() + std::chrono::milliseconds(2);
  auto previous_end = start;
  for (std::size_t i = 0; i < count; ++i) {
    const auto due = start + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(offsets[i]));
    // Spin rather than sleep: an oversleep would count as the generator's
    // own lateness.
    auto now = Clock::now();
    while ((now = Clock::now()) < due) {
      if (collected < i && tickets[collected].ready()) {
        collect();
      }
    }
    own_lag[i] = seconds_between(std::max(due, previous_end), now);
    early[i] = seconds_between(due, now);
    const Request& request = inputs.stream[first + i];
    {
      ScopedSpan span(tracer, "bench.request", first + i + 1);
      service::InstanceHandle handle;
      {
        ScopedSpan intern_span(tracer, "service.intern", first + i + 1);
        handle = service::intern(presentation_of(inputs, request));
      }
      ScopedSpan submit_span(tracer, "service.submit", first + i + 1);
      tickets[i] = scheduler.submit(kSolvers[request.solver], std::move(handle));
    }
    previous_end = Clock::now();
  }
  const auto last_sent = Clock::now();
  while (collected < count) {
    collect();
  }
  const auto last_done = Clock::now();

  phase.sent = count;
  for (std::size_t i = 0; i < count; ++i) {
    if (latency[i] < 0.0) {
      ++phase.failed;
      phase.judged.push_back(kFailedLatencySeconds);
    } else {
      phase.latency.push_back(latency[i]);
      phase.judged.push_back(latency[i]);
    }
    if (own_lag[i] > kLateSeconds) {
      ++phase.late;
    }
  }
  std::sort(own_lag.begin(), own_lag.end());
  phase.lag_p99 = own_lag.empty() ? 0.0 : own_lag[own_lag.size() * 99 / 100];
  phase.drain = count == 0 ? 0.0 : std::max(0.0, seconds_between(last_sent, last_done));
  phase.wall = count == 0 ? 0.0 : seconds_between(start, last_done);
  phase.cache_after = scheduler.cache_stats();
  return phase;
}

/// A generator that ran behind its own schedule makes the run invalid,
/// not fast.
void check_generator(const Phase& phase, const char* name, Report& report) {
  if (phase.lag_p99 > kInvalidLagP99Seconds) {
    report.check_failed(std::string("zipf-open: generator fell behind in phase ") + name +
                        " (own lag p99 " + std::to_string(phase.lag_p99 * 1e3) + " ms, " +
                        std::to_string(phase.late) + " of " + std::to_string(phase.sent) +
                        " sends late)");
  }
}

void account(const Phase& phase, Report& report) {
  report.attempted += phase.sent;
  report.failed += phase.failed;
}

/// Sends every distinct (presentation, solver) key once and waits, so the
/// timed phases run on a warm cache: answers that can be cached are hits,
/// and only failures (never cached) are solved again.
void warm_cache(service::Scheduler& scheduler, const Inputs& inputs) {
  std::vector<service::Ticket> tickets;
  for (const auto& presentation : inputs.presentations) {
    for (const char* solver : kSolvers) {
      tickets.push_back(scheduler.submit(solver, service::intern(presentation)));
    }
  }
  for (auto& ticket : tickets) {
    (void)ticket.get();
  }
}

std::unique_ptr<service::Scheduler> make_scheduler(const service::SolverRegistry& registry) {
  service::Scheduler::Options options;
  options.threads = 2;
  return std::make_unique<service::Scheduler>(registry, options);
}

/// Checks a stride sample of the kept answers (and every failure) against
/// an uncached solve of the same presentation.
void check(const Phase& phase, const Inputs& inputs, std::size_t first,
           const service::SolverRegistry& registry, std::size_t sample,
           Report& report) {
  const std::size_t stride = std::max<std::size_t>(1, phase.results.size() / std::max<std::size_t>(sample, 1));
  std::size_t checked = 0;
  for (std::size_t i = 0; i < phase.results.size(); ++i) {
    const auto& got = phase.results[i];
    if (i % stride != 0 && got.ok()) {
      continue;
    }
    const Request& request = inputs.stream[first + i];
    const char* solver = kSolvers[request.solver];
    const auto want = registry.solve(solver, presentation_of(inputs, request));
    if (!got.ok()) {
      report.count_failure(solver, service::error_code_name(got.error().code));
    }
    if (!same_answer(got, want)) {
      report.check_failed(std::string("zipf-open: ") + solver + " answer on request " +
                          std::to_string(first + i) + " differs from an uncached solve: " +
                          describe_difference(got, want));
    }
    ++checked;
  }
  report.note("zipf-open checked " + std::to_string(checked) + " of " +
              std::to_string(phase.results.size()) + " answers");
}

}  // namespace

void run_zipf_open(const Args& args, Report& report) {
  const double scale = args.smoke ? 0.05 : 1.0;
  const double nominal = kNominalRps * scale;
  const double peak = kPeakRps * scale;
  // Time split: nominal, peak, then six steps of max-rate search.
  const double phase_s = 0.35 * args.seconds;
  const int steps = 6;
  const double step_s = 0.3 * args.seconds / steps;
  const double search_hi = 2.0 * peak;
  const auto stream_size = static_cast<std::size_t>(
      1.2 * (nominal * phase_s + peak * phase_s + search_hi * step_s * steps)) + 1000;

  std::unique_ptr<service::SolverRegistry> registry;
  std::unique_ptr<service::Scheduler> scheduler;
  Inputs inputs;
  std::vector<double> nominal_offsets;
  std::vector<double> peak_offsets;
  const auto teardown = [&] {
    scheduler.reset();
    registry.reset();
  };
  const double setup = median_setup_seconds(args.smoke ? 1 : 5, teardown, [&] {
    inputs = make_inputs(args.seed, stream_size, args.smoke);
    nominal_offsets = schedule(args.seed * 31 + 2, nominal, phase_s);
    peak_offsets = schedule(args.seed * 31 + 3, peak, phase_s);
    registry = std::make_unique<service::SolverRegistry>(
        service::SolverRegistry::with_default_solvers());
    scheduler = make_scheduler(*registry);
  });

  std::size_t cursor = 0;
  const auto run = [&](service::Scheduler& target, const std::vector<double>& offsets,
                       Tracer* tracer, bool keep) {
    Phase phase = run_phase(target, inputs, cursor, offsets, tracer, keep);
    cursor += offsets.size();
    return phase;
  };

  warm_cache(*scheduler, inputs);
  const std::size_t nominal_first = cursor;
  const Phase at_nominal = run(*scheduler, nominal_offsets, nullptr, !args.trace);
  check_generator(at_nominal, "nominal", report);

  if (args.trace) {
    account(at_nominal, report);
    // The same warm-up and nominal traffic, traced, on a fresh Scheduler.
    auto traced_scheduler = make_scheduler(*registry);
    cursor = nominal_first;
    warm_cache(*traced_scheduler, inputs);
    Tracer tracer;
    const Phase traced = run(*traced_scheduler, nominal_offsets, &tracer, false);
    check_generator(traced, "traced nominal", report);
    report.set("bench.trace_overhead_frac",
               median_of(traced.latency) / median_of(at_nominal.latency) - 1.0, "ratio");
    report.set("bench.gen_lag_ms", traced.lag_p99 * 1e3, "ms");
    report.set("bench.late_sends", static_cast<double>(traced.late), "count");
    report.set("failed_frac",
               static_cast<double>(traced.failed) / static_cast<double>(std::max<std::size_t>(traced.sent, 1)),
               "ratio");
    // The traced phase's own share of the (warm) cache's counters.
    service::CacheStats delta;
    delta.hits = traced.cache_after.hits - traced.cache_before.hits;
    delta.misses = traced.cache_after.misses - traced.cache_before.misses;
    delta.admitted = traced.cache_after.admitted - traced.cache_before.admitted;
    delta.rejected = traced.cache_after.rejected - traced.cache_before.rejected;
    delta.evictions = traced.cache_after.evictions - traced.cache_before.evictions;
    report_cache_layer(delta, traced.sent, report);

    report_self_time(tracer, report);
    // The remaining rows time the same public calls on the nominal phase's
    // requests.
    std::vector<core::Instance> instances;
    std::vector<std::string> solvers;
    std::vector<core::Instance> order_lp;
    for (std::size_t i = 0; i < nominal_offsets.size() && instances.size() < 2000; ++i) {
      const Request& request = inputs.stream[nominal_first + i];
      instances.push_back(presentation_of(inputs, request));
      solvers.emplace_back(kSolvers[request.solver]);
      if (solvers.back() == "order-lp-smith") {
        order_lp.push_back(instances.back());
      }
    }
    time_cold_order_lp(order_lp, 0.3, report);
    time_service_calls(instances, solvers, report);
    // Isolated dispatch of the same requests in order through a private
    // cache, warmed as the run's was; queue wait is the rest of their mean
    // latency.
    const double dispatch = measure_dispatch_seconds(instances, solvers, *registry, 0.5,
                                                     /*warm=*/true);
    report.set("service.dispatch_us", dispatch * 1e6, "us");
    report.set("service.queue_wait_ms",
               std::max(0.0, mean_of(traced.latency) - dispatch) * 1e3, "ms");
    time_fluid_solvers(instances, solvers, *registry, report);
    dump_spans(tracer, args, report);
    return;
  }

  const std::size_t peak_first = cursor;
  const Phase at_peak = run(*scheduler, peak_offsets, nullptr, true);
  check_generator(at_peak, "peak", report);
  account(at_nominal, report);
  account(at_peak, report);

  // Bisection for the highest offered rate whose tail stays under the
  // limit with the backlog drained promptly; a failed request is a miss.
  double lo = nominal;
  double hi = search_hi;
  double best = 0.0;
  for (int step = 0; step < steps; ++step) {
    const double rate = step == 0 ? peak : 0.5 * (lo + hi);
    const auto offsets = schedule(args.seed * 31 + 10 + static_cast<std::uint64_t>(step), rate, step_s);
    const Phase probe = run(*scheduler, offsets, nullptr, false);
    account(probe, report);
    // A growing backlog shows as later requests waiting longer: compare the
    // median latency of the step's last quarter with its first quarter.
    const auto& judged = probe.judged;
    const std::size_t quarter = judged.size() / 4;
    const double first_p50 =
        median_of(std::vector<double>(judged.begin(), judged.begin() + static_cast<std::ptrdiff_t>(quarter)));
    const double last_p50 =
        median_of(std::vector<double>(judged.end() - static_cast<std::ptrdiff_t>(quarter), judged.end()));
    const double tail = windowed_tail(judged).value;
    const bool growing = last_p50 > 2.0 * first_p50 + 0.001;
    const bool within = tail < kTailLimitSeconds && !growing &&
                        probe.drain < kTailLimitSeconds &&
                        probe.lag_p99 <= kInvalidLagP99Seconds;
    char line[200];
    std::snprintf(line, sizeof line,
                  "max-rate step %d: %.0f rps, tail %.3f ms, p50 first/last quarter "
                  "%.3f/%.3f ms, drain %.3f ms: %s",
                  step, rate, tail * 1e3, first_p50 * 1e3, last_p50 * 1e3, probe.drain * 1e3,
                  within ? "within" : "over");
    report.note(line);
    if (within) {
      best = std::max(best, rate);
      lo = rate;
    } else {
      hi = rate;
    }
  }

  check(at_nominal, inputs, nominal_first, *registry, args.smoke ? 50 : 800, report);
  check(at_peak, inputs, peak_first, *registry, args.smoke ? 50 : 800, report);

  report.set("setup_s", setup, "s");
  report.set("throughput_rps",
             static_cast<double>(at_nominal.latency.size()) / at_nominal.wall, "1/s");
  report_latency(report, at_nominal.latency, "zipf-open nominal");
  report_latency(report, at_peak.latency, "zipf-open peak", ".peak");
  report.set("max_rate_rps", best, "1/s");
  report.set("peak_rss_mb", self_peak_rss_mb(), "MiB");
  char line[160];
  std::snprintf(line, sizeof line,
                "zipf-open generator: nominal lag p99 %.3f ms (%zu late), peak lag p99 %.3f ms (%zu late)",
                at_nominal.lag_p99 * 1e3, at_nominal.late, at_peak.lag_p99 * 1e3, at_peak.late);
  report.note(line);
}

}  // namespace perfbench
