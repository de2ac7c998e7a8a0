// online-replay: one thread replays synthesized arrival traces back to
// back.  The online clock and the replan policies' fluid loops do the work;
// no other workload runs them.  exact-replan is left out: its per-replan
// budget is wall-clock, so its answers would depend on machine speed.

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "malsched/online/clock.hpp"
#include "malsched/online/replan.hpp"
#include "malsched/online/trace.hpp"
#include "probes.hpp"
#include "tracer.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace core = malsched::core;
namespace online = malsched::online;

namespace {

using PolicyFactory = std::unique_ptr<online::ReplanPolicy> (*)();

struct Policy {
  const char* name;
  PolicyFactory make;
};

const Policy kPolicies[] = {{"greedy-append", online::make_greedy_append_policy},
                            {"wsew-replan", online::make_wsew_replan_policy},
                            {"wdeq-replan", online::make_wdeq_replan_policy}};
constexpr std::size_t kPolicyCount = sizeof(kPolicies) / sizeof(kPolicies[0]);
/// Trace sizes; every family gets the same number of traces of each, so
/// every run replays the same mix of sizes.
constexpr std::size_t kSizes[] = {60, 75, 90, 105, 120};
/// Traces per (family, size) and second of --seconds: each is replayed
/// once under every policy, which takes about a second per 3.6 of them on
/// a 4-core x86 host (RelWithDebInfo).  Replay cost varies widely between
/// traces of one kind, so the run replays many distinct traces rather
/// than repeating a few.
constexpr double kTracesPerSecond = 3.6;

struct Item {
  std::size_t trace = 0;
  std::size_t policy = 0;
};

struct Inputs {
  std::vector<online::ArrivalTrace> traces;
  std::vector<core::Instance> batches;  ///< each trace's batch instance
  std::vector<Item> order;              ///< every (trace, policy), shuffled
};

Inputs make_inputs(std::uint64_t seed, std::size_t copies, bool smoke) {
  malsched::support::Rng rng(seed * 40503 + 23);
  Inputs inputs;
  for (const auto family : online::all_trace_families()) {
    for (const std::size_t n : kSizes) {
      for (std::size_t copy = 0; copy < copies; ++copy) {
        online::TraceConfig config;
        config.family = family;
        config.num_tasks = smoke ? n / 6 : n;
        config.processors = 8.0;
        inputs.traces.push_back(online::generate_trace(config, rng));
      }
      if (smoke) {
        break;
      }
    }
  }
  for (const auto& trace : inputs.traces) {
    inputs.batches.push_back(trace.to_instance());
  }
  for (std::size_t t = 0; t < inputs.traces.size(); ++t) {
    for (std::size_t p = 0; p < kPolicyCount; ++p) {
      inputs.order.push_back(Item{t, p});
    }
  }
  for (std::size_t i = inputs.order.size(); i > 1; --i) {
    std::swap(inputs.order[i - 1],
              inputs.order[static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(i) - 1))]);
  }
  return inputs;
}

struct Record {
  double seconds = 0.0;
  double objective = 0.0;
  std::size_t replans = 0;
  std::size_t events = 0;
};

struct Pass {
  std::vector<Record> records;
  double wall = 0.0;  ///< the timed chunks only
};

/// Replays the first `count` items of the seeded order, once each, in
/// timed chunks.  After each chunk, untimed, every schedule is validated
/// against its trace's batch instance and dropped, so memory stays flat.
Pass run_pass(const Inputs& inputs, std::size_t count, Tracer* tracer, Report& report) {
  constexpr std::size_t kChunk = 256;
  Pass pass;
  pass.records.reserve(count);
  std::vector<online::ReplayResult> results;
  for (std::size_t first = 0; first < count; first += kChunk) {
    const std::size_t last = std::min(count, first + kChunk);
    results.clear();
    const auto start = Clock::now();
    for (std::size_t r = first; r < last; ++r) {
      const Item& work = inputs.order[r];
      auto policy = kPolicies[work.policy].make();
      const auto t0 = Clock::now();
      {
        ScopedSpan span(tracer, "online.replay", r + 1);
        results.push_back(online::replay(inputs.traces[work.trace], *policy));
      }
      const auto& result = results.back();
      pass.records.push_back(Record{seconds_between(t0, Clock::now()),
                                    result.weighted_completion, result.replans, result.events});
    }
    pass.wall += seconds_between(start, Clock::now());
    for (std::size_t r = first; r < last; ++r) {
      const auto& work = inputs.order[r];
      const auto validation = results[r - first].schedule.validate(inputs.batches[work.trace]);
      if (!validation) {
        report.check_failed(std::string("online-replay: ") + kPolicies[work.policy].name +
                            " schedule invalid on trace " + std::to_string(work.trace) + ": " +
                            validation.message);
      }
    }
  }
  report.note("online-replay validated " + std::to_string(count) + " schedules");
  return pass;
}

}  // namespace

void run_online_replay(const Args& args, Report& report) {
  // Fixed work sized from --seconds, so every run replays the same mix.
  const std::size_t copies =
      args.smoke ? 1
                 : std::max<std::size_t>(
                       2, static_cast<std::size_t>(std::lround(args.seconds * kTracesPerSecond)));
  Inputs inputs;
  const double setup = median_setup_seconds(
      args.smoke ? 1 : 9, [&] { inputs = Inputs(); },
      [&] { inputs = make_inputs(args.seed, copies, args.smoke); });

  if (!args.trace) {
    const Pass pass = run_pass(inputs, inputs.order.size(), nullptr, report);
    report.attempted = pass.records.size();
    std::vector<double> latencies;
    for (const auto& record : pass.records) {
      latencies.push_back(record.seconds);
    }
    report.set("setup_s", setup, "s");
    report.set("throughput_rps", static_cast<double>(pass.records.size()) / pass.wall, "1/s");
    report_latency(report, latencies, "online-replay");
    report.set("peak_rss_mb", self_peak_rss_mb(), "MiB");
    return;
  }

  // The first half of the items untraced, then the same items traced; a
  // replay is deterministic, so both passes must agree.
  const std::size_t half = inputs.order.size() / 2;
  const Pass plain = run_pass(inputs, half, nullptr, report);
  Tracer tracer;
  const Pass traced = run_pass(inputs, half, &tracer, report);
  report.attempted = traced.records.size();
  for (std::size_t r = 0; r < half; ++r) {
    if (traced.records[r].objective != plain.records[r].objective) {
      report.check_failed("online-replay: a repeated replay changed its objective");
      break;
    }
  }
  report.set("bench.trace_overhead_frac", traced.wall / plain.wall - 1.0, "ratio");
  report.set("failed_frac", 0.0, "ratio");

  double replans = 0.0;
  double events = 0.0;
  std::vector<double> policy_seconds(kPolicyCount, 0.0);
  std::vector<double> policy_replans(kPolicyCount, 0.0);
  for (std::size_t r = 0; r < half; ++r) {
    const auto policy = inputs.order[r].policy;
    const auto& record = traced.records[r];
    replans += static_cast<double>(record.replans);
    events += static_cast<double>(record.events);
    policy_seconds[policy] += record.seconds;
    policy_replans[policy] += static_cast<double>(record.replans);
  }
  const auto count = static_cast<double>(std::max<std::size_t>(half, 1));
  report.set("online.replans", replans / count, "count");
  report.set("online.events", events / count, "count");
  for (std::size_t p = 0; p < kPolicyCount; ++p) {
    report.set(std::string("online.us_per_replan.") + kPolicies[p].name,
               policy_seconds[p] / std::max(policy_replans[p], 1.0) * 1e6, "us");
  }
  report_self_time(tracer, report);
  dump_spans(tracer, args, report);
}

}  // namespace perfbench
