// E-ONLINE — empirical competitive ratios of the online replanning
// policies (src/online/) against the clairvoyant offline baseline.
//
// Full mode sweeps policy x trace-family x size: each (family, n, seed)
// trace is replayed under every policy and priced against the offline
// baseline (exact branch-and-bound optimum when affordable, the released
// ΣwC lower bound beyond — ratios against a lower bound are conservative
// upper bounds on the true competitive ratio; docs/BENCHMARKS.md has the
// methodology).  Results land in BENCH_online.json.
//
// --quick is the CI gate (exit non-zero on failure):
//   1. single-task all-at-t=0 trace: every policy is trivially optimal, so
//      every ratio must be <= 1 + 1e-9;
//   2. pinned n=8 all-at-t=0 trace: exact-replan must reproduce the offline
//      branch-and-bound optimum BIT-FOR-BIT (== on the doubles), and every
//      other policy must stay within the 2x ceiling of Theorem 4;
//   3. every replayed schedule must validate against its instance;
//   4. pinned staggered traces (one per trace family): every policy's
//      replan and event counts must equal kCounterPins exactly — a replay
//      is deterministic, so any drift is a behaviour change to re-pin on
//      purpose.  The same replays record us_per_replan per policy (wall
//      time, reported, not gated).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "malsched/online/baseline.hpp"
#include "malsched/online/clock.hpp"
#include "malsched/online/replan.hpp"
#include "malsched/online/trace.hpp"
#include "malsched/support/stats.hpp"
#include "malsched/support/table.hpp"

using namespace malsched;

namespace {

constexpr std::uint64_t kPinnedSeed = 42;

online::ArrivalTrace pinned_trace(online::TraceFamily family, std::size_t n,
                                  std::uint64_t seed) {
  online::TraceConfig config;
  config.family = family;
  config.num_tasks = n;
  config.processors = 4.0;
  support::Rng rng(seed);
  return online::generate_trace(config, rng);
}

/// Size of the pinned staggered traces of gate 4.
constexpr std::size_t kStaggeredTasks = 20;

/// Exact work counters of gate 4: pinned_trace(family, kStaggeredTasks,
/// kPinnedSeed) replayed under each policy.  Deterministic on any host; a
/// change that makes a policy replan more or less often must re-pin here.
struct CounterPin {
  const char* family;
  const char* policy;
  std::size_t replans;
  std::size_t events;
};
constexpr CounterPin kCounterPins[] = {
    {"poisson-bursts", "greedy-append", 16, 40},
    {"poisson-bursts", "wsew-replan", 32, 40},
    {"poisson-bursts", "wdeq-replan", 32, 40},
    {"poisson-bursts", "exact-replan", 16, 40},
    {"diurnal", "greedy-append", 20, 40},
    {"diurnal", "wsew-replan", 35, 40},
    {"diurnal", "wdeq-replan", 35, 40},
    {"diurnal", "exact-replan", 20, 40},
    {"adversarial-spike", "greedy-append", 6, 40},
    {"adversarial-spike", "wsew-replan", 24, 40},
    {"adversarial-spike", "wdeq-replan", 24, 40},
    {"adversarial-spike", "exact-replan", 6, 40},
};

/// All arrivals at t = 0 with the §V-uniform marginals: the degenerate trace
/// on which online collapses to the offline batch problem.
online::ArrivalTrace t0_trace(std::size_t n, std::uint64_t seed) {
  support::Rng rng(seed);
  const double P = 4.0;
  std::vector<online::Arrival> arrivals;
  for (std::size_t i = 0; i < n; ++i) {
    core::Task t;
    t.volume = rng.uniform_pos(1.0);
    t.width = rng.uniform_pos(P);
    t.weight = rng.uniform_pos(1.0);
    arrivals.push_back({0.0, t});
  }
  return online::ArrivalTrace(P, std::move(arrivals));
}

void run_sweep(const bench::BenchConfig& config, bench::BenchJson& json) {
  std::printf("competitive ratios (vs offline baseline; '<=' rows are "
              "against a lower bound):\n");
  support::TextTable table({{"family", support::Align::Left},
                            {"n", support::Align::Right},
                            {"policy", support::Align::Left},
                            {"traces", support::Align::Right},
                            {"ratio mean", support::Align::Right},
                            {"ratio max", support::Align::Right},
                            {"replans", support::Align::Right},
                            {"baseline", support::Align::Left}});
  for (const online::TraceFamily family : online::all_trace_families()) {
    for (const std::size_t n : {std::size_t{10}, std::size_t{30}}) {
      const std::size_t traces =
          bench::scaled(n <= 10 ? 5 : 3, config.scale);
      // One sample set per policy, aggregated over the per-seed traces.
      std::vector<std::string> names;
      std::vector<support::Sample> ratios;
      std::vector<support::Sample> replans;
      bool exact_baseline = true;
      for (std::size_t rep = 0; rep < traces; ++rep) {
        const auto trace =
            pinned_trace(family, n, config.seed + 977 * rep + n);
        const auto baseline = online::offline_baseline(trace);
        exact_baseline = exact_baseline && baseline.exact;
        auto policies = online::all_replan_policies();
        if (names.empty()) {
          for (const auto& policy : policies) {
            names.push_back(policy->name());
          }
          ratios.resize(policies.size());
          replans.resize(policies.size());
        }
        for (std::size_t p = 0; p < policies.size(); ++p) {
          const auto run = online::replay(trace, *policies[p]);
          ratios[p].add(run.weighted_completion / baseline.objective);
          replans[p].add(static_cast<double>(run.replans));
        }
      }
      for (std::size_t p = 0; p < names.size(); ++p) {
        table.add_row({online::trace_family_name(family),
                       support::fmt_int(static_cast<long long>(n)), names[p],
                       support::fmt_int(static_cast<long long>(traces)),
                       support::fmt_ratio(ratios[p].mean(), 4),
                       support::fmt_ratio(ratios[p].max(), 4),
                       support::fmt_double(replans[p].mean()),
                       exact_baseline ? "exact" : "lower bound"});
        const std::string scenario = std::string(
            online::trace_family_name(family)) + "_n" + std::to_string(n) +
            "_" + names[p];
        json.add(scenario, "ratio_mean", ratios[p].mean());
        json.add(scenario, "ratio_max", ratios[p].max());
        json.add(scenario, "replans_mean", replans[p].mean());
        json.add(scenario, "baseline_exact", exact_baseline ? 1.0 : 0.0);
      }
    }
  }
  std::printf("%s\n", table.to_string().c_str());
}

/// The CI gate (see file comment).  Returns the process exit status.
int run_gate(bench::BenchJson& json) {
  int failures = 0;
  const auto check = [&](bool ok, const char* what) {
    std::printf("  %-52s %s\n", what, ok ? "PASS" : "FAIL");
    if (!ok) {
      ++failures;
    }
  };

  // 1. Single task at t = 0: every work-conserving policy runs it at
  // min(δ, P) from 0, so every ratio is exactly 1.
  {
    const auto trace = t0_trace(1, kPinnedSeed);
    const auto baseline = online::offline_baseline(trace);
    std::printf("gate 1: single-task t=0 trace (every policy optimal)\n");
    for (auto& policy : online::all_replan_policies()) {
      const auto run = online::replay(trace, *policy);
      const double ratio = run.weighted_completion / baseline.objective;
      json.add("gate_single_t0", policy->name() + "_ratio", ratio);
      check(ratio <= 1.0 + 1e-9,
            (policy->name() + " ratio <= 1 + 1e-9").c_str());
    }
  }

  // 2. Pinned n=8 t=0 trace: exact-replan reproduces the offline optimum
  // bit-for-bit; the others stay under the Theorem-4 2x ceiling.
  {
    const auto trace = t0_trace(8, kPinnedSeed);
    const auto baseline = online::offline_baseline(trace);
    const auto instance = trace.to_instance();
    std::printf("gate 2: pinned n=8 t=0 trace (baseline %s = %.17g)\n",
                baseline.method.c_str(), baseline.objective);
    check(baseline.exact, "baseline is the exact optimum");
    for (auto& policy : online::all_replan_policies()) {
      const auto run = online::replay(trace, *policy);
      const double ratio = run.weighted_completion / baseline.objective;
      json.add("gate_pinned_t0_n8", policy->name() + "_ratio", ratio);
      if (policy->name() == "exact-replan") {
        check(run.weighted_completion == baseline.objective,
              "exact-replan == offline optimum (bit-for-bit)");
      } else {
        check(ratio <= 2.0 + 1e-6,
              (policy->name() + " ratio <= 2 (Theorem 4 ceiling)").c_str());
      }
      check(static_cast<bool>(run.schedule.validate(instance)),
            (policy->name() + " replayed schedule validates").c_str());
    }
  }

  // 4. Pinned staggered traces: replan and event counts never drift.
  {
    std::printf("gate 4: pinned staggered n=%zu traces (counter pins)\n",
                kStaggeredTasks);
    std::vector<std::string> names;
    std::vector<double> seconds;
    std::vector<double> replans;
    for (const online::TraceFamily family : online::all_trace_families()) {
      const std::string family_name = online::trace_family_name(family);
      const auto trace = pinned_trace(family, kStaggeredTasks, kPinnedSeed);
      const auto instance = trace.to_instance();
      auto policies = online::all_replan_policies();
      names.resize(policies.size());
      seconds.resize(policies.size(), 0.0);
      replans.resize(policies.size(), 0.0);
      for (std::size_t p = 0; p < policies.size(); ++p) {
        const std::string name = policies[p]->name();
        const auto start = std::chrono::steady_clock::now();
        const auto run = online::replay(trace, *policies[p]);
        const std::chrono::duration<double> took =
            std::chrono::steady_clock::now() - start;
        names[p] = name;
        seconds[p] += took.count();
        replans[p] += static_cast<double>(run.replans);
        const std::string scenario = "pinned_staggered_" + family_name;
        json.add(scenario, name + "_replans", static_cast<double>(run.replans));
        json.add(scenario, name + "_events", static_cast<double>(run.events));
        check(static_cast<bool>(run.schedule.validate(instance)),
              (family_name + " " + name + " validates").c_str());
        const CounterPin* pin = nullptr;
        for (const CounterPin& candidate : kCounterPins) {
          if (family_name == candidate.family && name == candidate.policy) {
            pin = &candidate;
          }
        }
        const bool pinned = pin != nullptr && run.replans == pin->replans &&
                            run.events == pin->events;
        if (!pinned) {
          std::printf("    %s %s: replans %zu, events %zu; pinned %zu, %zu\n",
                      family_name.c_str(), name.c_str(), run.replans,
                      run.events, pin == nullptr ? 0 : pin->replans,
                      pin == nullptr ? 0 : pin->events);
        }
        check(pinned,
              (family_name + " " + name + " replans/events == pin").c_str());
      }
    }
    for (std::size_t p = 0; p < names.size(); ++p) {
      const double us = seconds[p] / std::max(replans[p], 1.0) * 1e6;
      std::printf("  %-16s %8.1f us per replan\n", names[p].c_str(), us);
      json.add("us_per_replan", names[p], us);
    }
  }
  return failures == 0 ? 0 : 1;
}

void bm_replay(benchmark::State& state, const char* policy_name) {
  const auto trace =
      pinned_trace(online::TraceFamily::PoissonBursts, 20, kPinnedSeed);
  for (auto _ : state) {
    for (auto& policy : online::all_replan_policies()) {
      if (policy->name() == policy_name) {
        benchmark::DoNotOptimize(
            online::replay(trace, *policy).weighted_completion);
      }
    }
  }
}
BENCHMARK_CAPTURE(bm_replay, wsew, "wsew-replan")->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(bm_replay, exact, "exact-replan")->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  const auto config = bench::parse_config(argc, argv);
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    }
  }

  if (quick) {
    bench::print_banner("E-ONLINE (quick)", "t=0 collapse gate", config);
    bench::BenchJson json("online", config);
    const int status = run_gate(json);
    json.write();
    return status;
  }

  bench::print_banner("E-ONLINE",
                      "online replanning policies vs offline baseline",
                      config);
  bench::BenchJson json("online", config);
  run_sweep(config, json);
  const int status = run_gate(json);
  json.write();
  if (config.timing) {
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
  }
  return status;
}
