#include "malsched/online/clock.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>

#include "malsched/core/bnb.hpp"
#include "malsched/core/generators.hpp"
#include "malsched/core/release_dates.hpp"
#include "malsched/core/wdeq.hpp"
#include "malsched/online/baseline.hpp"
#include "malsched/online/replan.hpp"
#include "malsched/online/trace.hpp"
#include "malsched/support/rng.hpp"
#include "oracle/full_plan_policies.hpp"

namespace mo = malsched::online;
namespace mc = malsched::core;
namespace ms = malsched::support;

namespace {

/// All arrivals at t = 0: the degenerate trace on which online collapses to
/// the offline batch problem.
mo::ArrivalTrace t0_trace(std::size_t n, std::uint64_t seed,
                          double processors = 4.0) {
  ms::Rng rng(seed);
  std::vector<mo::Arrival> arrivals;
  for (std::size_t i = 0; i < n; ++i) {
    mc::Task t;
    t.volume = rng.uniform_pos(1.0);
    t.width = rng.uniform_pos(processors);
    t.weight = rng.uniform_pos(1.0);
    arrivals.push_back({0.0, t});
  }
  return mo::ArrivalTrace(processors, std::move(arrivals));
}

/// Staggered arrivals with mixed widths — the generic online workload the
/// invariant tests replay.
mo::ArrivalTrace staggered_trace() {
  std::vector<mo::Arrival> arrivals;
  arrivals.push_back({0.0, {2.0, 2.0, 1.0}});
  arrivals.push_back({0.0, {1.0, 4.0, 0.25}});
  arrivals.push_back({0.4, {1.5, 1.0, 2.0}});
  arrivals.push_back({0.9, {0.75, 3.0, 0.5}});
  arrivals.push_back({0.9, {2.5, 2.0, 1.5}});
  arrivals.push_back({2.0, {0.5, 4.0, 3.0}});
  return mo::ArrivalTrace(4.0, std::move(arrivals));
}

}  // namespace

// The CI-gated collapse: with every arrival at t = 0, exact-replan solves
// the whole instance once, the clock snaps completions onto the plan's step
// ends, and the replayed ΣwC reproduces the offline branch-and-bound optimum
// bit-for-bit (==, not near).
TEST(Replay, ExactReplanReproducesOfflineOptimumAtTimeZero) {
  for (const std::uint64_t seed : {1ull, 7ull, 42ull}) {
    const auto trace = t0_trace(6, seed);
    const auto baseline = mo::offline_baseline(trace);
    ASSERT_TRUE(baseline.exact);
    auto policy = mo::make_exact_replan_policy();
    const auto run = mo::replay(trace, *policy);
    EXPECT_EQ(run.weighted_completion, baseline.objective) << "seed " << seed;
  }
}

// wdeq-replan on a t = 0 trace is batch WDEQ: re-running the equipartition
// on the remaining subinstance after each completion is exactly what the
// batch simulation does between events (WDEQ is memoryless).
TEST(Replay, WdeqReplanMatchesBatchWdeqAtTimeZero) {
  const auto trace = t0_trace(7, 11);
  const auto instance = trace.to_instance();
  const auto batch = mc::run_wdeq(instance);
  auto policy = mo::make_wdeq_replan_policy();
  const auto run = mo::replay(trace, *policy);
  const auto batch_completions = batch.schedule.completions();
  ASSERT_EQ(run.completions.size(), batch_completions.size());
  for (std::size_t i = 0; i < batch_completions.size(); ++i) {
    EXPECT_NEAR(run.completions[i], batch_completions[i], 1e-9) << "task " << i;
  }
  EXPECT_NEAR(run.weighted_completion,
              batch.schedule.weighted_completion(instance), 1e-9);
}

// Every policy's executed schedule is a feasible schedule of the batch
// instance, and the result fields are self-consistent.
TEST(Replay, ExecutedScheduleValidatesForEveryPolicy) {
  const auto trace = staggered_trace();
  const auto instance = trace.to_instance();
  for (auto& policy : mo::all_replan_policies()) {
    const auto run = mo::replay(trace, *policy);
    const auto validation = run.schedule.validate(instance);
    EXPECT_TRUE(static_cast<bool>(validation))
        << policy->name() << ": " << validation.message;
    // Completions at or after arrival, makespan = last completion, ΣwC
    // re-derivable from the per-task completions.
    double sum_wc = 0.0;
    double last = 0.0;
    for (std::size_t i = 0; i < trace.size(); ++i) {
      EXPECT_GE(run.completions[i], trace.arrival(i).time) << policy->name();
      sum_wc += trace.arrival(i).task.weight * run.completions[i];
      last = std::max(last, run.completions[i]);
    }
    EXPECT_DOUBLE_EQ(run.weighted_completion, sum_wc) << policy->name();
    EXPECT_DOUBLE_EQ(run.makespan, last) << policy->name();
    EXPECT_GE(run.events, trace.size());  // one completion event per task
    EXPECT_GE(run.replans, 1u);
  }
}

// The online ground rule: no work before arrival.  Steps are cut at arrival
// events, so any step beginning before task i's release must give it rate 0.
TEST(Replay, NoWorkBeforeArrival) {
  const auto trace = staggered_trace();
  const auto release = trace.release_dates();
  for (auto& policy : mo::all_replan_policies()) {
    const auto run = mo::replay(trace, *policy);
    for (const auto& step : run.schedule.steps()) {
      for (std::size_t i = 0; i < trace.size(); ++i) {
        if (step.begin < release[i] - 1e-12) {
          EXPECT_EQ(step.rates[i], 0.0)
              << policy->name() << ": task " << i << " ran in ["
              << step.begin << ", " << step.end << ") before release "
              << release[i];
        }
      }
    }
  }
}

// greedy-append never preempts: allocations promised to earlier arrivals
// are invariant under later arrivals, so replaying a prefix of the trace
// leaves the prefix tasks' completion times unchanged.
TEST(Replay, GreedyAppendCommitmentsSurviveLaterArrivals) {
  const auto full = staggered_trace();
  // Prefix = the three tasks arriving at {0, 0, 0.4}; cut before the 0.9
  // pair so the later arrivals are the only difference.
  std::vector<mo::Arrival> head(full.arrivals().begin(),
                                full.arrivals().begin() + 3);
  const mo::ArrivalTrace prefix(full.processors(), std::move(head));

  auto policy_prefix = mo::make_greedy_append_policy();
  auto policy_full = mo::make_greedy_append_policy();
  const auto run_prefix = mo::replay(prefix, *policy_prefix);
  const auto run_full = mo::replay(full, *policy_full);
  for (std::size_t i = 0; i < prefix.size(); ++i) {
    EXPECT_NEAR(run_full.completions[i], run_prefix.completions[i], 1e-9)
        << "task " << i << " was preempted by a later arrival";
  }
}

// Zero-volume tasks complete the instant they arrive — including arrivals
// after other work has started (the core/release_dates edge case).
TEST(Replay, ZeroVolumeTaskCompletesAtArrival) {
  std::vector<mo::Arrival> arrivals;
  arrivals.push_back({0.0, {2.0, 2.0, 1.0}});
  arrivals.push_back({0.7, {0.0, 1.0, 5.0}});  // zero volume, mid-flight
  const mo::ArrivalTrace trace(4.0, std::move(arrivals));
  for (auto& policy : mo::all_replan_policies()) {
    const auto run = mo::replay(trace, *policy);
    EXPECT_EQ(run.completions[1], 0.7) << policy->name();
    const auto validation = run.schedule.validate(trace.to_instance());
    EXPECT_TRUE(static_cast<bool>(validation))
        << policy->name() << ": " << validation.message;
  }
}

// An arrival forces a re-share.  Task 0 runs alone at width 2 until task 1
// arrives at t = 1; WDEQ then splits 1:1 (equal weights, wide tasks).
// t in [0, 1]: T0 at rate 2 -> 2 done, 1 left.  t >= 1: each at rate 1, so
// T1 (V = 1) and T0's last unit both finish at t = 2.
TEST(Replay, ArrivalTriggersReshare) {
  std::vector<mo::Arrival> arrivals;
  arrivals.push_back({0.0, {3.0, 2.0, 1.0}});
  arrivals.push_back({1.0, {1.0, 2.0, 1.0}});
  const mo::ArrivalTrace trace(2.0, std::move(arrivals));
  auto policy = mo::make_wdeq_replan_policy();
  const auto run = mo::replay(trace, *policy);
  EXPECT_NEAR(run.completions[0], 2.0, 1e-9);
  EXPECT_NEAR(run.completions[1], 2.0, 1e-9);
}

// The replayed makespan is at least the flow-certified optimum with the same
// release dates (core/release_dates): online cannot beat clairvoyance.
TEST(Replay, CompletionsNeverBeatTheClairvoyantWindowOptimum) {
  ms::Rng rng(613);
  for (int rep = 0; rep < 15; ++rep) {
    mc::GeneratorConfig gen;
    gen.family = mc::Family::Uniform;
    gen.num_tasks = 5;
    gen.processors = 2.0;
    const auto inst = mc::generate(gen, rng);
    std::vector<mo::Arrival> arrivals;
    for (std::size_t i = 0; i < inst.size(); ++i) {
      arrivals.push_back({rng.uniform(0.0, 1.0), inst.task(i)});
    }
    std::stable_sort(arrivals.begin(), arrivals.end(),
                     [](const mo::Arrival& a, const mo::Arrival& b) {
                       return a.time < b.time;
                     });
    const mo::ArrivalTrace trace(inst.processors(), std::move(arrivals));
    auto policy = mo::make_wdeq_replan_policy();
    const auto run = mo::replay(trace, *policy);
    const auto optimal = mc::released_optimal_makespan(trace.to_instance(),
                                                       trace.release_dates());
    EXPECT_GE(run.makespan, optimal.makespan - 1e-6) << "rep " << rep;
  }
}

// An idle gap (all live work done, next arrival later) is bridged with
// explicit zero-rate steps so the executed schedule stays contiguous from 0.
TEST(Replay, IdleGapsProduceContiguousSchedule) {
  std::vector<mo::Arrival> arrivals;
  arrivals.push_back({0.0, {1.0, 4.0, 1.0}});  // done by t = 0.25
  arrivals.push_back({1.0, {1.0, 4.0, 1.0}});  // arrives after an idle gap
  const mo::ArrivalTrace trace(4.0, std::move(arrivals));
  auto policy = mo::make_wsew_replan_policy();
  const auto run = mo::replay(trace, *policy);
  EXPECT_DOUBLE_EQ(run.completions[0], 0.25);
  EXPECT_DOUBLE_EQ(run.completions[1], 1.25);
  double cursor = 0.0;
  for (const auto& step : run.schedule.steps()) {
    EXPECT_DOUBLE_EQ(step.begin, cursor);
    cursor = step.end;
  }
  EXPECT_TRUE(static_cast<bool>(run.schedule.validate(trace.to_instance())));
}

// A fired replay-level CancelToken bounds per-replan solve effort but never
// aborts the replay: exact-replan degrades to a feasible (incumbent/WSEW)
// plan and the run still completes every task.
TEST(Replay, FiredCancelTokenStillYieldsFeasibleRun) {
  const auto trace = t0_trace(8, 3);
  mc::CancelSource source;
  source.request_cancel();
  mo::ReplayOptions options;
  options.cancel = source.token();
  auto policy = mo::make_exact_replan_policy();
  const auto run = mo::replay(trace, *policy, options);
  EXPECT_TRUE(static_cast<bool>(run.schedule.validate(trace.to_instance())));
  for (const double c : run.completions) {
    EXPECT_GT(c, 0.0);
  }
}

// Beyond max_exact_tasks the exact policy must fall back (WSEW) rather than
// attempt an exponential solve; the run stays feasible.
TEST(Replay, ExactReplanFallsBackBeyondSizeGuard) {
  const auto trace = t0_trace(6, 19);
  mo::ExactReplanOptions options;
  options.max_exact_tasks = 2;  // force the fallback path
  auto exact = mo::make_exact_replan_policy(options);
  auto wsew = mo::make_wsew_replan_policy();
  const auto run_exact = mo::replay(trace, *exact);
  const auto run_wsew = mo::replay(trace, *wsew);
  EXPECT_TRUE(static_cast<bool>(run_exact.schedule.validate(trace.to_instance())));
  // On a t=0 trace with a live set permanently above the guard, the exact
  // policy's plans are WSEW plans.
  EXPECT_NEAR(run_exact.weighted_completion, run_wsew.weighted_completion,
              1e-9);
  // exact-replan does not replan at completions, so one arrival batch is
  // one replan: the fallback plan must carry the whole suffix.
  EXPECT_EQ(run_exact.replans, 1u);
}

// Replays are deterministic: same trace, fresh policy, identical doubles.
TEST(Replay, DeterministicAcrossRuns) {
  const auto trace = staggered_trace();
  for (int which = 0; which < 2; ++which) {
    auto a = mo::all_replan_policies();
    auto b = mo::all_replan_policies();
    const auto run_a = mo::replay(trace, *a[which]);
    const auto run_b = mo::replay(trace, *b[which]);
    EXPECT_EQ(run_a.weighted_completion, run_b.weighted_completion);
    EXPECT_EQ(run_a.completions, run_b.completions);
  }
}

namespace {

/// Plans fixed 0.25-long steps of WDEQ shares, ignoring where completions
/// fall: a plan that may end before, at or after any completion.
class QuarterStepPolicy final : public mo::ReplanPolicy {
 public:
  [[nodiscard]] std::string name() const override { return "quarter-step"; }

  [[nodiscard]] mc::StepSchedule replan(const mo::ReplanContext& ctx) override {
    const std::size_t n = ctx.instance->size();
    std::vector<double> weights(n);
    std::vector<double> widths(n);
    for (std::size_t i = 0; i < n; ++i) {
      weights[i] = ctx.instance->task(i).weight;
      widths[i] = ctx.instance->effective_width(i);
    }
    mc::Step step;
    step.begin = ctx.now;
    step.end = ctx.now + 0.25;
    step.rates = mc::wdeq_shares(ctx.instance->processors(), weights, widths,
                                 ctx.live);
    std::vector<mc::Step> steps;
    steps.push_back(std::move(step));
    return mc::StepSchedule(n, std::move(steps));
  }
};

}  // namespace

// A plan may stop before the next completion: the clock replans when it
// runs out, within its iteration guard, and the executed schedule is still
// a feasible schedule of the whole trace.
TEST(Replay, ShortPlansReplanWhenTheyRunOut) {
  const auto trace = staggered_trace();
  QuarterStepPolicy policy;
  const auto run = mo::replay(trace, policy);
  const auto validation = run.schedule.validate(trace.to_instance());
  EXPECT_TRUE(static_cast<bool>(validation)) << validation.message;
  // Every step the clock executed ends at a quarter, an arrival or a
  // completion; the plans that ran out add replans beyond the events.
  EXPECT_GT(run.replans, run.events);
  for (std::size_t i = 0; i < trace.size(); ++i) {
    EXPECT_GT(run.completions[i], trace.arrival(i).time);
  }
}

namespace {

void expect_same_replay(const mo::ReplayResult& got,
                        const mo::ReplayResult& want,
                        const std::string& where) {
  EXPECT_EQ(got.weighted_completion, want.weighted_completion) << where;
  EXPECT_EQ(got.completions, want.completions) << where;
  EXPECT_EQ(got.replans, want.replans) << where;
  EXPECT_EQ(got.events, want.events) << where;
}

}  // namespace

// wsew-replan and wdeq-replan plan only up to the next completion, and
// exact-replan's fallback beyond its size guard plans the full WSEW normal
// form.  All three replay bit for bit like the full-suffix planners of
// tests/oracle/full_plan_policies.hpp: objective, completions, replans and
// events.
TEST(Replay, PrefixPlansMatchFullPlanOracle) {
  for (const mo::TraceFamily family : mo::all_trace_families()) {
    for (const std::size_t n : {8u, 30u, 60u, 120u}) {
      for (const double processors : {4.0, 8.0}) {
        for (const std::uint64_t seed : {1ull, 7ull, 2026ull}) {
          mo::TraceConfig config;
          config.family = family;
          config.num_tasks = n;
          config.processors = processors;
          ms::Rng rng(seed * 1000 + n);
          const auto trace = mo::generate_trace(config, rng);
          const std::string where =
              std::string(mo::trace_family_name(family)) +
              " n=" + std::to_string(n) + " P=" + std::to_string(processors) +
              " seed=" + std::to_string(seed);

          auto wsew = mo::make_wsew_replan_policy();
          malsched::testing::FullPlanWsewPolicy wsew_oracle;
          expect_same_replay(mo::replay(trace, *wsew),
                             mo::replay(trace, wsew_oracle), where + " wsew");

          auto wdeq = mo::make_wdeq_replan_policy();
          malsched::testing::FullPlanWdeqPolicy wdeq_oracle;
          expect_same_replay(mo::replay(trace, *wdeq),
                             mo::replay(trace, wdeq_oracle), where + " wdeq");

          mo::ExactReplanOptions options;
          options.max_exact_tasks = 0;  // always the WSEW fallback
          auto exact = mo::make_exact_replan_policy(options);
          malsched::testing::FullPlanWsewPolicy fallback_oracle(
              /*replan_on_completion=*/false);
          expect_same_replay(mo::replay(trace, *exact),
                             mo::replay(trace, fallback_oracle),
                             where + " exact fallback");
        }
      }
    }
  }
}
