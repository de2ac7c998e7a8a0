#include "malsched/core/release_dates.hpp"

#include <gtest/gtest.h>

#include "malsched/core/bnb.hpp"
#include "malsched/core/bounds.hpp"
#include "malsched/core/generators.hpp"
#include "malsched/core/makespan.hpp"
#include "malsched/core/water_filling.hpp"

namespace mc = malsched::core;
namespace ms = malsched::support;

namespace {

std::vector<double> zeros(std::size_t n) { return std::vector<double>(n, 0.0); }

}  // namespace

TEST(ReleaseDates, AgreesWithWaterFillWhenAllReleasedAtZero) {
  // With r = 0 the flow feasibility must coincide with WF feasibility.
  ms::Rng rng(401);
  int feasible = 0;
  for (int rep = 0; rep < 100; ++rep) {
    mc::GeneratorConfig gen;
    gen.family = mc::Family::Uniform;
    gen.num_tasks = 6;
    gen.processors = 2.0;
    const auto inst = mc::generate(gen, rng);
    std::vector<double> deadlines(inst.size());
    for (auto& d : deadlines) {
      d = rng.uniform(0.2, 2.5);
    }
    const bool via_flow =
        mc::released_feasible(inst, zeros(inst.size()), deadlines);
    const bool via_wf = mc::water_fill_feasible(inst, deadlines);
    EXPECT_EQ(via_flow, via_wf) << "rep " << rep;
    feasible += via_wf ? 1 : 0;
  }
  EXPECT_GT(feasible, 5);
  EXPECT_LT(feasible, 95);
}

TEST(ReleaseDates, MakespanMatchesNoReleaseFormula) {
  ms::Rng rng(409);
  for (int rep = 0; rep < 20; ++rep) {
    mc::GeneratorConfig gen;
    gen.family = mc::Family::Uniform;
    gen.num_tasks = 5;
    gen.processors = 2.0;
    const auto inst = mc::generate(gen, rng);
    const auto released =
        mc::released_optimal_makespan(inst, zeros(inst.size()));
    EXPECT_NEAR(released.makespan, mc::optimal_makespan(inst),
                1e-6 * std::max(1.0, released.makespan))
        << "rep " << rep;
  }
}

TEST(ReleaseDates, StaggeredReleasesDelayCompletion) {
  // Two full-width tasks; the second only appears at t = 2.
  const mc::Instance inst(2.0, {{2.0, 2.0, 1.0}, {2.0, 2.0, 1.0}});
  const std::vector<double> release{0.0, 2.0};
  const auto result = mc::released_optimal_makespan(inst, release);
  EXPECT_NEAR(result.makespan, 3.0, 1e-6);  // 2 + 2/2
}

TEST(ReleaseDates, HandComputedWindowCase) {
  // P=1, two unit tasks with windows [0,2] and [1,2]: total volume 2 in
  // [0,2] works only if the machine never idles: feasible exactly.
  const mc::Instance inst(1.0, {{1.0, 1.0, 1.0}, {1.0, 1.0, 1.0}});
  const std::vector<double> release{0.0, 1.0};
  const std::vector<double> full{2.0, 2.0};
  EXPECT_TRUE(mc::released_feasible(inst, release, full));
  // Shrink the horizon: infeasible.
  const std::vector<double> tight{1.9, 1.9};
  EXPECT_FALSE(mc::released_feasible(inst, release, tight));
  // The second task's window [1, 1.5] is too small for its width-1 volume.
  const std::vector<double> narrow{2.5, 1.5};
  EXPECT_FALSE(mc::released_feasible(inst, release, narrow));
}

TEST(ReleaseDates, ScheduleExtractionIsValidAndRespectsWindows) {
  ms::Rng rng(419);
  for (int rep = 0; rep < 30; ++rep) {
    mc::GeneratorConfig gen;
    gen.family = mc::Family::Uniform;
    gen.num_tasks = 6;
    gen.processors = 3.0;
    const auto inst = mc::generate(gen, rng);
    std::vector<double> release(inst.size());
    for (auto& r : release) {
      r = rng.uniform(0.0, 1.0);
    }
    const auto cmax = mc::released_optimal_makespan(inst, release);
    const std::vector<double> deadlines(inst.size(),
                                        cmax.makespan * (1.0 + 1e-7));
    const auto extracted = mc::released_schedule(inst, release, deadlines);
    ASSERT_TRUE(extracted.feasible) << "rep " << rep;
    const auto check = extracted.schedule.validate(inst, {1e-7, 1e-7});
    EXPECT_TRUE(check.valid) << "rep " << rep << ": " << check.message;
    // No task may run before its release date.
    for (const auto& step : extracted.schedule.steps()) {
      for (std::size_t i = 0; i < inst.size(); ++i) {
        if (step.rates[i] > 1e-9) {
          EXPECT_GE(step.begin, release[i] - 1e-6)
              << "rep " << rep << " task " << i;
        }
      }
    }
  }
}

TEST(ReleaseDates, LowerBoundIsAttainedOrBelow) {
  ms::Rng rng(421);
  for (int rep = 0; rep < 30; ++rep) {
    mc::GeneratorConfig gen;
    gen.family = mc::Family::Uniform;
    gen.num_tasks = 6;
    gen.processors = 2.0;
    const auto inst = mc::generate(gen, rng);
    std::vector<double> release(inst.size());
    for (auto& r : release) {
      r = rng.uniform(0.0, 1.5);
    }
    const double bound = mc::released_makespan_lower_bound(inst, release);
    const auto result = mc::released_optimal_makespan(inst, release);
    EXPECT_GE(result.makespan, bound - 1e-6) << "rep " << rep;
  }
}

TEST(ReleaseDates, LmaxWithReleasesZeroMatchesWfVersion) {
  ms::Rng rng(431);
  for (int rep = 0; rep < 15; ++rep) {
    mc::GeneratorConfig gen;
    gen.family = mc::Family::Uniform;
    gen.num_tasks = 5;
    gen.processors = 2.0;
    const auto inst = mc::generate(gen, rng);
    std::vector<double> due(inst.size());
    for (auto& d : due) {
      d = rng.uniform(0.0, 2.0);
    }
    const auto via_flow =
        mc::released_minimize_lmax(inst, zeros(inst.size()), due);
    const auto via_wf = mc::minimize_lmax(inst, due);
    EXPECT_NEAR(via_flow.lmax, via_wf.lmax,
                1e-5 * std::max(1.0, std::fabs(via_wf.lmax)))
        << "rep " << rep;
  }
}

TEST(ReleaseDates, LmaxRespectsReleaseDelays) {
  // One task released late: lateness grows by exactly the delay.
  const mc::Instance inst(1.0, {{1.0, 1.0, 1.0}});
  const std::vector<double> due{1.0};
  const std::vector<double> at_zero{0.0};
  const std::vector<double> at_half{0.5};
  const auto on_time = mc::released_minimize_lmax(inst, at_zero, due);
  const auto delayed = mc::released_minimize_lmax(inst, at_half, due);
  EXPECT_NEAR(on_time.lmax, 0.0, 1e-6);
  EXPECT_NEAR(delayed.lmax, 0.5, 1e-6);
}

TEST(ReleaseDates, EmptyWindowDetected) {
  const mc::Instance inst(1.0, {{1.0, 1.0, 1.0}});
  const std::vector<double> release{2.0};
  const std::vector<double> deadline{1.0};
  EXPECT_FALSE(mc::released_feasible(inst, release, deadline));
}

TEST(FrozenPrefix, ZeroVolumeTaskArrivingAfterWorkStarted) {
  // A zero-volume task with a late release contributes exactly w · r to the
  // ΣwC lower bound: it completes at arrival under the online semantics.
  const mc::Instance inst(2.0, {{1.0, 1.0, 1.0}, {0.0, 1.0, 2.0}});
  const std::vector<double> release{0.0, 3.0};
  const double bound =
      mc::released_weighted_completion_lower_bound(inst, release);
  // release term = 1·(0 + 1/1) + 2·3 = 7, dominating A(I) and H(I).
  EXPECT_DOUBLE_EQ(bound, 7.0);
}

TEST(ReleaseDates, WeightedCompletionBoundDegeneratesAtZeroRelease) {
  // With every r_i = 0 the release term is H(I) summed in the same index
  // order, so the bound equals max(A(I), H(I)) bit-for-bit — the batch
  // solvers' certification bound.
  ms::Rng rng(443);
  for (int rep = 0; rep < 25; ++rep) {
    mc::GeneratorConfig gen;
    gen.family = mc::Family::Uniform;
    gen.num_tasks = 7;
    gen.processors = 3.0;
    const auto inst = mc::generate(gen, rng);
    const double released = mc::released_weighted_completion_lower_bound(
        inst, zeros(inst.size()));
    const double batch =
        std::max(mc::squashed_area_bound(inst), mc::height_bound(inst));
    EXPECT_EQ(released, batch) << "rep " << rep;
  }
}

TEST(ReleaseDates, WeightedCompletionBoundBelowOptimumAtZeroRelease) {
  // Certification: with r = 0 the bound must sit below the exact optimum.
  ms::Rng rng(449);
  for (int rep = 0; rep < 10; ++rep) {
    mc::GeneratorConfig gen;
    gen.family = mc::Family::Uniform;
    gen.num_tasks = 6;
    gen.processors = 2.0;
    const auto inst = mc::generate(gen, rng);
    const double bound = mc::released_weighted_completion_lower_bound(
        inst, zeros(inst.size()));
    const auto exact = mc::branch_and_bound(inst);
    EXPECT_LE(bound, exact.objective * (1.0 + 1e-7)) << "rep " << rep;
  }
}

TEST(ReleaseDates, WeightedCompletionBoundBelowAnyFeasibleSchedule) {
  // Any release-respecting schedule prices at or above the bound — here the
  // makespan-optimal extraction, whose ΣwC is certainly suboptimal.
  ms::Rng rng(457);
  for (int rep = 0; rep < 20; ++rep) {
    mc::GeneratorConfig gen;
    gen.family = mc::Family::Uniform;
    gen.num_tasks = 6;
    gen.processors = 3.0;
    const auto inst = mc::generate(gen, rng);
    std::vector<double> release(inst.size());
    for (auto& r : release) {
      r = rng.uniform(0.0, 1.0);
    }
    const double bound =
        mc::released_weighted_completion_lower_bound(inst, release);
    const auto cmax = mc::released_optimal_makespan(inst, release);
    const auto extracted = mc::released_schedule(
        inst, release,
        std::vector<double>(inst.size(), cmax.makespan * (1.0 + 1e-7)));
    ASSERT_TRUE(extracted.feasible) << "rep " << rep;
    EXPECT_GE(extracted.schedule.weighted_completion(inst),
              bound * (1.0 - 1e-6))
        << "rep " << rep;
  }
}

TEST(ReleaseDates, BoundIncreasesWithReleaseDelays) {
  // Monotonicity: delaying releases can only push the bound up.
  const mc::Instance inst(2.0, {{1.0, 1.0, 1.0}, {2.0, 2.0, 0.5}});
  double prev = 0.0;
  for (const double shift : {0.0, 0.5, 1.0, 4.0}) {
    const std::vector<double> release(inst.size(), shift);
    const double bound =
        mc::released_weighted_completion_lower_bound(inst, release);
    EXPECT_GE(bound, prev);
    prev = bound;
  }
}
