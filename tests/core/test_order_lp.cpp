#include "malsched/core/order_lp.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "malsched/core/generators.hpp"
#include "malsched/core/greedy.hpp"
#include "malsched/core/orderings.hpp"
#include "malsched/core/water_filling.hpp"

namespace mc = malsched::core;
namespace ms = malsched::support;
using malsched::numeric::Rational;

TEST(OrderLp, SingleTaskClosedForm) {
  const mc::Instance inst(4.0, {{6.0, 3.0, 2.0}});
  const auto result = mc::solve_order_lp(inst, mc::identity_order(1));
  ASSERT_TRUE(result.optimal());
  // C = V / min(δ, P) = 2, objective = w*C = 4.
  EXPECT_NEAR(result.objective, 4.0, 1e-9);
  EXPECT_TRUE(result.schedule.validate(inst).valid);
}

TEST(OrderLp, TwoTaskClosedForm) {
  // P=1, unit widths... δ=1 each, V=1 each, w 2 and 1, order (0,1):
  // C0 = 1, C1 = 2, objective = 2*1 + 1*2 = 4.  The LP may also interleave,
  // but with equal δ=P=1 sequential is optimal for the fixed order.
  const mc::Instance inst(1.0, {{1.0, 1.0, 2.0}, {1.0, 1.0, 1.0}});
  const auto result = mc::solve_order_lp(inst, mc::identity_order(2));
  ASSERT_TRUE(result.optimal());
  EXPECT_NEAR(result.objective, 4.0, 1e-9);
}

TEST(OrderLp, OrderMattersForWeights) {
  const mc::Instance inst(1.0, {{1.0, 1.0, 1.0}, {1.0, 1.0, 10.0}});
  const std::vector<std::size_t> heavy_first{1, 0};
  const std::vector<std::size_t> light_first{0, 1};
  const double heavy = mc::order_lp_objective(inst, heavy_first);
  const double light = mc::order_lp_objective(inst, light_first);
  // Heavy task first: 10*1 + 1*2 = 12; light first: 1*1 + 10*2 = 21.
  EXPECT_NEAR(heavy, 12.0, 1e-9);
  EXPECT_NEAR(light, 21.0, 1e-9);
}

TEST(OrderLp, ScheduleIsValidAndMatchesObjective) {
  ms::Rng rng(73);
  for (int rep = 0; rep < 30; ++rep) {
    mc::GeneratorConfig config;
    config.family = mc::Family::Uniform;
    config.num_tasks = 5;
    config.processors = 2.0;
    const auto inst = mc::generate(config, rng);
    const auto order = rng.permutation(inst.size());
    const auto result = mc::solve_order_lp(inst, order);
    ASSERT_TRUE(result.optimal()) << "rep " << rep;
    const auto check = result.schedule.validate(inst);
    EXPECT_TRUE(check.valid) << "rep " << rep << ": " << check.message;
    EXPECT_NEAR(result.schedule.weighted_completion(inst), result.objective,
                1e-6)
        << "rep " << rep;
  }
}

TEST(OrderLp, LpBeatsGreedyWithSameOrder) {
  // The LP optimizes over all schedules with the given completion order;
  // greedy with that order produces one such schedule (up to completion
  // order mismatch, use the greedy completion order).
  ms::Rng rng(79);
  for (int rep = 0; rep < 20; ++rep) {
    mc::GeneratorConfig config;
    config.family = mc::Family::Uniform;
    config.num_tasks = 4;
    config.processors = 2.0;
    const auto inst = mc::generate(config, rng);
    const auto greedy = mc::greedy_schedule(inst, mc::smith_order(inst));
    const auto columns = greedy.to_columns(inst);
    const double lp = mc::order_lp_objective(inst, columns.order());
    EXPECT_LE(lp, greedy.weighted_completion(inst) + 1e-7) << "rep " << rep;
  }
}

TEST(OrderLp, WfReconstructsLpCompletions) {
  // Theorem 8 consistency: completion times from an LP-optimal schedule are
  // WF-feasible.
  ms::Rng rng(83);
  for (int rep = 0; rep < 20; ++rep) {
    mc::GeneratorConfig config;
    config.family = mc::Family::Uniform;
    config.num_tasks = 4;
    config.processors = 2.0;
    const auto inst = mc::generate(config, rng);
    const auto result = mc::solve_order_lp(inst, rng.permutation(4));
    ASSERT_TRUE(result.optimal());
    const auto completions = result.schedule.completions();
    EXPECT_TRUE(mc::water_fill(inst, completions).feasible) << "rep " << rep;
  }
}

TEST(OrderLp, ExactMatchesDouble) {
  ms::Rng rng(89);
  for (int rep = 0; rep < 5; ++rep) {
    mc::GeneratorConfig config;
    config.family = mc::Family::Uniform;
    config.num_tasks = 3;
    config.processors = 2.0;
    const auto inst = mc::generate(config, rng);
    const auto order = mc::identity_order(3);
    const auto exact = mc::solve_order_lp_exact(inst, order);
    const double approx = mc::order_lp_objective(inst, order);
    ASSERT_EQ(exact.status, malsched::lp::SolveStatus::Optimal);
    EXPECT_NEAR(exact.objective.to_double(), approx, 1e-7) << "rep " << rep;
  }
}

TEST(OrderLp, ExactValueIsRationalClosedForm) {
  // P=1, two tasks δ=1, V=1, weights 1: any order gives C = (1, 2),
  // Σ C = 3 exactly.
  const mc::Instance inst(1.0, {{1.0, 1.0, 1.0}, {1.0, 1.0, 1.0}});
  const auto exact = mc::solve_order_lp_exact(inst, mc::identity_order(2));
  ASSERT_EQ(exact.status, malsched::lp::SolveStatus::Optimal);
  EXPECT_EQ(exact.objective, Rational(3));
}

TEST(OrderLp, BadOrderStillSolvable) {
  // Forcing a "wrong" completion order (big task first) must still be
  // feasible — just more expensive.
  const mc::Instance inst(1.0, {{10.0, 1.0, 1.0}, {0.1, 1.0, 1.0}});
  const std::vector<std::size_t> big_first{0, 1};
  const std::vector<std::size_t> small_first{1, 0};
  const double big = mc::order_lp_objective(inst, big_first);
  const double small = mc::order_lp_objective(inst, small_first);
  EXPECT_LT(small, big);
  EXPECT_TRUE(std::isfinite(big));
}

namespace {

/// A §V-uniform n = 6 instance on which the double simplex used to report
/// an unbounded phase 1 (impossible in exact arithmetic: phase 1 is bounded
/// below by zero) and abort the process.  Six orders, all starting 3 1 5,
/// drifted that way; they now re-solve exactly.
mc::Instance phase_one_drift_instance() {
  return mc::Instance(
      4.0, {{0.29495988058839451, 0.064970499147340099, 0.43979770929325113},
            {0.81147344914987163, 2.2999617763278053, 0.98495673217739665},
            {0.55826596459460787, 2.4928775166648922, 0.40572810867029985},
            {0.6774928131071648, 1.1181808591097639, 0.086667391446238362},
            {0.50654756441476934, 1.1266375026753765, 0.23222049605941597},
            {0.28598255223963875, 0.58184856217955927, 0.22655855668407454}});
}

class PhaseOneDrift : public ::testing::TestWithParam<std::size_t> {};

}  // namespace

TEST_P(PhaseOneDrift, EveryOrderMatchesExactArithmetic) {
  // Every order of the instance (split by first task, so the exact
  // certification runs in parallel shards) must give a finite objective
  // within 1e-9 of the certified rational optimum, through both the
  // objective-only and the schedule-building solver.
  const auto inst = phase_one_drift_instance();
  std::vector<std::size_t> rest;
  for (std::size_t task = 0; task < inst.size(); ++task) {
    if (task != GetParam()) {
      rest.push_back(task);
    }
  }
  std::size_t orders = 0;
  do {
    std::vector<std::size_t> order{GetParam()};
    order.insert(order.end(), rest.begin(), rest.end());
    const double objective = mc::order_lp_objective(inst, order);
    const auto solved = mc::solve_order_lp(inst, order);
    const auto exact = mc::solve_order_lp_exact(inst, order);
    ASSERT_TRUE(exact.status == malsched::lp::SolveStatus::Optimal);
    const double certified = exact.objective.to_double();
    const double tolerance = 1e-9 * std::max(1.0, certified);
    ASSERT_TRUE(std::isfinite(objective));
    EXPECT_NEAR(objective, certified, tolerance)
        << order[0] << order[1] << order[2] << order[3] << order[4]
        << order[5];
    ASSERT_TRUE(solved.optimal());
    EXPECT_NEAR(solved.objective, certified, tolerance);
    ++orders;
  } while (std::next_permutation(rest.begin(), rest.end()));
  EXPECT_EQ(orders, 120u);
}

INSTANTIATE_TEST_SUITE_P(FirstTask, PhaseOneDrift,
                         ::testing::Range(std::size_t{0}, std::size_t{6}));
