#include "malsched/core/water_filling.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "malsched/core/generators.hpp"
#include "malsched/core/greedy.hpp"
#include "malsched/core/io.hpp"
#include "malsched/core/orderings.hpp"
#include "malsched/core/wdeq.hpp"

namespace mc = malsched::core;
namespace ms = malsched::support;

namespace {

/// The pour level by the textbook route: sort every slope-change event,
/// then sweep.  The reference for water_level, which merges instead.
double sorted_reference_level(const std::vector<double>& heights,
                              const std::vector<double>& lengths, double cap,
                              double volume, double ceiling) {
  const ms::Tolerance tol;
  if (volume <= tol.abs) {
    return 0.0;
  }
  double poured = 0.0;
  double slope = 0.0;
  std::vector<std::pair<double, double>> events;  // (level, slope change)
  for (std::size_t k = 0; k < heights.size(); ++k) {
    poured += lengths[k] * std::clamp(0.0 - heights[k], 0.0, cap);
    if (heights[k] <= 0.0 && 0.0 < heights[k] + cap) {
      slope += lengths[k];
    }
    if (heights[k] > 0.0) {
      events.emplace_back(heights[k], lengths[k]);
    }
    if (heights[k] + cap > 0.0) {
      events.emplace_back(heights[k] + cap, -lengths[k]);
    }
  }
  if (poured >= volume) {
    return 0.0;
  }
  std::sort(events.begin(), events.end());
  double lo = 0.0;
  double at_ceiling = poured;
  bool ceiling_passed = false;
  for (const auto& [h, delta] : events) {
    if (h > lo) {
      if (!ceiling_passed && ceiling <= h) {
        at_ceiling = poured + slope * (ceiling - lo);
        ceiling_passed = true;
      }
      const double next = poured + slope * (h - lo);
      if (next >= volume) {
        return lo + (volume - poured) / slope;
      }
      poured = next;
      lo = h;
    }
    slope += delta;
  }
  if (!ceiling_passed) {
    at_ceiling = poured;
  }
  if (at_ceiling >= volume - tol.slack(volume)) {
    return ceiling;
  }
  return std::numeric_limits<double>::infinity();
}

double poured_at(const std::vector<double>& heights,
                 const std::vector<double>& lengths, double cap, double level) {
  double poured = 0.0;
  for (std::size_t k = 0; k < heights.size(); ++k) {
    poured += lengths[k] * std::clamp(level - heights[k], 0.0, cap);
  }
  return poured;
}

/// Levels agree within 1e-12 relative.  Where the pour function is flat
/// (every column below saturated, none starting to fill) and the volume
/// sits exactly on it, every level across the flat stretch pours the same
/// volume, and rounding in the running sums picks one of them; there the
/// poured volumes must agree instead.
void expect_level_matches_reference(const std::vector<double>& heights,
                                    const std::vector<double>& lengths,
                                    double cap, double volume, double ceiling,
                                    const std::string& where) {
  const double got = mc::water_level(heights, lengths, cap, volume, ceiling);
  const double want =
      sorted_reference_level(heights, lengths, cap, volume, ceiling);
  if (std::isinf(want)) {
    EXPECT_TRUE(std::isinf(got)) << where << ": got " << got;
    return;
  }
  ASSERT_TRUE(std::isfinite(got)) << where << ": want " << want;
  if (std::fabs(got - want) <= 1e-12 * std::max(1.0, std::fabs(want))) {
    return;
  }
  const double flat_got = poured_at(heights, lengths, cap, got);
  const double flat_want = poured_at(heights, lengths, cap, want);
  EXPECT_NEAR(flat_got, flat_want, 1e-12 * std::max(1.0, flat_want))
      << where << ": got level " << got << ", want " << want;
  EXPECT_NEAR(flat_got, volume, 1e-9 * std::max(1.0, volume)) << where;
}

mc::Instance load_fixture(const std::string& name) {
  const std::string path = std::string(MALSCHED_DATA_DIR) + "/" + name;
  std::ifstream in(path);
  if (!in.good()) {
    throw std::runtime_error("missing fixture " + path);
  }
  std::string error;
  auto inst = mc::read_instance(in, &error);
  if (!inst.has_value()) {
    throw std::runtime_error("bad fixture " + path + ": " + error);
  }
  return *inst;
}

}  // namespace

TEST(WaterFill, SingleTaskExactFit) {
  const mc::Instance inst(2.0, {{2.0, 2.0, 1.0}});
  const std::vector<double> completions{1.0};
  const auto result = mc::water_fill(inst, completions);
  ASSERT_TRUE(result.feasible);
  EXPECT_TRUE(result.schedule.validate(inst).valid);
  EXPECT_DOUBLE_EQ(result.schedule.completion(0), 1.0);
  EXPECT_DOUBLE_EQ(result.schedule.allocation(0, 0), 2.0);
}

TEST(WaterFill, SingleTaskInfeasibleDeadline) {
  const mc::Instance inst(2.0, {{2.0, 2.0, 1.0}});
  const std::vector<double> completions{0.9};  // needs 1.0
  const auto result = mc::water_fill(inst, completions);
  EXPECT_FALSE(result.feasible);
  EXPECT_EQ(result.failed_position, 0u);
}

TEST(WaterFill, WidthCapMakesDeadlineInfeasible) {
  // V=2, δ=1: needs 2 time units even though P=4.
  const mc::Instance inst(4.0, {{2.0, 1.0, 1.0}});
  EXPECT_FALSE(mc::water_fill(inst, std::vector<double>{1.9}).feasible);
  EXPECT_TRUE(mc::water_fill(inst, std::vector<double>{2.0}).feasible);
}

TEST(WaterFill, TwoTasksSharingMachine) {
  const mc::Instance inst(2.0, {{2.0, 2.0, 1.0}, {1.0, 1.0, 1.0}});
  // T1 by time 1, T0 by time 1.5 (the canonical example).
  const std::vector<double> completions{1.5, 1.0};
  const auto result = mc::water_fill(inst, completions);
  ASSERT_TRUE(result.feasible);
  const auto check = result.schedule.validate(inst);
  EXPECT_TRUE(check.valid) << check.message;
  EXPECT_DOUBLE_EQ(result.schedule.completion(0), 1.5);
  EXPECT_DOUBLE_EQ(result.schedule.completion(1), 1.0);
}

TEST(WaterFill, ProfileHeightsNonIncreasing) {
  // Lemma 3: after each allocation, the occupied height per column is
  // non-increasing over time.  Verify on a random feasible instance by
  // summing allocations column-wise.
  ms::Rng rng(11);
  for (int rep = 0; rep < 30; ++rep) {
    mc::GeneratorConfig config;
    config.family = mc::Family::Uniform;
    config.num_tasks = 6;
    config.processors = 2.0;
    const auto inst = mc::generate(config, rng);
    // Use greedy completions (always feasible).
    const auto greedy = mc::greedy_schedule(inst, mc::smith_order(inst));
    const auto completions = greedy.completions();
    const auto result = mc::water_fill(inst, completions);
    ASSERT_TRUE(result.feasible);
    const auto& sched = result.schedule;
    for (std::size_t j = 0; j + 1 < sched.num_columns(); ++j) {
      if (sched.column_length(j) <= 1e-12 ||
          sched.column_length(j + 1) <= 1e-12) {
        continue;
      }
      double height_j = 0.0;
      double height_next = 0.0;
      for (std::size_t i = 0; i < inst.size(); ++i) {
        height_j += sched.allocation(i, j);
        height_next += sched.allocation(i, j + 1);
      }
      EXPECT_GE(height_j, height_next - 1e-6)
          << "rep " << rep << " column " << j;
    }
  }
}

TEST(WaterFill, NormalFormPreservesCompletionTimes) {
  // Theorem 8 applied to schedules produced by WDEQ: re-running WF on the
  // completion times must succeed and reproduce them.
  ms::Rng rng(13);
  for (int rep = 0; rep < 30; ++rep) {
    mc::GeneratorConfig config;
    config.family = mc::Family::Uniform;
    config.num_tasks = 5;
    config.processors = 3.0;
    const auto inst = mc::generate(config, rng);
    const auto run = mc::run_wdeq(inst);
    const auto completions = run.schedule.completions();
    const auto result = mc::water_fill(inst, completions);
    ASSERT_TRUE(result.feasible) << "rep " << rep;
    const auto check = result.schedule.validate(inst);
    EXPECT_TRUE(check.valid) << check.message;
    for (std::size_t i = 0; i < inst.size(); ++i) {
      EXPECT_NEAR(result.schedule.completion(i), completions[i], 1e-9);
    }
  }
}

TEST(WaterFill, GreedyCompletionsAreWfFeasible) {
  // Greedy schedules are valid, so WF must accept their completion times
  // (this is the Theorem 8 "if one exists" direction).
  ms::Rng rng(17);
  for (int rep = 0; rep < 30; ++rep) {
    mc::GeneratorConfig config;
    config.family = mc::Family::BandwidthLike;
    config.num_tasks = 7;
    config.processors = 4.0;
    const auto inst = mc::generate(config, rng);
    const auto sched = mc::greedy_schedule(inst, mc::volume_order(inst));
    ASSERT_TRUE(sched.validate(inst).valid);
    EXPECT_TRUE(mc::water_fill(inst, sched.completions()).feasible)
        << "rep " << rep;
  }
}

TEST(WaterFill, ShrunkCompletionsBecomeInfeasible) {
  // Shrinking the last completion of a tight schedule below the area bound
  // must be rejected.
  const mc::Instance inst(1.0, {{0.5, 1.0, 1.0}, {0.5, 1.0, 1.0}});
  // Total volume 1.0 on one processor: C = (0.5, 1.0) is tight.
  EXPECT_TRUE(
      mc::water_fill(inst, std::vector<double>{0.5, 1.0}).feasible);
  EXPECT_FALSE(
      mc::water_fill(inst, std::vector<double>{0.5, 0.99}).feasible);
}

TEST(WaterFill, TiesProduceZeroLengthColumns) {
  const mc::Instance inst(2.0, {{1.0, 1.0, 1.0}, {1.0, 1.0, 1.0}});
  const std::vector<double> completions{1.0, 1.0};
  const auto result = mc::water_fill(inst, completions);
  ASSERT_TRUE(result.feasible);
  EXPECT_TRUE(result.schedule.validate(inst).valid);
  EXPECT_DOUBLE_EQ(result.schedule.completion(0), 1.0);
  EXPECT_DOUBLE_EQ(result.schedule.completion(1), 1.0);
}

TEST(WaterFill, ZeroVolumeTask) {
  const mc::Instance inst(1.0, {{0.0, 1.0, 1.0}, {1.0, 1.0, 1.0}});
  const std::vector<double> completions{0.0, 1.0};
  const auto result = mc::water_fill(inst, completions);
  ASSERT_TRUE(result.feasible);
  EXPECT_TRUE(result.schedule.validate(inst).valid);
}

TEST(WaterFillFeasible, MatchesFullWaterFill) {
  ms::Rng rng(19);
  int feasible_count = 0;
  for (int rep = 0; rep < 200; ++rep) {
    mc::GeneratorConfig config;
    config.family = mc::Family::Uniform;
    config.num_tasks = 5;
    config.processors = 2.0;
    const auto inst = mc::generate(config, rng);
    // Random deadlines around the makespan scale: some feasible, some not.
    std::vector<double> deadlines(inst.size());
    for (auto& d : deadlines) {
      d = rng.uniform(0.1, 2.5);
    }
    const bool fast = mc::water_fill_feasible(inst, deadlines);
    const bool full = mc::water_fill(inst, deadlines).feasible;
    EXPECT_EQ(fast, full) << "rep " << rep;
    feasible_count += full ? 1 : 0;
  }
  // The deadline distribution must actually exercise both branches.
  EXPECT_GT(feasible_count, 10);
  EXPECT_LT(feasible_count, 190);
}

TEST(WaterFillFeasible, SaturatedSuffixHandling) {
  // One narrow task with a late deadline on a busy machine: exercises the
  // "saturated groups keep their order" path of the merged-profile variant.
  const mc::Instance inst(4.0, {{4.0, 4.0, 1.0},
                                {2.0, 1.0, 1.0},
                                {6.0, 2.0, 1.0}});
  // t=1: T0 done (rate 4 impossible with others... rate 4*1=4=V ok alone?)
  // Check a consistent set: deadlines 2, 3, 4.
  const std::vector<double> ok{2.0, 3.0, 4.0};
  EXPECT_EQ(mc::water_fill_feasible(inst, ok),
            mc::water_fill(inst, ok).feasible);
  const std::vector<double> tight{1.0, 2.0, 3.5};
  EXPECT_EQ(mc::water_fill_feasible(inst, tight),
            mc::water_fill(inst, tight).feasible);
}

TEST(Normalize, WrapsScheduleExtraction) {
  const mc::Instance inst(2.0, {{2.0, 2.0, 1.0}, {1.0, 1.0, 1.0}});
  const auto run = mc::run_wdeq(inst);
  const auto result = mc::normalize(inst, run.schedule);
  ASSERT_TRUE(result.feasible);
  const auto original = run.schedule.completions();
  for (std::size_t i = 0; i < inst.size(); ++i) {
    EXPECT_NEAR(result.schedule.completion(i), original[i], 1e-9);
  }
}

// The pour level merges the fill and saturation events of a non-increasing
// profile instead of sorting them; it must agree with a sorted sweep.
// Heights come on a coarse grid so equal heights, and fill events equal to
// saturation events, are common.
TEST(WaterLevel, MergedEventsMatchSortedReference) {
  ms::Rng rng(2026);
  for (int rep = 0; rep < 2000; ++rep) {
    const std::size_t columns = 1 + static_cast<std::size_t>(rng.uniform_int(0, 24));
    const double cap = 0.25 * static_cast<double>(rng.uniform_int(1, 12));
    const double ceiling = 4.0;
    std::vector<double> heights(columns);
    std::vector<double> lengths(columns);
    for (std::size_t k = 0; k < columns; ++k) {
      heights[k] = rep % 2 == 0
                       ? 0.25 * static_cast<double>(rng.uniform_int(0, 16))
                       : rng.uniform(0.0, ceiling);
      lengths[k] = rng.uniform_int(0, 5) == 0 ? 0.0 : rng.uniform_pos(1.0);
    }
    std::sort(heights.begin(), heights.end(), std::greater<>());
    double room = 0.0;
    for (std::size_t k = 0; k < columns; ++k) {
      room += lengths[k] * std::clamp(ceiling - heights[k], 0.0, cap);
    }
    // Volumes below, at and above what fits under the ceiling.
    for (const double fraction : {0.0, 0.1, 0.5, 0.9, 1.0, 1.2}) {
      expect_level_matches_reference(heights, lengths, cap, fraction * room,
                                     ceiling,
                                     "rep " + std::to_string(rep) +
                                         " fraction " +
                                         std::to_string(fraction));
    }
  }
}

// A profile out of order (the residue fix of water_fill can leave one)
// takes the sorting fallback and still finds the level.
TEST(WaterLevel, NonMonotoneProfileFallsBackToSorting) {
  const std::vector<double> heights{1.0, 2.5, 0.0, 3.0, 0.5};
  const std::vector<double> lengths{0.5, 1.0, 0.25, 2.0, 1.0};
  for (const double cap : {0.5, 1.0, 3.0}) {
    for (const double volume : {0.1, 0.75, 1.5, 3.0, 10.0}) {
      expect_level_matches_reference(heights, lengths, cap, volume, 4.0,
                                     "cap " + std::to_string(cap) +
                                         " volume " + std::to_string(volume));
    }
  }
  ms::Rng rng(7);
  for (int rep = 0; rep < 500; ++rep) {
    std::vector<double> h(10);
    std::vector<double> l(10);
    for (std::size_t k = 0; k < h.size(); ++k) {
      h[k] = rng.uniform(0.0, 3.0);
      l[k] = rng.uniform_pos(1.0);
    }
    expect_level_matches_reference(h, l, rng.uniform(0.1, 2.0),
                                   rng.uniform(0.0, 6.0), 4.0,
                                   "rep " + std::to_string(rep));
  }
}

// water_fill_feasible's verdicts on the shipped fixtures, pinned: deadlines
// are the greedy completions of three orders, scaled around 1 so that some
// are exactly tight and some just infeasible.
TEST(WaterFillFeasible, FixtureVerdictsArePinned) {
  std::string verdicts;
  for (const char* file : {"bandwidth_fig1.mls", "example_small.mls",
                           "theorem9_counterexample.mls", "wide_tasks.mls"}) {
    const auto inst = load_fixture(file);
    auto forward = mc::identity_order(inst.size());
    auto backward = forward;
    std::reverse(backward.begin(), backward.end());
    for (const auto& order : {forward, backward, mc::smith_order(inst)}) {
      const auto completions = mc::greedy_schedule(inst, order).completions();
      for (const double scale : {0.9, 0.999, 1.0, 1.001, 1.5}) {
        std::vector<double> deadlines = completions;
        for (double& d : deadlines) {
          d *= scale;
        }
        const bool fast = mc::water_fill_feasible(inst, deadlines);
        EXPECT_EQ(fast, mc::water_fill(inst, deadlines).feasible)
            << file << " scale " << scale;
        verdicts += fast ? '1' : '0';
      }
      verdicts += ' ';
    }
  }
    // The same verdicts as the sorting find_level gave.
  EXPECT_EQ(verdicts,
            "00111 00111 00111 00111 00111 00111 "
            "00111 00111 00111 00111 00111 00111 ");
}
