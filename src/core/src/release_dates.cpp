#include "malsched/core/release_dates.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <vector>

#include "malsched/core/bounds.hpp"
#include "malsched/flow/max_flow.hpp"
#include "malsched/support/contracts.hpp"

namespace malsched::core {

namespace {

struct SliceNetwork {
  std::vector<double> cuts;                   // slice boundaries, sorted
  flow::MaxFlow network;
  std::vector<std::vector<std::size_t>> task_slice_edge;  // [task][slice]
  double total_volume = 0.0;
  bool trivially_infeasible = false;

  SliceNetwork(std::size_t nodes) : network(nodes) {}
};

constexpr std::size_t kInvalidEdge = static_cast<std::size_t>(-1);

/// Builds the transportation network; node layout:
/// 0 = source, 1 = sink, 2..2+n-1 = tasks, then one node per slice.
SliceNetwork build_network(const Instance& instance,
                           std::span<const double> release,
                           std::span<const double> deadlines,
                           support::Tolerance tol) {
  const std::size_t n = instance.size();

  std::vector<double> cuts;
  cuts.reserve(2 * n);
  for (std::size_t i = 0; i < n; ++i) {
    cuts.push_back(release[i]);
    cuts.push_back(deadlines[i]);
  }
  std::sort(cuts.begin(), cuts.end());
  cuts.erase(std::unique(cuts.begin(), cuts.end(),
                         [&](double a, double b) {
                           return support::approx_eq(a, b, tol);
                         }),
             cuts.end());

  const std::size_t slices = cuts.size() > 0 ? cuts.size() - 1 : 0;
  SliceNetwork result(2 + n + std::max<std::size_t>(slices, 1));
  result.cuts = cuts;
  result.task_slice_edge.assign(n, std::vector<std::size_t>(slices, kInvalidEdge));

  const auto task_node = [](std::size_t i) { return 2 + i; };
  const auto slice_node = [&](std::size_t j) { return 2 + n + j; };

  for (std::size_t j = 0; j < slices; ++j) {
    const double len = result.cuts[j + 1] - result.cuts[j];
    if (len <= tol.abs) {
      continue;
    }
    (void)result.network.add_edge(slice_node(j), 1,
                                  instance.processors() * len);
  }
  for (std::size_t i = 0; i < n; ++i) {
    const double volume = instance.task(i).volume;
    result.total_volume += volume;
    if (volume <= tol.abs) {
      continue;
    }
    if (deadlines[i] < release[i] - tol.abs) {
      result.trivially_infeasible = true;
      continue;
    }
    (void)result.network.add_edge(0, task_node(i), volume);
    const double cap = instance.effective_width(i);
    for (std::size_t j = 0; j < slices; ++j) {
      const double lo = result.cuts[j];
      const double hi = result.cuts[j + 1];
      const double len = hi - lo;
      if (len <= tol.abs) {
        continue;
      }
      if (lo >= release[i] - tol.slack(release[i]) &&
          hi <= deadlines[i] + tol.slack(deadlines[i])) {
        result.task_slice_edge[i][j] =
            result.network.add_edge(task_node(i), slice_node(j), cap * len);
      }
    }
  }
  return result;
}

}  // namespace

bool released_feasible(const Instance& instance,
                       std::span<const double> release,
                       std::span<const double> deadlines,
                       support::Tolerance tol) {
  MALSCHED_EXPECTS(release.size() == instance.size());
  MALSCHED_EXPECTS(deadlines.size() == instance.size());
  auto net = build_network(instance, release, deadlines, tol);
  if (net.trivially_infeasible) {
    return false;
  }
  const double routed = net.network.solve(0, 1);
  return support::approx_ge(routed, net.total_volume,
                            {tol.abs * 100, tol.rel * 100});
}

ReleasedScheduleResult released_schedule(const Instance& instance,
                                         std::span<const double> release,
                                         std::span<const double> deadlines,
                                         support::Tolerance tol) {
  MALSCHED_EXPECTS(release.size() == instance.size());
  MALSCHED_EXPECTS(deadlines.size() == instance.size());
  ReleasedScheduleResult result;
  auto net = build_network(instance, release, deadlines, tol);
  if (net.trivially_infeasible) {
    return result;
  }
  const double routed = net.network.solve(0, 1);
  if (!support::approx_ge(routed, net.total_volume,
                          {tol.abs * 100, tol.rel * 100})) {
    return result;
  }

  const std::size_t n = instance.size();
  std::vector<Step> steps;
  double cursor = 0.0;
  // A leading idle step keeps the schedule contiguous from t = 0.
  if (!net.cuts.empty() && net.cuts.front() > tol.abs) {
    steps.push_back({0.0, net.cuts.front(), std::vector<double>(n, 0.0)});
    cursor = net.cuts.front();
  }
  for (std::size_t j = 0; j + 1 < net.cuts.size(); ++j) {
    const double lo = net.cuts[j];
    const double hi = net.cuts[j + 1];
    const double len = hi - lo;
    if (len <= tol.abs) {
      continue;
    }
    Step step;
    step.begin = cursor;
    step.end = cursor + len;
    step.rates.assign(n, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t edge = net.task_slice_edge[i][j];
      if (edge != kInvalidEdge) {
        const double volume = net.network.flow_on(edge);
        if (volume > tol.abs) {
          step.rates[i] = volume / len;
        }
      }
    }
    steps.push_back(std::move(step));
    cursor += len;
  }
  result.feasible = true;
  result.schedule = StepSchedule(n, std::move(steps));
  return result;
}

double released_makespan_lower_bound(const Instance& instance,
                                     std::span<const double> release) {
  MALSCHED_EXPECTS(release.size() == instance.size());
  double bound = 0.0;
  for (std::size_t i = 0; i < instance.size(); ++i) {
    if (instance.task(i).volume > 0.0) {
      bound = std::max(bound, release[i] + instance.task(i).volume /
                                               instance.effective_width(i));
    }
  }
  // Area released at or after each release level must still fit.
  for (std::size_t i = 0; i < instance.size(); ++i) {
    const double level = release[i];
    double tail_volume = 0.0;
    for (std::size_t k = 0; k < instance.size(); ++k) {
      if (release[k] >= level) {
        tail_volume += instance.task(k).volume;
      }
    }
    bound = std::max(bound, level + tail_volume / instance.processors());
  }
  return bound;
}

ReleasedMakespanResult released_optimal_makespan(
    const Instance& instance, std::span<const double> release,
    double precision) {
  MALSCHED_EXPECTS(release.size() == instance.size());
  MALSCHED_EXPECTS(precision > 0.0);
  const std::size_t n = instance.size();

  double lo = released_makespan_lower_bound(instance, release);
  // Upper bound: run everything after the last release at the no-release
  // optimal makespan.
  double max_release = 0.0;
  for (double r : release) {
    max_release = std::max(max_release, r);
  }
  double hi = max_release + instance.total_volume() / instance.processors();
  for (std::size_t i = 0; i < n; ++i) {
    hi = std::max(hi, release[i] + instance.task(i).volume /
                          instance.effective_width(i));
  }

  const auto feasible_at = [&](double deadline) {
    const std::vector<double> deadlines(n, deadline);
    return released_feasible(instance, release, deadlines);
  };

  ReleasedMakespanResult result;
  if (feasible_at(lo)) {
    result.makespan = lo;
    return result;
  }
  MALSCHED_ASSERT(feasible_at(hi));
  while (hi - lo > precision * std::max(1.0, hi)) {
    const double mid = 0.5 * (lo + hi);
    ++result.iterations;
    if (feasible_at(mid)) {
      hi = mid;
    } else {
      lo = mid;
    }
  }
  result.makespan = hi;
  return result;
}

double released_weighted_completion_lower_bound(
    const Instance& instance, std::span<const double> release) {
  MALSCHED_EXPECTS(release.size() == instance.size());
  double release_term = 0.0;
  for (std::size_t i = 0; i < instance.size(); ++i) {
    const Task& t = instance.task(i);
    if (t.volume > 0.0) {
      // Associated as w·r + (w·V)/δ_eff — the same grouping height_bound
      // uses — so the r = 0 degeneration to H(I) is bit-for-bit, not just
      // within rounding.
      release_term += t.weight * release[i] +
                      t.weight * t.volume / instance.effective_width(i);
    } else {
      // Zero-volume tasks complete at their release under the online
      // semantics, contributing w_i · r_i.
      release_term += t.weight * release[i];
    }
  }
  return std::max({squashed_area_bound(instance), height_bound(instance),
                   release_term});
}

ReleasedLmaxResult released_minimize_lmax(const Instance& instance,
                                          std::span<const double> release,
                                          std::span<const double> due_dates,
                                          double precision) {
  MALSCHED_EXPECTS(release.size() == instance.size());
  MALSCHED_EXPECTS(due_dates.size() == instance.size());
  MALSCHED_EXPECTS(precision > 0.0);
  const std::size_t n = instance.size();

  const auto feasible_at = [&](double shift) {
    std::vector<double> deadlines(n);
    for (std::size_t i = 0; i < n; ++i) {
      deadlines[i] = due_dates[i] + shift;
    }
    return released_feasible(instance, release, deadlines);
  };

  // Bracket: per-task height after release; upper via sequential-ish bound.
  double lo = -std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < n; ++i) {
    if (instance.task(i).volume > 0.0) {
      lo = std::max(lo, release[i] +
                            instance.task(i).volume /
                                instance.effective_width(i) -
                            due_dates[i]);
    }
  }
  ReleasedLmaxResult result;
  if (!std::isfinite(lo)) {
    return result;
  }
  double max_release = 0.0;
  for (double r : release) {
    max_release = std::max(max_release, r);
  }
  const double horizon =
      max_release + instance.total_volume() / instance.processors() +
      [&] {
        double tallest = 0.0;
        for (std::size_t i = 0; i < n; ++i) {
          tallest = std::max(tallest, instance.task(i).volume /
                                          instance.effective_width(i));
        }
        return tallest;
      }();
  double min_due = due_dates[0];
  for (double d : due_dates) {
    min_due = std::min(min_due, d);
  }
  double hi = std::max(lo, horizon - min_due);

  if (feasible_at(lo)) {
    result.lmax = lo;
    return result;
  }
  MALSCHED_ASSERT(feasible_at(hi));
  while (hi - lo > precision * std::max(1.0, std::fabs(hi))) {
    const double mid = 0.5 * (lo + hi);
    ++result.iterations;
    if (feasible_at(mid)) {
      hi = mid;
    } else {
      lo = mid;
    }
  }
  result.lmax = hi;
  return result;
}

}  // namespace malsched::core
