#include "malsched/core/water_filling.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <vector>

#include "malsched/support/contracts.hpp"

namespace malsched::core {

namespace {

/// clamp(h - base, 0, cap): the rate task i receives in a column of height
/// `base` under water level `h` and width cap `cap`.
double pour_rate(double h, double base, double cap) noexcept {
  return std::clamp(h - base, 0.0, cap);
}

/// Slope-change event of the piecewise-linear pour function: at level `h`
/// the derivative gains `delta` (a column starts filling: +length; a column
/// saturates at its cap: -length).
struct LevelEvent {
  double h;
  double delta;
};

/// Finds the minimal water level h* such that
///   Σ_k lengths[k] * clamp(h* - heights[k], 0, cap) == volume
/// over the given columns, or returns infinity if even h* = ceiling is not
/// enough.  The pour function is piecewise linear and non-decreasing in h;
/// a running-sum sweep over its slope-change events in ascending order
/// locates the crossing segment.  Heights are non-increasing in column
/// index (Lemma 3), so the fill events h_k and the saturation events
/// h_k + cap are each ascending read from the last column back, and one
/// merge orders them in O(n).  A profile out of order (the residue fix of
/// water_fill can leave one) falls back to sorting.  `events` is
/// caller-owned scratch so loops over find_level do not reallocate.
double find_level(std::span<const double> heights,
                  std::span<const double> lengths, double cap, double volume,
                  double ceiling, support::Tolerance tol,
                  std::vector<LevelEvent>& events) {
  MALSCHED_ASSERT(heights.size() == lengths.size());
  if (volume <= tol.abs) {
    return 0.0;
  }

  // Pour and right-derivative at h = 0; columns whose span [h_k, h_k + cap]
  // starts at or below 0 fold into the initial slope instead of the queue.
  double poured = 0.0;
  double slope = 0.0;
  bool monotone = true;
  for (std::size_t k = 0; k < heights.size(); ++k) {
    poured += lengths[k] * pour_rate(0.0, heights[k], cap);
    if (heights[k] <= 0.0 && 0.0 < heights[k] + cap) {
      slope += lengths[k];
    }
    monotone = monotone && (k == 0 || heights[k] <= heights[k - 1]);
  }
  if (poured >= volume) {
    return 0.0;
  }
  events.clear();
  events.reserve(heights.size() * 2);
  if (monotone) {
    // Merge the two ascending runs, walking the columns from the last.
    constexpr double kDone = std::numeric_limits<double>::infinity();
    std::size_t fill = heights.size();
    std::size_t saturate = heights.size();
    while (fill > 0 || saturate > 0) {
      const double fill_h = fill > 0 ? heights[fill - 1] : kDone;
      const double saturate_h =
          saturate > 0 ? heights[saturate - 1] + cap : kDone;
      if (fill_h <= saturate_h) {
        --fill;
        if (fill_h > 0.0) {
          events.push_back({fill_h, lengths[fill]});
        }
      } else {
        --saturate;
        if (saturate_h > 0.0) {
          events.push_back({saturate_h, -lengths[saturate]});
        }
      }
    }
  } else {
    for (std::size_t k = 0; k < heights.size(); ++k) {
      if (heights[k] > 0.0) {
        events.push_back({heights[k], lengths[k]});
      }
      if (heights[k] + cap > 0.0) {
        events.push_back({heights[k] + cap, -lengths[k]});
      }
    }
    std::sort(events.begin(), events.end(),
              [](const LevelEvent& a, const LevelEvent& b) { return a.h < b.h; });
  }

  // Sweep: advance the running (poured, slope) pair event by event and
  // interpolate inside the segment that crosses `volume`.  Track the pour at
  // `ceiling` on the way for the saturated-everywhere fallback below.
  double lo = 0.0;
  double poured_at_ceiling = poured;
  bool ceiling_passed = ceiling <= lo;
  for (const LevelEvent& event : events) {
    if (event.h > lo) {
      if (!ceiling_passed && ceiling <= event.h) {
        poured_at_ceiling = poured + slope * (ceiling - lo);
        ceiling_passed = true;
      }
      const double poured_next = poured + slope * (event.h - lo);
      if (poured_next >= volume) {
        MALSCHED_ASSERT(slope > 0.0);
        return lo + (volume - poured) / slope;
      }
      poured = poured_next;
      lo = event.h;
    }
    slope += event.delta;
  }
  // Above the last event the function is constant: never reaches volume.
  // (All columns saturated at cap.)  Check the ceiling for completeness.
  if (!ceiling_passed) {
    poured_at_ceiling = poured;
  }
  if (poured_at_ceiling >= volume - tol.slack(volume)) {
    return ceiling;
  }
  return std::numeric_limits<double>::infinity();
}

}  // namespace

double water_level(std::span<const double> heights,
                   std::span<const double> lengths, double cap, double volume,
                   double ceiling, support::Tolerance tol) {
  MALSCHED_EXPECTS(heights.size() == lengths.size());
  std::vector<LevelEvent> events;
  return find_level(heights, lengths, cap, volume, ceiling, tol, events);
}

WaterFillResult water_fill(const Instance& instance,
                           std::span<const double> completions,
                           support::Tolerance tol) {
  MALSCHED_EXPECTS(completions.size() == instance.size());
  const std::size_t n = instance.size();
  const double P = instance.processors();

  // Completion order, ties by index.
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (completions[a] != completions[b]) {
      return completions[a] < completions[b];
    }
    return a < b;
  });

  std::vector<double> boundaries(n);
  for (std::size_t j = 0; j < n; ++j) {
    MALSCHED_EXPECTS_MSG(completions[order[j]] >= 0.0,
                         "completion times must be non-negative");
    boundaries[j] = completions[order[j]];
  }

  std::vector<double> lengths(n);
  for (std::size_t j = 0; j < n; ++j) {
    lengths[j] = boundaries[j] - (j == 0 ? 0.0 : boundaries[j - 1]);
  }

  support::Matrix alloc(n, n, 0.0);
  std::vector<double> heights(n, 0.0);  // current profile, columns 0..n-1
  std::vector<LevelEvent> level_events;  // find_level scratch, reused per pour

  WaterFillResult result;
  for (std::size_t pos = 0; pos < n; ++pos) {
    const std::size_t task = order[pos];
    const double volume = instance.task(task).volume;
    const double cap = instance.effective_width(task);

    const std::span<const double> active_heights(heights.data(), pos + 1);
    const std::span<const double> active_lengths(lengths.data(), pos + 1);
    const double level = find_level(active_heights, active_lengths, cap,
                                    volume, P, tol, level_events);
    if (!(level <= P + tol.slack(P))) {
      result.feasible = false;
      result.failed_position = pos;
      return result;
    }

    // Pour: raise every reachable column to the water level (cap-limited).
    double placed = 0.0;
    for (std::size_t k = 0; k <= pos; ++k) {
      const double rate = pour_rate(level, heights[k], cap);
      if (rate <= 0.0) {
        continue;
      }
      alloc(task, k) = rate;
      heights[k] += rate;
      placed += rate * lengths[k];
    }
    // Distribute any interpolation residue into the last unsaturated column
    // (numerically tiny; keeps volumes exact).
    if (volume > 0.0 && std::fabs(placed - volume) > 0.0) {
      for (std::size_t k = pos + 1; k-- > 0;) {
        if (lengths[k] <= 0.0) {
          continue;
        }
        const double fix = (volume - placed) / lengths[k];
        const double new_rate = alloc(task, k) + fix;
        if (new_rate >= -tol.abs && new_rate <= cap + tol.slack(cap) &&
            heights[k] + fix <= P + tol.slack(P)) {
          alloc(task, k) = std::max(0.0, new_rate);
          heights[k] += fix;
          break;
        }
      }
    }
  }

  result.feasible = true;
  result.schedule =
      ColumnSchedule(std::move(order), std::move(boundaries), std::move(alloc));
  return result;
}

bool water_fill_feasible(const Instance& instance,
                         std::span<const double> deadlines,
                         support::Tolerance tol) {
  MALSCHED_EXPECTS(deadlines.size() == instance.size());
  const std::size_t n = instance.size();
  const double P = instance.processors();

  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return deadlines[a] < deadlines[b];
  });

  // Merged profile groups, non-increasing heights over time (Lemma 3).
  // Equal-height neighbours are merged after every pour, which is what
  // keeps the group count — and hence the per-task cost — small.
  struct Group {
    double height;
    double length;
  };
  std::vector<Group> groups;
  groups.reserve(n);
  std::vector<double> heights;
  std::vector<double> lengths;
  std::vector<LevelEvent> level_events;  // find_level scratch, reused per pour

  double horizon = 0.0;
  for (std::size_t pos = 0; pos < n; ++pos) {
    const std::size_t task = order[pos];
    const double deadline = deadlines[task];
    if (deadline < -tol.abs) {
      return false;
    }
    if (deadline > horizon) {
      groups.push_back({0.0, deadline - horizon});
      horizon = deadline;
    }

    const double volume = instance.task(task).volume;
    const double cap = instance.effective_width(task);
    if (volume <= tol.abs) {
      continue;
    }
    if (groups.empty()) {
      return false;  // positive volume, zero deadline
    }

    heights.clear();
    lengths.clear();
    for (const Group& g : groups) {
      heights.push_back(g.height);
      lengths.push_back(g.length);
    }
    const double level =
        find_level(heights, lengths, cap, volume, P, tol, level_events);
    if (!(level <= P + tol.slack(P))) {
      return false;
    }

    // Apply the pour, preserving the non-increasing height order:
    // groups >= level untouched, the band merges at `level`, saturated
    // groups rise by cap (staying below level and keeping their order).
    std::vector<Group> updated;
    updated.reserve(groups.size() + 1);
    double band_length = 0.0;
    for (const Group& g : groups) {
      if (g.height >= level) {
        updated.push_back(g);
      } else if (g.height >= level - cap) {
        band_length += g.length;
      } else {
        if (band_length > 0.0) {
          updated.push_back({level, band_length});
          band_length = 0.0;
        }
        updated.push_back({g.height + cap, g.length});
      }
    }
    if (band_length > 0.0) {
      updated.push_back({level, band_length});
    }
    // Merge equal-height neighbours.
    groups.clear();
    for (const Group& g : updated) {
      if (!groups.empty() &&
          support::approx_eq(groups.back().height, g.height, tol)) {
        groups.back().length += g.length;
      } else {
        groups.push_back(g);
      }
    }
  }
  return true;
}

WaterFillResult normalize(const Instance& instance, const StepSchedule& schedule,
                          support::Tolerance tol) {
  const auto completions = schedule.completions(tol);
  return water_fill(instance, completions, tol);
}

}  // namespace malsched::core
