#pragma once

/// \file water_filling.hpp
/// Algorithm WF (paper Algorithm 2): given the completion time of every task,
/// rebuild a valid column-based schedule — the paper's *normal form*.
///
/// Tasks are processed by non-decreasing completion time.  Task i may only
/// use columns 1..i (times before C_i).  The algorithm "pours" the volume
/// V_i onto the current height profile, finding the minimal water level h*
/// with  Σ_k l_k · clamp(h* − h_k, 0, δ_i) = V_i,  then raises the touched
/// columns.  Theorem 8: WF succeeds iff *any* valid schedule with those
/// completion times exists, so the normal form loses nothing.  Lemma 3: the
/// height profile stays non-increasing over time throughout.
///
/// Two entry points:
///  * water_fill       — materializes the full allocation (O(n²) memory),
///  * water_fill_feasible — height-profile only, merged equal-height groups
///    (near O(n log n) in practice); used by the Lmax/deadline machinery.

#include <span>

#include "malsched/core/instance.hpp"
#include "malsched/core/schedule.hpp"

namespace malsched::core {

struct WaterFillResult {
  bool feasible = false;
  /// Valid only when feasible.
  ColumnSchedule schedule;
  /// When infeasible: position (in completion order) of the first task that
  /// could not be fitted — the Tm+1 of the Theorem 8 proof.
  std::size_t failed_position = 0;
};

/// Runs WF against per-task completion times `completions` (indexed by task
/// id).  Ties are allowed; tied tasks get zero-length columns in index
/// order.
[[nodiscard]] WaterFillResult water_fill(const Instance& instance,
                                         std::span<const double> completions,
                                         support::Tolerance tol = {});

/// Fast feasibility test: can every task i finish by deadlines[i]?
/// Equivalent to water_fill(...).feasible but does not materialize the
/// schedule.
[[nodiscard]] bool water_fill_feasible(const Instance& instance,
                                       std::span<const double> deadlines,
                                       support::Tolerance tol = {});

/// One pour of WF: the minimal water level h* with
///   Σ_k lengths[k] · clamp(h* − heights[k], 0, cap) = volume,
/// `ceiling` when only h* = ceiling reaches the volume within tolerance,
/// and infinity when even that is not enough.  water_fill and
/// water_fill_feasible call this for every task; it is exposed so the
/// level can be checked on its own.
[[nodiscard]] double water_level(std::span<const double> heights,
                                 std::span<const double> lengths, double cap,
                                 double volume, double ceiling,
                                 support::Tolerance tol = {});

/// Normalizes an arbitrary valid schedule: extracts its completion times and
/// rebuilds the WF normal form (same completions, canonical allocation).
[[nodiscard]] WaterFillResult normalize(const Instance& instance,
                                        const StepSchedule& schedule,
                                        support::Tolerance tol = {});

}  // namespace malsched::core
