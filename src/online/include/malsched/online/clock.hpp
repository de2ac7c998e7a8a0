#pragma once

/// \file clock.hpp
/// Event-driven replay of an arrival trace under a replanning policy.
///
/// The clock advances from event to event (arrivals and completions).  At
/// each replan point it hands the policy a snapshot of the live tasks'
/// remaining volumes (replan.hpp) and then *executes* the returned plan
/// until the next event: each executed step is committed to the record as
/// it ran, and only the suffix is ever re-solved.
/// A plan that runs out while work is left is a replan point too, so
/// policies that replan at completions plan only up to the next one.
/// Work never runs before its task arrives, and a task completes the instant
/// its remaining volume hits zero (completion crossings are snapped to plan
/// step boundaries so an exact plan's completion times survive the replay
/// bit-for-bit — the all-arrivals-at-t=0 gate depends on this).
///
/// Zero-volume tasks complete at their arrival instant (the online analogue
/// of StepSchedule::completions' zero-volume convention at t = 0).

#include <cstddef>
#include <vector>

#include "malsched/core/cancel.hpp"
#include "malsched/core/schedule.hpp"
#include "malsched/online/replan.hpp"
#include "malsched/online/trace.hpp"
#include "malsched/support/float_compare.hpp"

namespace malsched::online {

struct ReplayOptions {
  /// Forwarded to the policy at every replan (exact-replan budgets ride on
  /// top of it).  A fired token does not abort the replay — plans already
  /// returned keep executing — it bounds the per-replan solve time.
  core::CancelToken cancel;
  support::Tolerance tol = {};
};

struct ReplayResult {
  /// The executed schedule, contiguous from t = 0 (idle steps fill arrival
  /// gaps).  Validates against the trace's batch instance.
  core::StepSchedule schedule;
  /// Completion time per task (trace order); arrival time for zero-volume
  /// tasks.
  std::vector<double> completions;
  /// Σ w_i C_i, summed in task-index order (the same summation
  /// ColumnSchedule::weighted_completion uses, so bit-for-bit comparisons
  /// against offline schedules are meaningful).
  double weighted_completion = 0.0;
  double makespan = 0.0;
  std::size_t events = 0;   ///< arrivals + completions processed
  std::size_t replans = 0;  ///< policy invocations
};

/// Replays `trace` under `policy`.  The policy must be fresh (stateful
/// policies carry commitments across events of one replay only).
[[nodiscard]] ReplayResult replay(const ArrivalTrace& trace,
                                  ReplanPolicy& policy,
                                  const ReplayOptions& options = {});

}  // namespace malsched::online
