#pragma once

/// \file fluid.hpp
/// The fluid event loop shared by every offline rate policy.
///
/// In the work-preserving fluid model (Definition 1) a task's state is its
/// unprocessed volume, and a rate policy that reacts only to completions
/// keeps its rates constant between them.  The loop asks a rate callback for
/// the rates of the alive tasks, runs them until the first task completes,
/// retires every task that completed, and repeats: the schedule is piecewise
/// constant with one step per event (Theorem 4's setting for WDEQ,
/// Algorithm 1).  WDEQ and DEQ (wdeq.hpp) and the sim policy zoo
/// (sim/engine.hpp) all run here; online arrivals are the replay clock's
/// business (online/clock.hpp).

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "malsched/core/cancel.hpp"
#include "malsched/core/instance.hpp"
#include "malsched/core/schedule.hpp"

namespace malsched::core {

/// Rate callback: given the alive mask (1 = still running) and the
/// remaining volumes, return per-task rates — 0 for dead tasks, at most the
/// task's effective width, summing to at most P.  The loop checks all three.
using FluidRates = std::function<std::vector<double>(
    std::span<const std::uint8_t> alive, std::span<const double> remaining)>;

struct FluidRun {
  StepSchedule schedule;
  /// Completion times indexed by task.
  std::vector<double> completions;
  /// Weighted completion Σ w_i C_i.
  double weighted_completion = 0.0;
  /// Number of rate-callback invocations (events).
  std::size_t events = 0;
  /// True when the cancel token fired mid-run; the schedule then stops at
  /// the last completed event and unfinished tasks report completion 0 — a
  /// partial trace, not a valid MWCT answer.
  bool cancelled = false;
};

/// Runs `rates` on `instance` until every task completes.  Zero-task
/// instances are valid input and produce an empty schedule with zero events.
/// `cancel` is polled once per event, so the abort latency is one callback
/// invocation (O(n) work); a default token never fires and is not polled.
/// A callback that starves every alive task, or that needs more than
/// 4n + 16 events, aborts the process (contract failure) instead of
/// spinning.
[[nodiscard]] FluidRun run_fluid(const Instance& instance,
                                 const FluidRates& rates,
                                 const CancelToken& cancel = {},
                                 support::Tolerance tol = {});

}  // namespace malsched::core
