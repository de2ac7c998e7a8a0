#pragma once

/// \file engine.hpp
/// Runs an allocation policy (policy.hpp) on core's fluid event loop
/// (core/fluid.hpp): rates are recomputed at every task completion, the only
/// event type of an offline instance, producing a piecewise-constant
/// StepSchedule plus per-event telemetry.  Online arrivals are simulated by
/// the replay clock (online/clock.hpp), not here.

#include "malsched/core/cancel.hpp"
#include "malsched/core/fluid.hpp"
#include "malsched/core/instance.hpp"
#include "malsched/sim/policy.hpp"

namespace malsched::sim {

/// Schedule, completions, Σ w_i C_i, event count (policy invocations) and
/// the cancelled flag of one run (core/fluid.hpp).
using EngineResult = core::FluidRun;

struct EngineOptions {
  support::Tolerance tol = {};
  /// Cooperative cancellation, polled once per event — the abort latency of
  /// an engine-backed solve is therefore one policy invocation (O(n) work),
  /// microseconds in practice.  A default token never fires and the poll is
  /// skipped entirely (cancel.hpp).
  core::CancelToken cancel;
};

/// Runs `policy` on `instance` until every task completes.  Zero-task
/// instances are valid input and produce an empty schedule with zero events
/// (the service layer forwards arbitrary client batches here).  A policy
/// that starves every alive task or stops making progress aborts the
/// process with a diagnostic (core::run_fluid).
[[nodiscard]] EngineResult run_policy(const core::Instance& instance,
                                      const AllocationPolicy& policy,
                                      const EngineOptions& options = {});

}  // namespace malsched::sim
