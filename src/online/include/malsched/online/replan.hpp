#pragma once

/// \file replan.hpp
/// Replanning policies for online arrivals.
///
/// The replay clock (clock.hpp) commits everything executed before the
/// current event to its executed schedule (work-preserving malleability
/// makes a task's remaining volume its whole state) and asks a ReplanPolicy
/// for a fresh plan over the live tasks' remaining volumes.  A policy that
/// replans at completions only needs to plan up to the next completion: the
/// clock replans when a plan runs out.
/// Policies differ in how much of the running plan they are willing to tear
/// up:
///
/// * greedy-append — never preempts: each arrival is greedily placed
///   (Algorithm 3 placement, starting at its arrival time) on top of the
///   allocations already promised to earlier arrivals.  The cheap,
///   commitment-friendly strawman.
/// * wsew-replan — full preemptive re-plan: live tasks are re-ordered by
///   weighted-shortest-estimated-work (w_i / remaining_i, the admission
///   ordering of the service layer); the greedy completions of that order
///   are normalized by Water-Filling (Algorithm 2) into the paper's column
///   normal form, and the plan is its first non-empty column.
/// * wdeq-replan — equipartition re-plan: WDEQ (Algorithm 1) is memoryless,
///   so the plan is one share vector over the live set, held until the
///   first completion.  Non-clairvoyant in spirit; inherits Theorem 4's
///   2-approximation on the t = 0 trace.
/// * exact-replan — calls the branch-and-bound exact solver on the live
///   remaining subinstance when it is small enough, under a CancelToken
///   time budget (a fired budget still yields the B&B incumbent, a valid
///   plan); falls back to the full WSEW normal form beyond the size guard.
///   On the all-arrivals-at-t=0 trace this reproduces the offline optimum
///   bit-for-bit (CI-gated).
///
/// Policies may be stateful across events of ONE replay (greedy-append
/// keeps its committed profile); create a fresh policy per replay.

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "malsched/core/cancel.hpp"
#include "malsched/core/instance.hpp"
#include "malsched/core/schedule.hpp"

namespace malsched::online {

/// Snapshot handed to a policy at each replan point.  `instance` spans every
/// task of the trace (arrival order); `remaining` is the unexecuted volume;
/// `live[i]` is 1 exactly when task i has arrived and still has work left.
/// Tasks not yet arrived have remaining == full volume but live == 0 — a
/// policy must plan only for live tasks.  The clock does not validate this:
/// it zeroes the rates of tasks that are not live as it commits each step.
struct ReplanContext {
  double now = 0.0;
  const core::Instance* instance = nullptr;
  std::span<const double> remaining;
  std::span<const std::uint8_t> live;
  core::CancelToken cancel;
};

/// A replanning policy: returns the plan for the live tasks from ctx.now on.
/// The returned StepSchedule must start at ctx.now, be contiguous, respect
/// rate caps and run nobody but live tasks (a task stops the instant its
/// remaining volume is done).  A policy that does not replan at completions
/// must process the remaining volume of every live task (a full suffix
/// plan).  A policy that does may stop its plan early — typically at the
/// end of its first step that ends at a completion; when the plan runs out
/// with work left, the clock simply asks again.
class ReplanPolicy {
 public:
  virtual ~ReplanPolicy() = default;

  [[nodiscard]] virtual std::string name() const = 0;

  /// True when the policy wants to be re-invoked at completion events too
  /// (arrival events always replan), and may then return plans that stop
  /// short of the last completion.  Policies whose plan is already final
  /// for the live set — greedy-append's committed pieces, exact-replan's
  /// optimal suffix — return false, which both saves work and keeps their
  /// executed schedule bit-stable.
  [[nodiscard]] virtual bool replan_on_completion() const { return true; }

  [[nodiscard]] virtual core::StepSchedule replan(
      const ReplanContext& context) = 0;
};

/// No-preempt greedy append (see file comment).
[[nodiscard]] std::unique_ptr<ReplanPolicy> make_greedy_append_policy();

/// WSEW re-plan via greedy + Water-Filling normal form, up to the first
/// completion.
[[nodiscard]] std::unique_ptr<ReplanPolicy> make_wsew_replan_policy();

/// Equipartition re-plan: one WDEQ share vector, up to the first completion.
[[nodiscard]] std::unique_ptr<ReplanPolicy> make_wdeq_replan_policy();

struct ExactReplanOptions {
  /// Live-set size beyond which the policy falls back to the full WSEW
  /// normal form (branch-and-bound is exponential; see core/bnb.hpp).
  std::size_t max_exact_tasks = 12;
  /// Wall-clock budget per replan, enforced with a deadline CancelToken; a
  /// fired budget keeps the B&B incumbent (a feasible order), so the plan
  /// degrades gracefully instead of stalling the clock.  <= 0 disables the
  /// budget.
  double budget_seconds = 0.25;
};

/// Exact re-plan: branch-and-bound on small live sets, WSEW beyond.
[[nodiscard]] std::unique_ptr<ReplanPolicy> make_exact_replan_policy(
    const ExactReplanOptions& options = {});

/// All four policies, fresh instances, for comparison sweeps (bench/CLI).
[[nodiscard]] std::vector<std::unique_ptr<ReplanPolicy>> all_replan_policies();

}  // namespace malsched::online
