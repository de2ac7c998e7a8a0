#include "malsched/online/clock.hpp"

#include <algorithm>
#include <limits>

#include "malsched/support/contracts.hpp"

namespace malsched::online {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

}  // namespace

ReplayResult replay(const ArrivalTrace& trace, ReplanPolicy& policy,
                    const ReplayOptions& options) {
  const core::Instance instance = trace.to_instance();
  const std::size_t n = instance.size();
  const support::Tolerance tol = options.tol;

  ReplayResult result;
  result.completions.assign(n, 0.0);
  if (n == 0) {
    result.schedule = core::StepSchedule(0, {});
    return result;
  }

  std::vector<double> remaining(n);
  std::vector<std::uint8_t> live(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    remaining[i] = instance.task(i).volume;
  }

  std::vector<core::Step> committed;
  double now = 0.0;
  std::size_t next_arrival = 0;  // first not-yet-admitted trace index
  std::size_t alive_count = 0;

  core::StepSchedule plan;
  std::size_t plan_pos = 0;
  bool need_replan = true;

  const auto arrival_time = [&](std::size_t k) {
    return k < trace.size() ? trace.arrival(k).time : kInf;
  };

  const auto commit = [&](double begin, double end,
                          const std::vector<double>& rates) {
    if (end <= begin) {
      return;
    }
    core::Step step;
    step.begin = begin;
    step.end = end;
    step.rates = rates;
    // Defensive: a plan must not run tasks that are not live; zero them so a
    // buggy policy corrupts its own objective, not the executed record.
    for (std::size_t i = 0; i < n; ++i) {
      if (live[i] == 0) {
        step.rates[i] = 0.0;
      }
    }
    committed.push_back(std::move(step));
  };

  // Each loop iteration admits arrivals, replans, or advances time to the
  // next event or to the end of the plan; a policy that never makes
  // progress would spin, so bound the iteration count well above any
  // legitimate replay (each of the n tasks contributes one arrival and one
  // completion, each triggering at most one replan plus one plan walk, and
  // a plan that stops at the next completion adds one walk per event).
  const std::size_t max_iterations = 32 * n + 64;
  std::size_t iterations = 0;

  while (true) {
    MALSCHED_EXPECTS_MSG(++iterations <= max_iterations,
                         "online replay failed to make progress "
                         "(policy returned a plan that processes nothing?)");

    // Admit every arrival due now.
    bool admitted = false;
    while (next_arrival < trace.size() && arrival_time(next_arrival) <= now) {
      const std::size_t i = next_arrival++;
      ++result.events;
      if (instance.task(i).volume <= 0.0) {
        result.completions[i] = trace.arrival(i).time;
        continue;
      }
      live[i] = 1;
      ++alive_count;
      admitted = true;
    }
    if (admitted) {
      need_replan = true;
    }

    if (alive_count == 0) {
      if (next_arrival >= trace.size()) {
        break;  // every task arrived and completed
      }
      // Idle gap: nothing to run until the next arrival.
      const double next = arrival_time(next_arrival);
      commit(now, next, std::vector<double>(n, 0.0));
      now = next;
      continue;
    }

    if (need_replan) {
      ReplanContext ctx;
      ctx.now = now;
      ctx.instance = &instance;
      ctx.remaining = remaining;
      ctx.live = live;
      ctx.cancel = options.cancel;
      plan = policy.replan(ctx);
      ++result.replans;
      plan_pos = 0;
      need_replan = false;
      MALSCHED_EXPECTS_MSG(
          !plan.steps().empty(),
          "replan returned an empty plan with live tasks pending");
      MALSCHED_EXPECTS_MSG(
          support::approx_eq(plan.steps().front().begin, now, tol),
          "replan plan must start at the current time");
    }

    // Walk the plan until the next arrival or the next completion.
    const double next = arrival_time(next_arrival);
    bool completed_any = false;
    while (plan_pos < plan.steps().size() && now < next) {
      const core::Step& step = plan.steps()[plan_pos];
      if (step.end <= now) {
        ++plan_pos;
        continue;
      }
      const double bound = std::min(step.end, next);

      // Earliest completion crossing inside (now, bound]; crossings within
      // tolerance of the step end snap to it, so plans built from column
      // schedules complete exactly at their LP boundaries.
      double crossing = kInf;
      for (std::size_t i = 0; i < n; ++i) {
        if (live[i] == 0 || step.rates[i] <= tol.abs) {
          continue;
        }
        double t = now + remaining[i] / step.rates[i];
        if (t >= step.end - tol.slack(step.end)) {
          t = step.end;
        }
        crossing = std::min(crossing, t);
      }

      const double stop = std::min(crossing, bound);
      if (stop > now) {
        commit(now, stop, step.rates);
        const double len = stop - now;
        for (std::size_t i = 0; i < n; ++i) {
          if (live[i] != 0 && step.rates[i] > 0.0) {
            remaining[i] -= step.rates[i] * len;
          }
        }
        now = stop;
      }

      // Retire every task that crossed zero (ties complete together).
      for (std::size_t i = 0; i < n; ++i) {
        if (live[i] != 0 &&
            remaining[i] <= tol.slack(instance.task(i).volume)) {
          remaining[i] = 0.0;
          live[i] = 0;
          --alive_count;
          result.completions[i] = now;
          ++result.events;
          completed_any = true;
        }
      }

      if (now >= step.end) {
        ++plan_pos;
      }
      if (completed_any) {
        break;
      }
      MALSCHED_EXPECTS_MSG(stop > step.begin || stop == next,
                           "online replay stalled inside a plan step");
    }

    if (completed_any) {
      if (alive_count > 0 && policy.replan_on_completion()) {
        need_replan = true;
      }
      continue;
    }
    if (now >= next) {
      continue;  // admit the due arrivals at the top of the loop
    }
    if (plan_pos >= plan.steps().size() && alive_count > 0) {
      // Plan exhausted with work left: a policy that replans at completions
      // may plan only that far (replan.hpp), so ask it again.  The
      // iteration guard stops a policy that never finishes anything.
      need_replan = true;
    }
  }

  result.schedule = core::StepSchedule(n, std::move(committed));
  for (std::size_t i = 0; i < n; ++i) {
    result.weighted_completion +=
        instance.task(i).weight * result.completions[i];
    result.makespan = std::max(result.makespan, result.completions[i]);
  }
  return result;
}

}  // namespace malsched::online
