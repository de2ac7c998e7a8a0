#include "malsched/core/fluid.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "malsched/support/contracts.hpp"

namespace malsched::core {

FluidRun run_fluid(const Instance& instance, const FluidRates& rates_of,
                   const CancelToken& cancel, support::Tolerance tol) {
  const std::size_t n = instance.size();
  // Every event completes at least one task, so a well-behaved run needs at
  // most n events; the rest is margin for tolerance-induced re-shares
  // before the callback is declared stuck.
  const std::size_t max_events = 4 * n + 16;

  std::vector<double> widths(n);
  std::vector<double> remaining(n);
  std::vector<std::uint8_t> alive(n, 0);
  std::size_t alive_count = 0;
  for (std::size_t i = 0; i < n; ++i) {
    widths[i] = instance.effective_width(i);
    remaining[i] = instance.task(i).volume;
    if (remaining[i] > tol.abs) {
      alive[i] = 1;
      ++alive_count;
    }
  }

  FluidRun run;
  run.completions.assign(n, 0.0);
  std::vector<Step> steps;
  double now = 0.0;
  const bool poll_cancel = cancel.can_cancel();
  while (alive_count > 0) {
    if (poll_cancel && cancel.cancelled()) {
      run.cancelled = true;
      break;
    }
    MALSCHED_EXPECTS_MSG(run.events < max_events,
                         "allocation policy stopped making progress");
    const auto rates = rates_of(alive, remaining);
    MALSCHED_ENSURES(rates.size() == n);
    ++run.events;

    // Callbacks are trusted, but the checks are cheap.
    double used = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      MALSCHED_ENSURES(rates[i] >= -tol.abs);
      MALSCHED_ENSURES(rates[i] <= widths[i] + tol.slack(widths[i]));
      used += rates[i];
    }
    MALSCHED_ENSURES(used <=
                     instance.processors() + tol.slack(instance.processors()));

    // Time to the next completion among progressing tasks.
    double dt = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < n; ++i) {
      if (alive[i] && rates[i] > tol.abs) {
        dt = std::min(dt, remaining[i] / rates[i]);
      }
    }
    MALSCHED_EXPECTS_MSG(std::isfinite(dt),
                         "policy starves every remaining task");

    Step step;
    step.begin = now;
    step.end = now + dt;
    step.rates.assign(n, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
      if (!alive[i] || rates[i] <= tol.abs) {
        continue;
      }
      step.rates[i] = rates[i];
      remaining[i] -= rates[i] * dt;
      if (remaining[i] <= tol.slack(instance.task(i).volume)) {
        remaining[i] = 0.0;
        alive[i] = 0;
        --alive_count;
        run.completions[i] = now + dt;
      }
    }
    steps.push_back(std::move(step));
    now += dt;
  }

  run.schedule = StepSchedule(n, std::move(steps));
  for (std::size_t i = 0; i < n; ++i) {
    run.weighted_completion += instance.task(i).weight * run.completions[i];
  }
  return run;
}

}  // namespace malsched::core
