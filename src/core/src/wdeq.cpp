#include "malsched/core/wdeq.hpp"

#include "malsched/core/fluid.hpp"
#include "malsched/support/contracts.hpp"

namespace malsched::core {

std::vector<double> wdeq_shares(double processors,
                                std::span<const double> weights,
                                std::span<const double> widths,
                                std::span<const std::uint8_t> alive) {
  MALSCHED_EXPECTS(weights.size() == widths.size());
  MALSCHED_EXPECTS(weights.size() == alive.size());
  const std::size_t n = weights.size();
  std::vector<double> shares(n, 0.0);

  // Active = alive and not yet capped at δ.
  std::vector<std::uint8_t> active(alive.begin(), alive.end());
  double remaining_p = processors;
  double remaining_w = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    if (active[i]) {
      MALSCHED_EXPECTS_MSG(weights[i] > 0.0,
                           "WDEQ requires positive weights for alive tasks");
      remaining_w += weights[i];
    }
  }

  // Algorithm 1: while some active task's fair share exceeds its width,
  // pin it to the width and redistribute.  Each pass pins at least one task,
  // so at most n passes run.
  bool changed = true;
  while (changed && remaining_w > 0.0) {
    changed = false;
    for (std::size_t i = 0; i < n; ++i) {
      if (!active[i]) {
        continue;
      }
      const double fair = weights[i] * remaining_p / remaining_w;
      if (widths[i] < fair) {
        shares[i] = widths[i];
        active[i] = 0;
        remaining_p -= widths[i];
        remaining_w -= weights[i];
        changed = true;
      }
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (active[i]) {
      shares[i] = weights[i] * remaining_p / remaining_w;
    }
  }
  return shares;
}

std::vector<double> wdeq_shares(double processors,
                                std::span<const double> weights,
                                std::span<const double> widths) {
  const std::vector<std::uint8_t> alive(weights.size(), 1);
  return wdeq_shares(processors, weights, widths,
                     std::span<const std::uint8_t>(alive));
}

namespace {

/// Algorithm 1 to completion with the given weights, plus the Lemma-2 split
/// of each task's volume by whether its step ran it pinned at its width.
WdeqRun run_equipartition(const Instance& instance,
                          std::span<const double> weights,
                          support::Tolerance tol) {
  const std::size_t n = instance.size();
  std::vector<double> widths(n);
  for (std::size_t i = 0; i < n; ++i) {
    widths[i] = instance.effective_width(i);
  }
  auto fluid = run_fluid(
      instance,
      [&](std::span<const std::uint8_t> alive, std::span<const double>) {
        return wdeq_shares(instance.processors(), weights, widths, alive);
      },
      {}, tol);

  WdeqRun run;
  run.full_volume.assign(n, 0.0);
  run.limited_volume.assign(n, 0.0);
  for (const Step& step : fluid.schedule.steps()) {
    for (std::size_t i = 0; i < n; ++i) {
      const double processed = step.rates[i] * step.length();
      if (support::approx_eq(step.rates[i], widths[i], tol)) {
        run.full_volume[i] += processed;
      } else {
        run.limited_volume[i] += processed;
      }
    }
  }
  run.schedule = std::move(fluid.schedule);
  return run;
}

}  // namespace

WdeqRun run_wdeq(const Instance& instance, support::Tolerance tol) {
  std::vector<double> weights(instance.size());
  for (std::size_t i = 0; i < instance.size(); ++i) {
    weights[i] = instance.task(i).weight;
  }
  return run_equipartition(instance, weights, tol);
}

WdeqRun run_deq(const Instance& instance, support::Tolerance tol) {
  const std::vector<double> weights(instance.size(), 1.0);
  return run_equipartition(instance, weights, tol);
}

}  // namespace malsched::core
