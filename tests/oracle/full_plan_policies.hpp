#pragma once

/// \file full_plan_policies.hpp
/// Test oracle for the online replan policies: wsew-replan and wdeq-replan
/// as full-suffix planners.  Each replan builds the whole plan to the last
/// completion of the live set — a greedy StepSchedule in WSEW order
/// normalized by Water-Filling, or a fresh run_wdeq — and lifts every step
/// to the trace's task ids and absolute time.  The clock replans at the
/// next completion anyway and executes only the first step, which is what
/// lets src/online plan only that far.  Replays under these policies must
/// equal replays under the shipped ones bit for bit.  O(k² log k) per
/// replan: fine for tests, too slow to serve.

#include <algorithm>
#include <cstddef>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "malsched/core/greedy.hpp"
#include "malsched/core/instance.hpp"
#include "malsched/core/schedule.hpp"
#include "malsched/core/water_filling.hpp"
#include "malsched/core/wdeq.hpp"
#include "malsched/online/replan.hpp"

namespace malsched::testing {

/// The live tasks as a subinstance over remaining volumes, plus the id
/// mapping back to the trace (ids[k] = trace id of sub task k).
struct FullPlanLiveView {
  core::Instance sub;
  std::vector<std::size_t> ids;
};

inline FullPlanLiveView full_plan_live_view(const online::ReplanContext& ctx) {
  std::vector<core::Task> tasks;
  std::vector<std::size_t> ids;
  for (std::size_t i = 0; i < ctx.instance->size(); ++i) {
    if (ctx.live[i] != 0) {
      core::Task t = ctx.instance->task(i);
      t.volume = ctx.remaining[i];
      tasks.push_back(t);
      ids.push_back(i);
    }
  }
  return FullPlanLiveView{
      core::Instance(ctx.instance->processors(), std::move(tasks)),
      std::move(ids)};
}

/// Shifts a compact plan (times from 0) to absolute time `now` and widens
/// its rate vectors back to the trace's task ids.
inline core::StepSchedule full_plan_lift(const core::StepSchedule& sub,
                                         const std::vector<std::size_t>& ids,
                                         std::size_t num_tasks, double now) {
  std::vector<core::Step> steps;
  steps.reserve(sub.steps().size());
  for (const core::Step& s : sub.steps()) {
    core::Step out;
    out.begin = now + s.begin;
    out.end = now + s.end;
    out.rates.assign(num_tasks, 0.0);
    for (std::size_t k = 0; k < ids.size(); ++k) {
      out.rates[ids[k]] = s.rates[k];
    }
    steps.push_back(std::move(out));
  }
  return core::StepSchedule(num_tasks, std::move(steps));
}

/// w / remaining descending, ties by trace id.
inline std::vector<std::size_t> full_plan_wsew_order(
    const FullPlanLiveView& view) {
  std::vector<std::size_t> order(view.sub.size());
  for (std::size_t k = 0; k < order.size(); ++k) {
    order[k] = k;
  }
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const core::Task& ta = view.sub.task(a);
    const core::Task& tb = view.sub.task(b);
    const double lhs = ta.weight * tb.volume;
    const double rhs = tb.weight * ta.volume;
    if (lhs != rhs) {
      return lhs > rhs;
    }
    return view.ids[a] < view.ids[b];
  });
  return order;
}

/// WSEW: greedy StepSchedule, its completions, Water-Filling, every column.
/// `replan_on_completion` false gives exact-replan's fallback beyond its
/// size guard.
class FullPlanWsewPolicy final : public online::ReplanPolicy {
 public:
  explicit FullPlanWsewPolicy(bool replan_on_completion = true)
      : replan_on_completion_(replan_on_completion) {}

  [[nodiscard]] std::string name() const override {
    return "full-plan-wsew";
  }
  [[nodiscard]] bool replan_on_completion() const override {
    return replan_on_completion_;
  }

  [[nodiscard]] core::StepSchedule replan(
      const online::ReplanContext& ctx) override {
    const FullPlanLiveView view = full_plan_live_view(ctx);
    if (view.sub.size() == 0) {
      return core::StepSchedule(ctx.instance->size(), {});
    }
    const auto order = full_plan_wsew_order(view);
    const auto greedy = core::greedy_schedule(view.sub, order);
    const auto completions = greedy.completions();
    const auto normal = core::water_fill(view.sub, completions);
    const core::StepSchedule sub_steps =
        normal.feasible ? core::to_steps(normal.schedule) : greedy;
    return full_plan_lift(sub_steps, view.ids, ctx.instance->size(), ctx.now);
  }

 private:
  bool replan_on_completion_;
};

/// WDEQ: a fresh run_wdeq over the remaining subinstance, every step.
class FullPlanWdeqPolicy final : public online::ReplanPolicy {
 public:
  [[nodiscard]] std::string name() const override {
    return "full-plan-wdeq";
  }

  [[nodiscard]] core::StepSchedule replan(
      const online::ReplanContext& ctx) override {
    const FullPlanLiveView view = full_plan_live_view(ctx);
    if (view.sub.size() == 0) {
      return core::StepSchedule(ctx.instance->size(), {});
    }
    const auto run = core::run_wdeq(view.sub);
    return full_plan_lift(run.schedule, view.ids, ctx.instance->size(),
                          ctx.now);
  }
};

}  // namespace malsched::testing
