#include "malsched/core/optimal.hpp"

#include "malsched/core/bnb.hpp"
#include "malsched/support/contracts.hpp"

namespace malsched::core {

OptimalResult optimal_by_enumeration(const Instance& instance,
                                     const OptimalOptions& options) {
  MALSCHED_EXPECTS_MSG(instance.size() <= options.max_tasks,
                       "optimal is worst-case factorial in n (branch-and-bound "
                       "over completion orders); raise "
                       "OptimalOptions::max_tasks deliberately");
  BnbOptions bnb_options;
  bnb_options.max_tasks = options.max_tasks;
  bnb_options.want_schedule = options.want_schedule;
  bnb_options.cancel = options.cancel;
  auto bnb = branch_and_bound(instance, bnb_options);
  OptimalResult result;
  result.objective = bnb.objective;
  result.order = std::move(bnb.order);
  result.schedule = std::move(bnb.schedule);
  result.orders_tried = bnb.stats.leaves;
  result.cancelled = bnb.cancelled;
  return result;
}

}  // namespace malsched::core
