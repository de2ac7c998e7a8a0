#pragma once

/// \file optimal.hpp
/// Exact optimum of MWCT-CB-F: Corollary 1 reduces the problem to choosing
/// the best completion order, and the branch-and-bound of bnb.hpp searches
/// that space exactly at every n.  This facade keeps the historical name
/// and result shape; the plain n! loop over all orders survives only as
/// the test-suite oracle (tests/oracle/enumeration.hpp), which the
/// branch-and-bound matches bit for bit on the objective (and on the order
/// wherever the optimal order is unique).

#include <vector>

#include "malsched/core/cancel.hpp"
#include "malsched/core/instance.hpp"
#include "malsched/core/order_lp.hpp"

namespace malsched::core {

struct OptimalOptions {
  /// Hard guard — branch-and-bound is worst-case exponential; 18 stays
  /// interactive single-thread with the mean-busy-time cuts.
  std::size_t max_tasks = 18;
  /// Also build the optimal schedule (slightly slower).
  bool want_schedule = false;
  /// Cooperative cancellation, polled at every branch-and-bound node.  A
  /// cancelled result carries `cancelled = true` and the best order seen
  /// so far.
  CancelToken cancel;
};

struct OptimalResult {
  double objective = 0.0;
  std::vector<std::size_t> order;    ///< the optimal completion order
  ColumnSchedule schedule;           ///< populated if want_schedule
  /// Complete orders the search reached (the branch-and-bound leaf count).
  std::size_t orders_tried = 0;
  /// True when OptimalOptions::cancel fired mid-search; objective/order are
  /// then the best seen so far, not the proven optimum.
  bool cancelled = false;
};

/// Exact optimum over all completion orders, by branch-and-bound.
[[nodiscard]] OptimalResult optimal_by_enumeration(
    const Instance& instance, const OptimalOptions& options = {});

}  // namespace malsched::core
