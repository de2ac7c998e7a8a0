#pragma once

/// \file enumeration.hpp
/// Test oracle for the exact optimum: solves the order LP of every one of
/// the n! completion orders and keeps the first strict minimum in
/// lexicographic order.  Corollary 1 makes this the ground truth by
/// definition, with no pruning to get wrong, which is what the
/// branch-and-bound behind `core::optimal_by_enumeration` is checked
/// against.  Factorial in n: keep n <= 7 (n = 7 is 5040 order LPs).

#include <algorithm>
#include <cstddef>
#include <limits>
#include <vector>

#include "malsched/core/cancel.hpp"
#include "malsched/core/instance.hpp"
#include "malsched/core/order_lp.hpp"
#include "malsched/core/orderings.hpp"

namespace malsched::testing {

struct EnumerationResult {
  double objective = 0.0;
  std::vector<std::size_t> order;  ///< first optimal order, lexicographically
  /// Orders whose objective has exactly the optimum's bits.  Above 1 the
  /// optimal order is not unique (e.g. the order-reversal symmetry of
  /// homogeneous instances), and any of them is a correct answer.
  std::size_t optimal_orders = 0;
  /// n! unless `cancelled`.
  std::size_t orders_tried = 0;
  /// The token fired (polled every 64 orders); objective/order are then
  /// the best seen so far.
  bool cancelled = false;
};

/// Minimum of `order_lp_objective` over all completion orders.
inline EnumerationResult enumerate_optimal(
    const core::Instance& instance, const core::CancelToken& cancel = {}) {
  EnumerationResult result;
  result.objective = std::numeric_limits<double>::infinity();
  const bool poll_cancel = cancel.can_cancel();
  auto order = core::identity_order(instance.size());
  do {
    if (poll_cancel && (result.orders_tried & 0x3F) == 0 &&
        cancel.cancelled()) {
      result.cancelled = true;
      break;
    }
    const double objective = core::order_lp_objective(instance, order);
    ++result.orders_tried;
    if (objective < result.objective) {
      result.objective = objective;
      result.order = order;
      result.optimal_orders = 1;
    } else if (objective == result.objective) {
      ++result.optimal_orders;
    }
  } while (std::next_permutation(order.begin(), order.end()));
  return result;
}

}  // namespace malsched::testing
