#include "malsched/sim/engine.hpp"

#include <vector>

namespace malsched::sim {

EngineResult run_policy(const core::Instance& instance,
                        const AllocationPolicy& policy,
                        const EngineOptions& options) {
  const std::size_t n = instance.size();
  std::vector<double> weights(n);
  std::vector<double> widths(n);
  for (std::size_t i = 0; i < n; ++i) {
    weights[i] = instance.task(i).weight;
    widths[i] = instance.effective_width(i);
  }
  const bool clairvoyant = policy.clairvoyant();
  return core::run_fluid(
      instance,
      [&](std::span<const std::uint8_t> alive,
          std::span<const double> remaining) {
        PolicyContext context;
        context.processors = instance.processors();
        context.weights = weights;
        context.widths = widths;
        context.alive = alive;
        if (clairvoyant) {
          context.remaining = remaining;
        }
        return policy.allocate(context);
      },
      options.cancel, options.tol);
}

}  // namespace malsched::sim
