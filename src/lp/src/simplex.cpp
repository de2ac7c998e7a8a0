#include "malsched/lp/detail/simplex_impl.hpp"
#include "malsched/lp/solver.hpp"

namespace malsched::lp {

const char* to_string(SolveStatus status) noexcept {
  switch (status) {
    case SolveStatus::Optimal:
      return "optimal";
    case SolveStatus::Infeasible:
      return "infeasible";
    case SolveStatus::Unbounded:
      return "unbounded";
    case SolveStatus::IterationLimit:
      return "iteration-limit";
  }
  return "?";
}

Solution solve(const Model& model, const SimplexOptions& options) {
  detail::DenseSimplex<double> simplex(model, options);
  const auto raw = simplex.run();
  if (raw.phase1_drift) {
    // Tolerance drift made phase 1 look unbounded; the exact kernel cannot
    // drift, so it settles the model once and the answer is rounded back.
    const auto exact = solve_exact(model, options);
    Solution out{exact.status, exact.objective.to_double(), {},
                 raw.iterations + exact.iterations};
    for (const auto& value : exact.values) {
      out.values.push_back(value.to_double());
    }
    return out;
  }
  Solution out;
  out.status = raw.status;
  out.objective = raw.objective;
  out.values = raw.values;
  out.iterations = raw.iterations;
  return out;
}

}  // namespace malsched::lp
