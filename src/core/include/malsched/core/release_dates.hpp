#pragma once

/// \file release_dates.hpp
/// Release-date variants of the malleable model — the Table I rows
/// `P|var;V_i/q,δ_i,r_i|Cmax` (Drozdowski [10]) and `...|Lmax` ([2]).
///
/// With windows [r_i, d_i], slice time at the sorted release/deadline
/// events; within a slice every allocation is exchangeable, so feasibility
/// is exactly a bipartite transportation problem:
///
///     source --V_i--> task i --δ_i·len_j--> slice j --P·len_j--> sink
///     (edge task->slice present iff  [slice_j] ⊆ [r_i, d_i])
///
/// which the flow substrate (Dinic) saturates iff a schedule exists.  Cmax
/// and Lmax then reduce to monotone bisection on the deadline shift.  With
/// all r_i = 0 this agrees with the Water-Filling feasibility test — a
/// cross-validation the tests exploit.

#include <span>

#include "malsched/core/instance.hpp"
#include "malsched/core/schedule.hpp"

namespace malsched::core {

/// Can each task i be executed within its window [release[i], deadline[i]]?
[[nodiscard]] bool released_feasible(const Instance& instance,
                                     std::span<const double> release,
                                     std::span<const double> deadlines,
                                     support::Tolerance tol = {});

/// Extracts an explicit schedule when feasible (constant rates per slice).
struct ReleasedScheduleResult {
  bool feasible = false;
  StepSchedule schedule;  ///< valid only when feasible
};
[[nodiscard]] ReleasedScheduleResult released_schedule(
    const Instance& instance, std::span<const double> release,
    std::span<const double> deadlines, support::Tolerance tol = {});

/// Minimal makespan with release dates (bisection on a common deadline).
struct ReleasedMakespanResult {
  double makespan = 0.0;
  std::size_t iterations = 0;
};
[[nodiscard]] ReleasedMakespanResult released_optimal_makespan(
    const Instance& instance, std::span<const double> release,
    double precision = 1e-9);

/// Minimal maximum lateness with release dates and due dates.
struct ReleasedLmaxResult {
  double lmax = 0.0;
  std::size_t iterations = 0;
};
[[nodiscard]] ReleasedLmaxResult released_minimize_lmax(
    const Instance& instance, std::span<const double> release,
    std::span<const double> due_dates, double precision = 1e-9);

/// Simple lower bound on the released makespan:
/// max( max_i (r_i + V_i/δ_i_eff),  max over release levels r of
///      r + (volume released at or after r) / P ).
[[nodiscard]] double released_makespan_lower_bound(
    const Instance& instance, std::span<const double> release);

/// Certified lower bound on min Σ w_i C_i when task i is only available
/// from release[i] on:
///   max( A(I),  H(I),  Σ_i w_i · (r_i + V_i/δ_i_eff) )
/// — the release-free bounds of Definitions 5/6 stay valid (releases only
/// shrink the feasible set) and the third term adds the release offsets.
/// With all r_i = 0 this equals max(A(I), H(I)) bit-for-bit (the third term
/// degenerates to H(I)).
[[nodiscard]] double released_weighted_completion_lower_bound(
    const Instance& instance, std::span<const double> release);

}  // namespace malsched::core
