#pragma once

/// \file wdeq.hpp
/// WDEQ — Weighted Dynamic EQuipartition (paper Algorithm 1, Theorem 4).
///
/// The non-clairvoyant online policy: at every instant share the P
/// processors among alive tasks proportionally to their weights; tasks whose
/// share would exceed their width δ_i are capped at δ_i and the surplus is
/// re-shared among the rest (a fixed point reached by the loop of
/// Algorithm 1).  Shares change only when a task completes, so the schedule
/// is piecewise constant with at most n steps.
///
/// Theorem 4: the resulting Σ w_i C_i is at most twice the optimum.  The
/// proof (Lemma 2) splits each task's processed volume into the part done at
/// full allocation (d_i = δ_i) and the part done while limited by the
/// equipartition; `WdeqRun` reports that split so the bound
/// TC ≤ 2·(A(I[limited]) + H(I[full])) is checkable verbatim.

#include <cstdint>
#include <span>
#include <vector>

#include "malsched/core/instance.hpp"
#include "malsched/core/schedule.hpp"

namespace malsched::core {

/// One round of Algorithm 1: the stationary share vector for the given
/// weights/widths on P processors.  Entries of `alive` that are zero get
/// share 0 (std::uint8_t mask because std::vector<bool> cannot back a
/// span).  Weights must be positive for alive tasks.
[[nodiscard]] std::vector<double> wdeq_shares(double processors,
                                              std::span<const double> weights,
                                              std::span<const double> widths,
                                              std::span<const std::uint8_t> alive);

/// Convenience overload: all tasks alive.
[[nodiscard]] std::vector<double> wdeq_shares(double processors,
                                              std::span<const double> weights,
                                              std::span<const double> widths);

struct WdeqRun {
  StepSchedule schedule;
  /// VF_i: volume processed while running at full allocation (d_i = δ_i).
  std::vector<double> full_volume;
  /// V̄F_i: volume processed while limited by the equipartition (d_i < δ_i).
  std::vector<double> limited_volume;
};

/// Simulates WDEQ to completion on the fluid loop (fluid.hpp), with
/// wdeq_shares as the rate callback.  Non-clairvoyant: the policy itself
/// never reads volumes; the simulation uses them only to locate completion
/// events.
[[nodiscard]] WdeqRun run_wdeq(const Instance& instance,
                               support::Tolerance tol = {});

/// DEQ (Deng et al.): the unweighted special case, i.e. WDEQ with all
/// weights forced to 1.
[[nodiscard]] WdeqRun run_deq(const Instance& instance,
                              support::Tolerance tol = {});

}  // namespace malsched::core
