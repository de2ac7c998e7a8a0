#pragma once

/// \file common.hpp
/// Shared plumbing of the benchmark driver: command-line arguments, the
/// metric report every workload fills, latency statistics and input
/// generators used by more than one workload.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "malsched/core/instance.hpp"
#include "malsched/service/solver_registry.hpp"
#include "malsched/support/rng.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Tiny inputs and a short run: checks that every metric is printed.
  bool smoke = false;
  /// Directory for span dumps; empty = do not write spans.
  std::string out_dir;
};

/// Everything a run prints: checks, failure accounting and named metrics.
class Report {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  [[nodiscard]] bool has(const std::string& name) const;

  /// Marks the run's outputs wrong; the reason is printed.
  void check_failed(const std::string& reason);
  /// Counts one typed request failure under "solver/code".
  void count_failure(const std::string& solver, const std::string& code);
  void note(const std::string& line) { notes_.push_back(line); }

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  /// Prints notes, failure counts and the final JSON line.  Only the
  /// metrics named in `wanted` are emitted, in that order; a wanted metric
  /// the run did not produce is a bug and fails the run.
  void print(const std::vector<std::string>& wanted) const;

  [[nodiscard]] bool correct() const { return correct_; }

 private:
  struct Entry {
    double value = 0.0;
    std::string unit;
  };
  std::map<std::string, Entry> metrics_;
  std::map<std::string, std::uint64_t> failures_;
  std::vector<std::string> notes_;
  bool correct_ = true;
};

/// The highest percentile that still has ten samples beyond it: the
/// eleventh-largest value.  `percentile` names it; `samples` is the count
/// the figure rests on.
struct Tail {
  double value = 0.0;
  double percentile = 0.0;
  std::size_t samples = 0;
};

[[nodiscard]] double median_of(std::vector<double> values);
[[nodiscard]] double mean_of(const std::vector<double>& values);
[[nodiscard]] Tail tail_of(std::vector<double> values);
/// The median of the ten-beyond tails of consecutive windows of at least
/// 1 000 samples (one window when there are fewer than 2 000); `percentile`
/// and `samples` describe one window.  `windows` receives the count.
[[nodiscard]] Tail windowed_tail(const std::vector<double>& values,
                                 std::size_t* windows = nullptr);

/// Peak resident set of this process, MiB.
[[nodiscard]] double self_peak_rss_mb();
/// Peak resident set of another live process (VmHWM), MiB; 0 if unknown.
[[nodiscard]] double process_peak_rss_mb(int pid);

/// Runs `setup` `times` times and returns its median wall seconds.
/// `teardown`, untimed, drops the previous set-up's state before each
/// repeat; the last set-up's state is the one the run keeps.
[[nodiscard]] double median_setup_seconds(int times,
                                          const std::function<void()>& teardown,
                                          const std::function<void()>& setup);

/// Calls `body(i)` over items 0, 1, ... until `budget` seconds passed,
/// after at least one call.  With `wrap`, it runs at least one full round
/// and wraps around while time is left; without, it stops at the last
/// item.  Returns the number of calls.
template <typename Body>
std::size_t for_budget(std::size_t items, double budget, Body&& body, bool wrap = true) {
  const auto start = Clock::now();
  std::size_t calls = 0;
  for (std::size_t i = 0; items > 0; i = (i + 1) % items) {
    body(i);
    ++calls;
    const bool round_done = calls >= items;
    if ((round_done || !wrap) && seconds_between(start, Clock::now()) >= budget) {
      break;
    }
    if (round_done && !wrap) {
      break;
    }
  }
  return calls;
}

/// Fills latency_p50_ms and latency_tail_ms (with `suffix`, e.g. ".peak")
/// from per-request latencies in seconds.
void report_latency(Report& report, const std::vector<double>& seconds,
                    const std::string& label, const std::string& suffix = "");

/// §V-uniform instance: V, w ~ U(0,1), δ ~ U(0,P).
[[nodiscard]] malsched::core::Instance uniform_instance(
    std::size_t n, double processors, malsched::support::Rng& rng);

/// The same work in fresh units and a fresh task order: volumes and weights
/// rescaled by continuous factors, tasks shuffled.
[[nodiscard]] malsched::core::Instance represent(
    const malsched::core::Instance& base, malsched::support::Rng& rng);

/// Relative agreement of two doubles within `tol`.
[[nodiscard]] bool close_rel(double a, double b, double tol);

/// True when `got` matches a fresh uncached solve: same success side, same
/// objective and completions within 1e-9 relative, or the same typed error.
[[nodiscard]] bool same_answer(const malsched::service::SolveResult& got,
                               const malsched::service::SolveResult& want);
/// How two answers differ, for a failed check's message.
[[nodiscard]] std::string describe_difference(
    const malsched::service::SolveResult& got,
    const malsched::service::SolveResult& want);

}  // namespace perfbench
