// E-BNB — the exact solver `optimal` (branch-and-bound at every n) vs the
// n! enumeration oracle of the test suite (tests/oracle/enumeration.hpp).
//
// Four sections:
//   1. head-to-head at oracle-feasible sizes (n = 6, 7): the same objective
//      bits, wall time side by side, and B&B's exact work counters (nodes,
//      LP evaluations, simplex pivots) against the oracle's n! LPs;
//   2. branch-and-bound scaling n = 8..12 across generator families —
//      where enumeration would need n! LP solves (40320 .. 479M), the
//      search reports its actual node/LP counts and the n!/LP ratio;
//   3. the pinned n = 12 fixture (uniform, seed 42) that the CI smoke job
//      replays with `--quick`: the wall-time ceiling turns an accidental
//      O(n!) regression (or a broken bound) into a red build;
//   4. the pinned structured n = 12 batch fixture for the tail cuts: two
//      interleaved identical-shape batches under geometric weight spreads,
//      solved cuts-on and cuts-off.  The CI gate requires >= 5x fewer
//      nodes with cuts on (measured ~97x) and bit-equal objectives — the
//      acceptance bar of the exchange-cut PR, replayed on every build.
//
// `--quick` (the CI smoke) runs sections 1, 3 and 4.  It fails when an
// objective loses bit parity with the oracle, a gate above fails, the n = 7
// speed-up over the oracle drops below a loose 10x floor, or any exact
// work counter rises above its pinned value (kCounterPins; checked at the
// default scale and seed only, where the instances are the pinned ones).
//
// Results land in BENCH_bnb.json (see bench_common.hpp) so the perf
// trajectory of the exact-serving path is machine-readable.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "malsched/core/bnb.hpp"
#include "malsched/core/generators.hpp"
#include "malsched/core/order_lp.hpp"
#include "malsched/support/stats.hpp"
#include "malsched/support/table.hpp"
#include "oracle/enumeration.hpp"

using namespace malsched;

namespace {

constexpr std::uint64_t kPinnedSeed = 42;  // the CI fixture below

/// Exact work counters at the default scale and seed (Release, x86-64).
/// They are deterministic, so `--quick` fails when any of them rises: a
/// change that makes the search or the simplex do more work must re-pin
/// them here on purpose.  Head-to-head counters are sums over the
/// scenario's instances.
struct CounterPin {
  const char* scenario;
  const char* metric;
  double ceiling;
};
constexpr CounterPin kCounterPins[] = {
    {"head_to_head_uniform_n6", "nodes", 158},
    {"head_to_head_uniform_n6", "lp_evaluations", 182},
    {"head_to_head_uniform_n6", "pivots", 1348},
    {"head_to_head_uniform_n7", "nodes", 362},
    {"head_to_head_uniform_n7", "lp_evaluations", 373},
    {"head_to_head_uniform_n7", "pivots", 1719},
    {"head_to_head_equal-weights_n6", "nodes", 458},
    {"head_to_head_equal-weights_n6", "lp_evaluations", 480},
    {"head_to_head_equal-weights_n6", "pivots", 2171},
    {"head_to_head_equal-weights_n7", "nodes", 709},
    {"head_to_head_equal-weights_n7", "lp_evaluations", 717},
    {"head_to_head_equal-weights_n7", "pivots", 2689},
    {"head_to_head_wide-tasks_n6", "nodes", 409},
    {"head_to_head_wide-tasks_n6", "lp_evaluations", 425},
    {"head_to_head_wide-tasks_n6", "pivots", 1002},
    {"head_to_head_wide-tasks_n7", "nodes", 2297},
    {"head_to_head_wide-tasks_n7", "lp_evaluations", 2304},
    {"head_to_head_wide-tasks_n7", "pivots", 3573},
    {"head_to_head_unit-width_n6", "nodes", 149},
    {"head_to_head_unit-width_n6", "lp_evaluations", 172},
    {"head_to_head_unit-width_n6", "pivots", 1618},
    {"head_to_head_unit-width_n7", "nodes", 571},
    {"head_to_head_unit-width_n7", "lp_evaluations", 580},
    {"head_to_head_unit-width_n7", "pivots", 4432},
    {"scaling_uniform_n8", "nodes", 306},
    {"scaling_uniform_n8", "lp_evaluations", 312},
    {"scaling_uniform_n8", "pivots", 1673},
    {"scaling_uniform_n9", "nodes", 1265},
    {"scaling_uniform_n9", "lp_evaluations", 1270},
    {"scaling_uniform_n9", "pivots", 6467},
    {"scaling_uniform_n10", "nodes", 2627},
    {"scaling_uniform_n10", "lp_evaluations", 2633},
    {"scaling_uniform_n10", "pivots", 15826},
    {"scaling_uniform_n11", "nodes", 4045},
    {"scaling_uniform_n11", "lp_evaluations", 4051},
    {"scaling_uniform_n11", "pivots", 23403},
    {"scaling_uniform_n12", "nodes", 15929},
    {"scaling_uniform_n12", "lp_evaluations", 15935},
    {"scaling_uniform_n12", "pivots", 113058},
    {"scaling_equal-weights_n10", "nodes", 13187},
    {"scaling_equal-weights_n10", "lp_evaluations", 13192},
    {"scaling_equal-weights_n10", "pivots", 125456},
    {"scaling_heavy-tail-volumes_n10", "nodes", 6169},
    {"scaling_heavy-tail-volumes_n10", "lp_evaluations", 6175},
    {"scaling_heavy-tail-volumes_n10", "pivots", 30579},
    {"pinned_uniform_n12", "nodes", 15929},
    {"pinned_uniform_n12", "lp_evaluations", 15935},
    {"pinned_uniform_n12", "pivots", 113058},
    {"structured_cuts_n12", "cuts_on_nodes", 286},
    {"structured_cuts_n12", "cuts_on_lp_evaluations", 292},
    {"structured_cuts_n12", "cuts_on_pivots", 1834},
    {"structured_cuts_n12", "cuts_off_nodes", 27745},
    {"structured_cuts_n12", "cuts_off_lp_evaluations", 27751},
    {"structured_cuts_n12", "cuts_off_pivots", 122625},
};

/// BenchJson plus a copy of every exact counter, for the pin check.
struct Ledger {
  bench::BenchJson json;
  std::map<std::string, double> counters;  ///< "scenario/metric" -> value

  void counter(const std::string& scenario, const std::string& metric,
               double value) {
    json.add(scenario, metric, value);
    counters[scenario + "/" + metric] = value;
  }
};

/// 0 when no pinned counter rose; prints every counter that did.
int check_counter_pins(const bench::BenchConfig& config, const Ledger& ledger) {
  if (config.scale != 1.0 || config.seed != bench::BenchConfig{}.seed) {
    std::printf("counter pins: skipped (non-default scale or seed)\n\n");
    return 0;
  }
  int risen = 0;
  for (const CounterPin& pin : kCounterPins) {
    const auto it =
        ledger.counters.find(std::string(pin.scenario) + "/" + pin.metric);
    if (it == ledger.counters.end()) {
      continue;  // section not run in this mode
    }
    if (it->second > pin.ceiling) {
      std::printf("counter pin FAIL: %s %s = %.0f > pinned %.0f\n",
                  pin.scenario, pin.metric, it->second, pin.ceiling);
      ++risen;
    }
  }
  std::printf("counter pins (nodes, LP evaluations, pivots never rise): %s\n\n",
              risen == 0 ? "PASS" : "FAIL");
  return risen == 0 ? 0 : 1;
}

core::Instance pinned_instance(std::size_t n, core::Family family,
                               std::uint64_t seed) {
  support::Rng rng(seed);
  core::GeneratorConfig config;
  config.family = family;
  config.num_tasks = n;
  config.processors = 4.0;
  return core::generate(config, rng);
}

double factorial(std::size_t n) {
  double f = 1.0;
  for (std::size_t k = 2; k <= n; ++k) {
    f *= static_cast<double>(k);
  }
  return f;
}

template <typename Fn>
double wall_seconds(Fn&& fn) {
  const auto start = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Section 1.  Returns nonzero when an objective loses bit parity with the
/// oracle or the n = 7 speed-up falls below its loose floor.
int run_head_to_head(const bench::BenchConfig& config, Ledger& ledger) {
  std::printf("1. optimal (B&B) vs the n! oracle (objectives must be bit-equal):\n");
  support::TextTable table({{"family", support::Align::Left},
                            {"n", support::Align::Right},
                            {"instances", support::Align::Right},
                            {"oracle ms", support::Align::Right},
                            {"b&b ms", support::Align::Right},
                            {"oracle LPs", support::Align::Right},
                            {"b&b LPs", support::Align::Right},
                            {"b&b pivots", support::Align::Right},
                            {"mismatch", support::Align::Right}});
  const core::Family families[] = {core::Family::Uniform,
                                   core::Family::EqualWeights,
                                   core::Family::WideTasks,
                                   core::Family::UnitWidth};
  double oracle_n7_seconds = 0.0;
  double bnb_n7_seconds = 0.0;
  std::size_t mismatches = 0;
  for (const core::Family family : families) {
    for (const std::size_t n : {std::size_t{6}, std::size_t{7}}) {
      const std::size_t instances = bench::scaled(n == 6 ? 5 : 2, config.scale);
      support::Rng rng(config.seed + n);
      support::Sample oracle_ms;
      support::Sample bnb_ms;
      double oracle_lps = 0.0;
      double nodes = 0.0;
      double bnb_lps = 0.0;
      double pivots = 0.0;
      std::size_t scenario_mismatches = 0;
      for (std::size_t rep = 0; rep < instances; ++rep) {
        core::GeneratorConfig generator;
        generator.family = family;
        generator.num_tasks = n;
        generator.processors = 4.0;
        const auto inst = core::generate(generator, rng);
        testing::EnumerationResult oracle;
        const double oracle_seconds =
            wall_seconds([&] { oracle = testing::enumerate_optimal(inst); });
        // B&B takes milliseconds here: the median of five runs steadies it.
        core::BnbResult bnb;
        support::Sample runs;
        for (int run = 0; run < 5; ++run) {
          runs.add(wall_seconds([&] { bnb = core::branch_and_bound(inst); }));
        }
        const double bnb_seconds = runs.median();
        oracle_ms.add(1e3 * oracle_seconds);
        bnb_ms.add(1e3 * bnb_seconds);
        if (n == 7) {
          oracle_n7_seconds += oracle_seconds;
          bnb_n7_seconds += bnb_seconds;
        }
        oracle_lps += static_cast<double>(oracle.orders_tried);
        nodes += static_cast<double>(bnb.stats.nodes);
        bnb_lps += static_cast<double>(bnb.stats.lp_evaluations);
        pivots += static_cast<double>(bnb.stats.pivots);
        if (bnb.objective != oracle.objective) {
          ++scenario_mismatches;
        }
      }
      mismatches += scenario_mismatches;
      table.add_row({core::family_name(family), support::fmt_int(static_cast<long long>(n)),
                     support::fmt_int(static_cast<long long>(instances)),
                     support::fmt_double(oracle_ms.mean()),
                     support::fmt_double(bnb_ms.mean()),
                     support::fmt_int(static_cast<long long>(oracle_lps)),
                     support::fmt_int(static_cast<long long>(bnb_lps)),
                     support::fmt_int(static_cast<long long>(pivots)),
                     support::fmt_int(static_cast<long long>(scenario_mismatches))});
      const std::string scenario = std::string("head_to_head_") +
                                   core::family_name(family) + "_n" +
                                   std::to_string(n);
      ledger.json.add(scenario, "oracle_wall_ns_p50", oracle_ms.quantile(0.5) * 1e6);
      ledger.json.add(scenario, "bnb_wall_ns_p50", bnb_ms.quantile(0.5) * 1e6);
      ledger.json.add(scenario, "bnb_wall_ns_p95", bnb_ms.quantile(0.95) * 1e6);
      ledger.json.add(scenario, "oracle_lp_evaluations", oracle_lps);
      ledger.counter(scenario, "nodes", nodes);
      ledger.counter(scenario, "lp_evaluations", bnb_lps);
      ledger.counter(scenario, "pivots", pivots);
      ledger.json.add(scenario, "objective_mismatches",
                      static_cast<double>(scenario_mismatches));
    }
  }
  std::printf("%s", table.to_string().c_str());
  const double speedup = oracle_n7_seconds / std::max(bnb_n7_seconds, 1e-12);
  ledger.json.add("head_to_head_n7", "speedup_over_oracle", speedup);
  const bool parity_ok = mismatches == 0;
  const bool speedup_ok = speedup >= 10.0;
  std::printf("n = 7: optimal %.0fx faster than the oracle (target >= 50x, "
              "floor 10x): %s;  bit parity: %s\n\n",
              speedup, speedup_ok ? "PASS" : "FAIL",
              parity_ok ? "PASS" : "FAIL");
  return parity_ok && speedup_ok ? 0 : 1;
}

void run_scaling(const bench::BenchConfig& config, Ledger& ledger) {
  std::printf("2. branch-and-bound scaling (enumeration would need n! LPs):\n");
  support::TextTable table({{"family", support::Align::Left},
                            {"n", support::Align::Right},
                            {"wall ms", support::Align::Right},
                            {"nodes", support::Align::Right},
                            {"leaves", support::Align::Right},
                            {"LP evals", support::Align::Right},
                            {"pivots", support::Align::Right},
                            {"n!/LPs", support::Align::Right}});
  const core::Family families[] = {core::Family::Uniform,
                                   core::Family::EqualWeights,
                                   core::Family::HeavyTailVolumes};
  for (const core::Family family : families) {
    for (std::size_t n = 8; n <= 12; ++n) {
      if (family != core::Family::Uniform && n != 10 && config.scale < 2.0) {
        // Uniform carries the full n = 8..12 sweep by default; the
        // structured families contribute only their n = 10 row (their
        // larger sizes are minutes of search — the bound is weakest there)
        // unless --full / MALSCHED_BENCH_SCALE >= 2 asks for everything.
        continue;
      }
      const auto inst = pinned_instance(n, family, kPinnedSeed);
      core::BnbResult result;
      const double seconds = wall_seconds(
          [&] { result = core::branch_and_bound(inst); });
      const double ratio =
          factorial(n) / static_cast<double>(result.stats.lp_evaluations);
      table.add_row({core::family_name(family),
                     support::fmt_int(static_cast<long long>(n)),
                     support::fmt_double(seconds * 1e3),
                     support::fmt_int(static_cast<long long>(result.stats.nodes)),
                     support::fmt_int(static_cast<long long>(result.stats.leaves)),
                     support::fmt_int(
                         static_cast<long long>(result.stats.lp_evaluations)),
                     support::fmt_int(static_cast<long long>(result.stats.pivots)),
                     support::fmt_double(ratio)});
      const std::string scenario = std::string("scaling_") +
                                   core::family_name(family) + "_n" +
                                   std::to_string(n);
      ledger.json.add(scenario, "wall_ns", seconds * 1e9);
      ledger.counter(scenario, "nodes", static_cast<double>(result.stats.nodes));
      ledger.json.add(scenario, "leaves", static_cast<double>(result.stats.leaves));
      ledger.counter(scenario, "lp_evaluations",
                     static_cast<double>(result.stats.lp_evaluations));
      ledger.counter(scenario, "pivots", static_cast<double>(result.stats.pivots));
      ledger.json.add(scenario, "factorial_over_lp", ratio);
      ledger.json.add(scenario, "objective", result.objective);
    }
  }
  std::printf("%s", table.to_string().c_str());
  std::printf("(12! = 4.79e8: the n = 12 rows above beat enumeration by the "
              "n!/LPs factor shown — the acceptance bar is >= 100x.)\n\n");
}

/// The CI smoke: solve the pinned uniform n = 12 instance once and fail
/// (exit 1) when the wall time exceeds the ceiling.  The ceiling is
/// deliberately generous — it exists to catch an accidental return to
/// factorial behaviour, not to benchmark the machine.  Tightened 60 → 30 s
/// once the tail-cut work landed: the fixture measures ~3.4 s RelWithDebInfo
/// on a 1-core container, so 30 s still leaves ~9x machine slack while
/// halving how much regression can hide under the gate.
int measure_pinned(Ledger& ledger) {
  double ceiling_seconds = 30.0;
  if (const char* env = std::getenv("MALSCHED_BNB_CEILING_SECONDS")) {
    ceiling_seconds = std::atof(env);
  }
  const auto inst = pinned_instance(12, core::Family::Uniform, kPinnedSeed);
  core::BnbResult result;
  const double seconds =
      wall_seconds([&] { result = core::branch_and_bound(inst); });
  const double ratio =
      factorial(12) / static_cast<double>(result.stats.lp_evaluations);

  auto& json = ledger.json;
  json.add("pinned_uniform_n12", "wall_ns", seconds * 1e9);
  ledger.counter("pinned_uniform_n12", "nodes",
                 static_cast<double>(result.stats.nodes));
  json.add("pinned_uniform_n12", "leaves",
           static_cast<double>(result.stats.leaves));
  ledger.counter("pinned_uniform_n12", "lp_evaluations",
                 static_cast<double>(result.stats.lp_evaluations));
  ledger.counter("pinned_uniform_n12", "pivots",
                 static_cast<double>(result.stats.pivots));
  json.add("pinned_uniform_n12", "us_per_node",
           seconds * 1e6 / static_cast<double>(std::max<std::size_t>(
                               1, result.stats.nodes)));
  json.add("pinned_uniform_n12", "factorial_over_lp", ratio);
  json.add("pinned_uniform_n12", "objective", result.objective);
  json.add("pinned_uniform_n12", "ceiling_seconds", ceiling_seconds);

  std::printf("pinned uniform n=12 (seed %llu): objective %.6f in %.2fs — "
              "%zu nodes, %zu LP evals, %zu pivots (n!/LPs = %.0fx, bar >= "
              "100x)\n",
              static_cast<unsigned long long>(kPinnedSeed), result.objective,
              seconds, result.stats.nodes, result.stats.lp_evaluations,
              result.stats.pivots, ratio);
  const bool time_ok = seconds <= ceiling_seconds;
  const bool ratio_ok = ratio >= 100.0;
  std::printf("ceiling %.0fs: %s;  LP-reduction bar: %s\n\n", ceiling_seconds,
              time_ok ? "PASS" : "FAIL (O(n!) regression?)",
              ratio_ok ? "PASS" : "FAIL");
  return time_ok && ratio_ok ? 0 : 1;
}

/// The structured tail-cut fixture: the same two-batch instance the core
/// test suite pins (tests/core/test_bnb.cpp, structured_batch_fixture) —
/// tall-narrow v=2/δ=1 and short-wide v=1/δ=4 batches of six on P=4,
/// geometric intra-batch weights.  Repeated shapes under heterogeneous
/// weights are the workload the identical-shape exchange cut exists for.
core::Instance structured_batch_instance() {
  std::vector<core::Task> tasks;
  for (int i = 0; i < 6; ++i) {
    tasks.push_back({2.0, 1.0, std::pow(2.0, i)});
    tasks.push_back({1.0, 4.0, 0.9 * std::pow(2.0, 5 - i)});
  }
  return core::Instance(4.0, std::move(tasks));
}

/// CI gate for the tail cuts: cuts-on must keep a >= 5x node advantage on
/// the structured fixture and return the bit-identical objective.
int measure_structured_cuts(Ledger& ledger) {
  const auto inst = structured_batch_instance();
  core::BnbOptions off;
  off.use_cuts = false;
  core::BnbResult with;
  core::BnbResult without;
  const double on_seconds =
      wall_seconds([&] { with = core::branch_and_bound(inst); });
  const double off_seconds =
      wall_seconds([&] { without = core::branch_and_bound(inst, off); });

  const double node_ratio = static_cast<double>(without.stats.nodes) /
                            static_cast<double>(std::max<std::size_t>(
                                1, with.stats.nodes));
  auto& json = ledger.json;
  json.add("structured_cuts_n12", "cuts_on_wall_ns", on_seconds * 1e9);
  json.add("structured_cuts_n12", "cuts_off_wall_ns", off_seconds * 1e9);
  for (const auto& [prefix, stats] :
       {std::pair{"cuts_on_", &with.stats}, std::pair{"cuts_off_", &without.stats}}) {
    const std::string p(prefix);
    ledger.counter("structured_cuts_n12", p + "nodes",
                   static_cast<double>(stats->nodes));
    ledger.counter("structured_cuts_n12", p + "lp_evaluations",
                   static_cast<double>(stats->lp_evaluations));
    ledger.counter("structured_cuts_n12", p + "pivots",
                   static_cast<double>(stats->pivots));
  }
  json.add("structured_cuts_n12", "node_ratio", node_ratio);
  json.add("structured_cuts_n12", "cut_prunes",
           static_cast<double>(with.stats.pruned_by_cut));
  json.add("structured_cuts_n12", "objective", with.objective);

  std::printf("structured batch n=12: cuts-on %zu nodes (%.2fs) vs cuts-off "
              "%zu nodes (%.2fs) — %.0fx\n",
              with.stats.nodes, on_seconds, without.stats.nodes, off_seconds,
              node_ratio);
  const bool ratio_ok = node_ratio >= 5.0;
  const bool parity_ok = with.objective == without.objective;
  std::printf("tail-cut gate (>= 5x fewer nodes, bit-equal objective): %s\n\n",
              ratio_ok && parity_ok ? "PASS" : "FAIL");
  return ratio_ok && parity_ok ? 0 : 1;
}

void bm_branch_and_bound(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto inst = pinned_instance(n, core::Family::Uniform, kPinnedSeed);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::branch_and_bound(inst).objective);
  }
}
BENCHMARK(bm_branch_and_bound)->Arg(8)->Arg(9)->Arg(10)->Unit(benchmark::kMillisecond);

void bm_order_lp_evaluator_push_pop(benchmark::State& state) {
  const auto inst = pinned_instance(10, core::Family::Uniform, kPinnedSeed);
  core::OrderLpEvaluator evaluator(inst);
  for (std::size_t t = 0; t + 1 < inst.size(); ++t) {
    evaluator.push(t, /*exact=*/false);
  }
  const std::size_t last = inst.size() - 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(evaluator.push(last, /*exact=*/false));
    evaluator.pop();
  }
}
BENCHMARK(bm_order_lp_evaluator_push_pop)->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  const auto config = bench::parse_config(argc, argv);
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    quick = quick || std::strcmp(argv[i], "--quick") == 0;
  }
  if (quick) {
    bench::print_banner("E-BNB (quick)",
                        "oracle head-to-head + pinned n=12 ceiling + tail-cut "
                        "gate + counter pins",
                        config);
  } else {
    bench::print_banner("E-BNB", "optimal (branch-and-bound) vs the n! oracle",
                        config);
  }
  Ledger ledger{bench::BenchJson("bnb", config), {}};
  int status = run_head_to_head(config, ledger);
  if (!quick) {
    run_scaling(config, ledger);
  }
  for (const int gate : {measure_pinned(ledger), measure_structured_cuts(ledger),
                         check_counter_pins(config, ledger)}) {
    status = status != 0 ? status : gate;
  }
  ledger.json.write();
  if (!quick && config.timing) {
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
  }
  return status;
}
