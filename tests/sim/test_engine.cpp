#include "malsched/sim/engine.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <cstring>
#include <functional>
#include <map>
#include <set>
#include <string>

#include "malsched/core/generators.hpp"
#include "malsched/core/wdeq.hpp"
#include "malsched/sim/policy.hpp"

namespace mc = malsched::core;
namespace msim = malsched::sim;
namespace ms = malsched::support;

namespace {

void expect_same_steps(const mc::StepSchedule& a, const mc::StepSchedule& b,
                       const std::string& label) {
  ASSERT_EQ(a.steps().size(), b.steps().size()) << label;
  for (std::size_t k = 0; k < a.steps().size(); ++k) {
    EXPECT_EQ(a.steps()[k].begin, b.steps()[k].begin) << label << " step " << k;
    EXPECT_EQ(a.steps()[k].end, b.steps()[k].end) << label << " step " << k;
    EXPECT_EQ(a.steps()[k].rates, b.steps()[k].rates) << label << " step " << k;
  }
}

}  // namespace

TEST(Engine, WdeqPolicyMatchesCoreWdeq) {
  // The generic engine running the WDEQ (DEQ) policy must reproduce core's
  // WDEQ (DEQ) simulation bit for bit: steps and completions alike.
  ms::Rng rng(211);
  for (int rep = 0; rep < 20; ++rep) {
    mc::GeneratorConfig config;
    config.family = mc::Family::Uniform;
    config.num_tasks = 6;
    config.processors = 3.0;
    const auto inst = mc::generate(config, rng);
    const std::string label = "rep " + std::to_string(rep);

    const auto engine = msim::run_policy(inst, *msim::make_wdeq_policy());
    const auto direct = mc::run_wdeq(inst);
    expect_same_steps(engine.schedule, direct.schedule, "wdeq " + label);
    EXPECT_EQ(engine.completions, direct.schedule.completions()) << label;

    const auto engine_deq = msim::run_policy(inst, *msim::make_deq_policy());
    const auto direct_deq = mc::run_deq(inst);
    expect_same_steps(engine_deq.schedule, direct_deq.schedule,
                      "deq " + label);
    EXPECT_EQ(engine_deq.completions, direct_deq.schedule.completions())
        << label;
  }
}

TEST(Engine, SchedulesAreValidForAllPolicies) {
  ms::Rng rng(223);
  for (const auto& policy : msim::all_policies()) {
    for (int rep = 0; rep < 10; ++rep) {
      mc::GeneratorConfig config;
      config.family = mc::Family::Uniform;
      config.num_tasks = 6;
      config.processors = 2.0;
      const auto inst = mc::generate(config, rng);
      const auto result = msim::run_policy(inst, *policy);
      const auto check = result.schedule.validate(inst);
      EXPECT_TRUE(check.valid)
          << policy->name() << " rep " << rep << ": " << check.message;
      EXPECT_LE(result.events, inst.size() + 1) << policy->name();
    }
  }
}

TEST(Engine, WeightedCompletionConsistent) {
  ms::Rng rng(227);
  mc::GeneratorConfig config;
  config.family = mc::Family::Uniform;
  config.num_tasks = 5;
  config.processors = 2.0;
  const auto inst = mc::generate(config, rng);
  for (const auto& policy : msim::all_policies()) {
    const auto result = msim::run_policy(inst, *policy);
    EXPECT_NEAR(result.weighted_completion,
                result.schedule.weighted_completion(inst), 1e-7)
        << policy->name();
  }
}

TEST(Engine, SmithGreedyBeatsFifoOnSkewedWeights) {
  // A clairvoyant priority policy should dominate rigid FCFS on instances
  // with a heavy short task stuck behind a long one.
  const mc::Instance inst(2.0, {{4.0, 2.0, 0.1},    // long, unimportant
                                {0.2, 2.0, 10.0}});  // short, critical
  const auto smith = msim::run_policy(inst, *msim::make_smith_greedy_policy());
  const auto fifo = msim::run_policy(inst, *msim::make_fifo_rigid_policy());
  EXPECT_LT(smith.weighted_completion, fifo.weighted_completion);
}

TEST(Engine, FifoRigidIsSequentialForFullWidthTasks) {
  const mc::Instance inst(2.0, {{2.0, 2.0, 1.0}, {2.0, 2.0, 1.0}});
  const auto result = msim::run_policy(inst, *msim::make_fifo_rigid_policy());
  EXPECT_NEAR(result.completions[0], 1.0, 1e-9);
  EXPECT_NEAR(result.completions[1], 2.0, 1e-9);
}

TEST(Engine, WrrWastesSurplusUnlikeWdeq) {
  // One narrow task and one wide: WDEQ redistributes the narrow task's
  // surplus, WRR does not, so WDEQ finishes the wide task earlier.
  const mc::Instance inst(4.0, {{1.0, 1.0, 1.0}, {4.0, 4.0, 1.0}});
  const auto wdeq = msim::run_policy(inst, *msim::make_wdeq_policy());
  const auto wrr = msim::run_policy(inst, *msim::make_wrr_policy());
  EXPECT_LT(wdeq.completions[1], wrr.completions[1] - 1e-9);
}

TEST(Engine, RigidDeadlockGuard) {
  // First task wider than P can never fit "rigidly": the guard lets it run
  // malleably instead of hanging.
  const mc::Instance inst(2.0, {{4.0, 3.0, 1.0}});
  const auto result = msim::run_policy(inst, *msim::make_fifo_rigid_policy());
  EXPECT_NEAR(result.completions[0], 2.0, 1e-9);
}

TEST(Engine, EmptyInstanceProducesEmptyResult) {
  // The service layer forwards arbitrary client instances; zero tasks must
  // be a no-op for every policy, not a crash.
  const mc::Instance empty(2.0, {});
  for (const auto& policy : msim::all_policies()) {
    const auto result = msim::run_policy(empty, *policy);
    EXPECT_EQ(result.events, 0u) << policy->name();
    EXPECT_EQ(result.weighted_completion, 0.0) << policy->name();
    EXPECT_TRUE(result.completions.empty()) << policy->name();
    EXPECT_TRUE(result.schedule.steps().empty()) << policy->name();
  }
}

TEST(Engine, EventCountStaysWithinDefaultMaxEvents) {
  // core::run_fluid aborts a run that needs more than 4n + 16 events; every
  // built-in policy must fit that guard with margin across families.
  ms::Rng rng(229);
  for (const auto& policy : msim::all_policies()) {
    for (const auto family :
         {mc::Family::Uniform, mc::Family::BandwidthLike,
          mc::Family::HeavyTailVolumes}) {
      for (int rep = 0; rep < 5; ++rep) {
        mc::GeneratorConfig config;
        config.family = family;
        config.num_tasks = 8;
        config.processors = 4.0;
        const auto inst = mc::generate(config, rng);

        const auto result = msim::run_policy(inst, *policy);
        EXPECT_LE(result.events, 4 * inst.size() + 16) << policy->name();
      }
    }
  }
}

TEST(EngineDeathTest, StarvingPolicyTripsTheSafetyValve) {
  // A policy that never allocates anything makes no progress; the engine
  // must abort with a diagnostic instead of spinning forever.
  class StarvingPolicy final : public msim::AllocationPolicy {
   public:
    [[nodiscard]] std::string name() const override { return "starve"; }
    [[nodiscard]] std::vector<double> allocate(
        const msim::PolicyContext& context) const override {
      return std::vector<double>(context.weights.size(), 0.0);
    }
  };
  const mc::Instance inst(2.0, {{1.0, 1.0, 1.0}});
  EXPECT_DEATH((void)msim::run_policy(inst, StarvingPolicy()), "starves");
}

TEST(Engine, PreCancelledTokenAbortsBeforeTheFirstEvent) {
  const mc::Instance inst(2.0, {{2.0, 2.0, 1.0}, {1.0, 1.0, 1.0}});
  mc::CancelSource source;
  source.request_cancel();
  msim::EngineOptions options;
  options.cancel = source.token();
  const auto result =
      msim::run_policy(inst, *msim::make_wdeq_policy(), options);
  EXPECT_TRUE(result.cancelled);
  EXPECT_EQ(result.events, 0u);
  for (const double completion : result.completions) {
    EXPECT_EQ(completion, 0.0);  // partial trace: nothing finished
  }
}

TEST(Engine, UnfiredTokenChangesNothing) {
  const mc::Instance inst(2.0, {{2.0, 2.0, 1.0}, {1.0, 1.0, 1.0}});
  mc::CancelSource source;
  msim::EngineOptions options;
  options.cancel = source.token();
  const auto with_token =
      msim::run_policy(inst, *msim::make_wdeq_policy(), options);
  const auto without = msim::run_policy(inst, *msim::make_wdeq_policy());
  EXPECT_FALSE(with_token.cancelled);
  EXPECT_EQ(with_token.weighted_completion, without.weighted_completion);
  EXPECT_EQ(with_token.events, without.events);
}

TEST(Engine, ExpiredDeadlineTokenAbortsTheRun) {
  const mc::Instance inst(4.0, {{2.0, 2.0, 1.0}, {1.0, 1.0, 1.0}});
  msim::EngineOptions options;
  options.cancel = mc::CancelToken::with_deadline(
      std::chrono::steady_clock::now() - std::chrono::seconds(1));
  const auto result =
      msim::run_policy(inst, *msim::make_wdeq_policy(), options);
  EXPECT_TRUE(result.cancelled);
}

TEST(Engine, PolicyNamesAreDistinct) {
  std::set<std::string> names;
  for (const auto& policy : msim::all_policies()) {
    names.insert(policy->name());
  }
  EXPECT_EQ(names.size(), 5u);
}

namespace {

std::uint64_t fnv1a_double(std::uint64_t h, double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  for (int b = 0; b < 8; ++b) {
    h ^= (bits >> (8 * b)) & 0xffu;
    h *= 1099511628211ULL;
  }
  return h;
}

std::uint64_t fluid_hash(std::uint64_t h, const mc::StepSchedule& schedule,
                         const std::vector<double>& completions) {
  h = fnv1a_double(h, static_cast<double>(schedule.steps().size()));
  for (const auto& step : schedule.steps()) {
    h = fnv1a_double(h, step.begin);
    h = fnv1a_double(h, step.end);
    for (const double rate : step.rates) {
      h = fnv1a_double(h, rate);
    }
  }
  for (const double c : completions) {
    h = fnv1a_double(h, c);
  }
  return h;
}

std::uint64_t sweep_hash(
    const std::function<std::uint64_t(std::uint64_t, const mc::Instance&)>&
        run) {
  std::uint64_t h = 14695981039346656037ULL;
  for (const auto family : {mc::Family::Uniform, mc::Family::BandwidthLike,
                            mc::Family::HeavyTailVolumes}) {
    ms::Rng rng(20120521);
    for (std::size_t n = 2; n <= 35; n += 3) {
      mc::GeneratorConfig config;
      config.family = family;
      config.num_tasks = n;
      config.processors = 4.0;
      h = run(h, mc::generate(config, rng));
    }
  }
  return h;
}

}  // namespace

// Pins the exact steps and completions of every fluid simulation — core's
// run_wdeq / run_deq and the engine under each built-in policy — on a seeded
// sweep over three generator families (n = 2..35, P = 4).  Any change to the
// event loop that moves a single bit fails here; a deliberate change to the
// simulated schedules must update the constants.  The WDEQ and DEQ policies
// hash equal to run_wdeq and run_deq: the same simulation.
TEST(FluidGoldenHash, SeedStableOutputs) {
  const std::uint64_t wdeq_hash = 0x8d7f45a6ef7d5defULL;
  const std::uint64_t deq_hash = 0x349f61133985488aULL;
  EXPECT_EQ(sweep_hash([](std::uint64_t h, const mc::Instance& inst) {
              const auto run = mc::run_wdeq(inst);
              return fluid_hash(h, run.schedule, run.schedule.completions());
            }),
            wdeq_hash);
  EXPECT_EQ(sweep_hash([](std::uint64_t h, const mc::Instance& inst) {
              const auto run = mc::run_deq(inst);
              return fluid_hash(h, run.schedule, run.schedule.completions());
            }),
            deq_hash);

  const std::map<std::string, std::uint64_t> golden = {
      {"wdeq", wdeq_hash},
      {"deq", deq_hash},
      {"wrr", 0x145b368962010a18ULL},
      {"fifo-rigid", 0x54973288b6b1238bULL},
      {"smith-greedy", 0x101681c78055a355ULL},
  };
  const auto policies = msim::all_policies();
  EXPECT_EQ(golden.size(), policies.size());
  for (const auto& policy : policies) {
    const auto h = sweep_hash([&](std::uint64_t acc, const mc::Instance& inst) {
      const auto run = msim::run_policy(inst, *policy);
      return fluid_hash(acc, run.schedule, run.completions);
    });
    ASSERT_EQ(golden.count(policy->name()), 1u) << policy->name();
    EXPECT_EQ(h, golden.at(policy->name()))
        << policy->name() << ": simulated schedules changed (got 0x"
        << std::hex << h << ")";
  }
}
