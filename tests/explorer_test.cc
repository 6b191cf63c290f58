// Exhaustive small-configuration verification: every memory-op interleaving
// up to a depth bound, not a random sample. Checkers are phrased over
// memory-op records (occupancy gauges, read results) so macro stepping
// (branching on memory operations only) stays complete for them; see
// verify/explorer.h.
#include <gtest/gtest.h>

#include <memory>

#include "explore_fixtures.h"
#include "gme/session_gme.h"
#include "mutex/mcs_lock.h"
#include "mutex/simple_locks.h"
#include "mutex/ya_lock.h"
#include "verify/explorer.h"

namespace rmrsim {
namespace {

std::string schedule_string(const std::vector<ProcId>& s) {
  std::string out;
  for (const ProcId p : s) out += std::to_string(p);
  return out;
}

// ---------------------------------------------------------------------------
// Signaling: every interleaving of small waiter/signaler mixes.
// ---------------------------------------------------------------------------

TEST(ExhaustiveSignaling, CcFlagAllSchedules) {
  for (const bool cc : {true, false}) {
    const auto r = explore_all_schedules(
        signaling_explore_builder(
            cc ? "cc" : "dsm", make_signal_factory_by_name("flag", 2), 2, 2),
        polling_spec_checker(), {.max_depth = 16, .max_nodes = 500'000});
    EXPECT_FALSE(r.violation.has_value())
        << *r.violation << " schedule=" << schedule_string(r.violating_schedule);
    EXPECT_TRUE(r.exhausted);
    EXPECT_GT(r.complete_schedules, 0u);
    EXPECT_EQ(r.truncated_schedules, 0u);
  }
}

TEST(ExhaustiveSignaling, RegistrationOneWaiterAllSchedules) {
  const auto r = explore_all_schedules(
      signaling_explore_builder(
          "dsm", make_signal_factory_by_name("registration", 1), 1, 2),
      polling_spec_checker(), {.max_depth = 24, .max_nodes = 500'000});
  EXPECT_FALSE(r.violation.has_value())
      << *r.violation << " schedule=" << schedule_string(r.violating_schedule);
  EXPECT_TRUE(r.exhausted);
  EXPECT_EQ(r.truncated_schedules, 0u);
}

TEST(ExhaustiveSignaling, RegistrationTwoWaitersAllSchedules) {
  const auto r = explore_all_schedules(
      signaling_explore_builder(
          "dsm", make_signal_factory_by_name("registration", 2), 2, 1),
      polling_spec_checker(), {.max_depth = 24, .max_nodes = 10'000'000});
  EXPECT_FALSE(r.violation.has_value())
      << *r.violation << " schedule=" << schedule_string(r.violating_schedule);
  EXPECT_TRUE(r.exhausted);
}

TEST(ExhaustiveSignaling, SingleWaiterAllSchedules) {
  const auto r = explore_all_schedules(
      signaling_explore_builder(
          "dsm", make_signal_factory_by_name("single-waiter", 1), 1, 3),
      polling_spec_checker(), {.max_depth = 24, .max_nodes = 500'000});
  EXPECT_FALSE(r.violation.has_value())
      << *r.violation << " schedule=" << schedule_string(r.violating_schedule);
  EXPECT_TRUE(r.exhausted);
  EXPECT_EQ(r.truncated_schedules, 0u);
}

TEST(ExhaustiveSignaling, BrokenAlgorithmHasAViolatingSchedule) {
  // Sharpness: exhaustive search must FIND the broken algorithm's bad
  // schedule (signaler first, then a waiter polls false).
  const auto r = explore_all_schedules(
      signaling_explore_builder(
          "dsm", make_signal_factory_by_name("broken", 1), 1, 1),
      polling_spec_checker(), {.max_depth = 16, .max_nodes = 100'000});
  ASSERT_TRUE(r.violation.has_value());
  EXPECT_FALSE(r.violating_schedule.empty());
}

// ---------------------------------------------------------------------------
// Mutual exclusion, memory-level: the occupancy gauge of explore_fixtures.h.
// ---------------------------------------------------------------------------

TEST(ExhaustiveMutex, TasLockTwoProcsAllSchedulesToDepth) {
  const auto r = explore_all_schedules(
      gauge_mutex_builder<TasLock>(2, 1), gauge_checker(),
      {.max_depth = 17, .max_nodes = 2'000'000});
  EXPECT_FALSE(r.violation.has_value())
      << *r.violation << " schedule=" << schedule_string(r.violating_schedule);
  EXPECT_TRUE(r.exhausted);
  EXPECT_GT(r.complete_schedules, 0u);
}

TEST(ExhaustiveMutex, McsTwoProcsAllSchedulesToDepth) {
  const auto r = explore_all_schedules(
      gauge_mutex_builder<McsLock>(2, 1), gauge_checker(),
      {.max_depth = 18, .max_nodes = 2'000'000});
  EXPECT_FALSE(r.violation.has_value())
      << *r.violation << " schedule=" << schedule_string(r.violating_schedule);
  EXPECT_TRUE(r.exhausted);
  EXPECT_GT(r.complete_schedules, 0u);
}

TEST(ExhaustiveMutex, YangAndersonTwoProcsAllSchedulesToDepth) {
  const auto r = explore_all_schedules(
      gauge_mutex_builder<YangAndersonLock>(2, 1), gauge_checker(),
      {.max_depth = 18, .max_nodes = 2'000'000});
  EXPECT_FALSE(r.violation.has_value())
      << *r.violation << " schedule=" << schedule_string(r.violating_schedule);
  EXPECT_TRUE(r.exhausted);
}

TEST(ExhaustiveMutex, NoLockViolationFound) {
  const auto r = explore_all_schedules(
      gauge_mutex_builder<NoLock>(2, 1), gauge_checker(),
      {.max_depth = 12, .max_nodes = 100'000});
  ASSERT_TRUE(r.violation.has_value());
}

// ---------------------------------------------------------------------------
// GME, memory-level: one gauge per session; after entering session s a
// process bumps gauge[s] and reads gauge[1-s], which must be zero.
// ---------------------------------------------------------------------------

TEST(ExhaustiveGme, SessionGmeTwoProcsAllSchedulesToDepth) {
  VarId gauges[2] = {kNoVar, kNoVar};
  const auto build = [&]() {
    ExploreInstance inst;
    inst.mem = make_dsm(2);
    gauges[0] = inst.mem->allocate_global(0, "g0");
    gauges[1] = inst.mem->allocate_global(0, "g1");
    auto alg = std::make_shared<SessionGme>(
        *inst.mem, std::make_unique<TasLock>(*inst.mem));
    std::vector<Program> programs;
    GmeAlgorithm* g = alg.get();
    const VarId g0 = gauges[0];
    const VarId g1 = gauges[1];
    for (int i = 0; i < 2; ++i) {
      programs.emplace_back([g, i, g0, g1](ProcCtx& ctx) -> ProcTask {
        const Word s = i;
        const VarId mine = s == 0 ? g0 : g1;
        const VarId other = s == 0 ? g1 : g0;
        co_await g->enter(ctx, s);
        co_await ctx.faa(mine, 1);
        co_await ctx.read(other);  // recorded; must be 0
        co_await ctx.faa(mine, -1);
        co_await g->exit(ctx);
      });
    }
    inst.sim = std::make_unique<Simulation>(*inst.mem, std::move(programs));
    inst.keepalive = alg;
    return inst;
  };
  const auto check = [&](const History& h) -> std::optional<std::string> {
    for (const StepRecord& r : h.records()) {
      if (r.kind == StepRecord::Kind::kMemOp && r.op.type == OpType::kRead &&
          (r.op.var == gauges[0] || r.op.var == gauges[1]) &&
          r.outcome.result != 0) {
        return "two sessions share the critical section";
      }
    }
    return std::nullopt;
  };
  // The session lock's full run is ~24 macro steps per process; depth 20
  // exhausts every interleaving through the entire entry race (the window
  // where a safety bug would live) while truncating the quiet tails.
  const auto r = explore_all_schedules(
      build, check, {.max_depth = 20, .max_nodes = 3'000'000});
  EXPECT_FALSE(r.violation.has_value())
      << *r.violation << " schedule=" << schedule_string(r.violating_schedule);
  EXPECT_TRUE(r.exhausted);
  EXPECT_GT(r.truncated_schedules, 0u);
}

}  // namespace
}  // namespace rmrsim
