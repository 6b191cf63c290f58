// Exhaustive small-configuration verification: every memory-op interleaving
// up to a depth bound, not a random sample. Checkers are phrased over
// memory-op records (occupancy gauges, read results) so macro stepping
// (branching on memory operations only) stays complete for them; see
// verify/explorer.h.
#include <gtest/gtest.h>

#include <memory>

#include "explore_fixtures.h"
#include "gme/session_gme.h"
#include "memory/cc_model.h"
#include "mutex/mcs_lock.h"
#include "mutex/simple_locks.h"
#include "mutex/ya_lock.h"
#include "signaling/broken.h"
#include "signaling/cc_flag.h"
#include "signaling/dsm_registration.h"
#include "signaling/dsm_single_waiter.h"
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

template <typename Alg, typename... Args>
ExploreBuilder signaling_builder(bool cc, int n_waiters, int polls,
                                 Args... args) {
  return [=]() {
    ExploreInstance inst;
    inst.mem = cc ? make_cc(n_waiters + 1) : make_dsm(n_waiters + 1);
    auto alg = std::make_shared<Alg>(*inst.mem, args...);
    std::vector<Program> programs;
    SignalingAlgorithm* a = alg.get();
    for (int i = 0; i < n_waiters; ++i) {
      programs.emplace_back(
          [a, polls](ProcCtx& ctx) { return polling_waiter(ctx, a, polls); });
    }
    programs.emplace_back([a](ProcCtx& ctx) { return signaler(ctx, a); });
    inst.sim = std::make_unique<Simulation>(*inst.mem, std::move(programs));
    inst.keepalive = alg;
    return inst;
  };
}

TEST(ExhaustiveSignaling, CcFlagAllSchedules) {
  for (const bool cc : {true, false}) {
    const auto r = explore_all_schedules(
        signaling_builder<CcFlagSignal>(cc, 2, 2), polling_checker(),
        {.max_depth = 16, .max_nodes = 500'000});
    EXPECT_FALSE(r.violation.has_value())
        << *r.violation << " schedule=" << schedule_string(r.violating_schedule);
    EXPECT_TRUE(r.exhausted);
    EXPECT_GT(r.complete_schedules, 0u);
    EXPECT_EQ(r.truncated_schedules, 0u);
  }
}

TEST(ExhaustiveSignaling, RegistrationOneWaiterAllSchedules) {
  const auto r = explore_all_schedules(
      signaling_builder<DsmRegistrationSignal>(false, 1, 2, ProcId{1}),
      polling_checker(), {.max_depth = 24, .max_nodes = 500'000});
  EXPECT_FALSE(r.violation.has_value())
      << *r.violation << " schedule=" << schedule_string(r.violating_schedule);
  EXPECT_TRUE(r.exhausted);
  EXPECT_EQ(r.truncated_schedules, 0u);
}

TEST(ExhaustiveSignaling, RegistrationTwoWaitersAllSchedules) {
  const auto r = explore_all_schedules(
      signaling_builder<DsmRegistrationSignal>(false, 2, 1, ProcId{2}),
      polling_checker(), {.max_depth = 24, .max_nodes = 10'000'000});
  EXPECT_FALSE(r.violation.has_value())
      << *r.violation << " schedule=" << schedule_string(r.violating_schedule);
  EXPECT_TRUE(r.exhausted);
}

TEST(ExhaustiveSignaling, SingleWaiterAllSchedules) {
  const auto r = explore_all_schedules(
      signaling_builder<DsmSingleWaiterSignal>(false, 1, 3),
      polling_checker(), {.max_depth = 24, .max_nodes = 500'000});
  EXPECT_FALSE(r.violation.has_value())
      << *r.violation << " schedule=" << schedule_string(r.violating_schedule);
  EXPECT_TRUE(r.exhausted);
  EXPECT_EQ(r.truncated_schedules, 0u);
}

TEST(ExhaustiveSignaling, BrokenAlgorithmHasAViolatingSchedule) {
  // Sharpness: exhaustive search must FIND the broken algorithm's bad
  // schedule (signaler first, then a waiter polls false).
  const auto r = explore_all_schedules(
      signaling_builder<BrokenLocalSignal>(false, 1, 1), polling_checker(),
      {.max_depth = 16, .max_nodes = 100'000});
  ASSERT_TRUE(r.violation.has_value());
  EXPECT_FALSE(r.violating_schedule.empty());
}

// ---------------------------------------------------------------------------
// Mutual exclusion, memory-level: an occupancy gauge inside the CS. The
// gauge FAA's recorded result is the number of peers already inside — any
// nonzero result is a violation, visible in every macro-stepped schedule.
// ---------------------------------------------------------------------------

ProcTask gauge_mutex_worker(ProcCtx& ctx, MutexAlgorithm* lock, VarId gauge,
                            int passages) {
  for (int i = 0; i < passages; ++i) {
    co_await lock->acquire(ctx);
    co_await ctx.faa(gauge, 1);
    co_await ctx.faa(gauge, -1);
    co_await lock->release(ctx);
  }
}

template <typename Lock>
ExploreBuilder gauge_mutex_builder(int nprocs, int passages, VarId* gauge_out) {
  return [=]() {
    ExploreInstance inst;
    inst.mem = make_dsm(nprocs);
    const VarId gauge = inst.mem->allocate_global(0, "cs-gauge");
    *gauge_out = gauge;
    auto lock = std::make_shared<Lock>(*inst.mem);
    std::vector<Program> programs;
    MutexAlgorithm* l = lock.get();
    for (int i = 0; i < nprocs; ++i) {
      programs.emplace_back([l, gauge, passages](ProcCtx& ctx) {
        return gauge_mutex_worker(ctx, l, gauge, passages);
      });
    }
    inst.sim = std::make_unique<Simulation>(*inst.mem, std::move(programs));
    inst.keepalive = lock;
    return inst;
  };
}

ExploreChecker gauge_checker(const VarId* gauge) {
  return [gauge](const History& h) -> std::optional<std::string> {
    for (const StepRecord& r : h.records()) {
      if (r.kind == StepRecord::Kind::kMemOp && r.op.type == OpType::kFaa &&
          r.op.var == *gauge && r.op.arg0 == 1 && r.outcome.result != 0) {
        return "two processes inside the critical section (gauge=" +
               std::to_string(r.outcome.result + 1) + ")";
      }
    }
    return std::nullopt;
  };
}

TEST(ExhaustiveMutex, TasLockTwoProcsAllSchedulesToDepth) {
  VarId gauge = kNoVar;
  const auto r = explore_all_schedules(
      gauge_mutex_builder<TasLock>(2, 1, &gauge), gauge_checker(&gauge),
      {.max_depth = 17, .max_nodes = 2'000'000});
  EXPECT_FALSE(r.violation.has_value())
      << *r.violation << " schedule=" << schedule_string(r.violating_schedule);
  EXPECT_TRUE(r.exhausted);
  EXPECT_GT(r.complete_schedules, 0u);
}

TEST(ExhaustiveMutex, McsTwoProcsAllSchedulesToDepth) {
  VarId gauge = kNoVar;
  const auto r = explore_all_schedules(
      gauge_mutex_builder<McsLock>(2, 1, &gauge), gauge_checker(&gauge),
      {.max_depth = 18, .max_nodes = 2'000'000});
  EXPECT_FALSE(r.violation.has_value())
      << *r.violation << " schedule=" << schedule_string(r.violating_schedule);
  EXPECT_TRUE(r.exhausted);
  EXPECT_GT(r.complete_schedules, 0u);
}

TEST(ExhaustiveMutex, YangAndersonTwoProcsAllSchedulesToDepth) {
  VarId gauge = kNoVar;
  const auto r = explore_all_schedules(
      gauge_mutex_builder<YangAndersonLock>(2, 1, &gauge),
      gauge_checker(&gauge), {.max_depth = 18, .max_nodes = 2'000'000});
  EXPECT_FALSE(r.violation.has_value())
      << *r.violation << " schedule=" << schedule_string(r.violating_schedule);
  EXPECT_TRUE(r.exhausted);
}

TEST(ExhaustiveMutex, NoLockViolationFound) {
  class NoLock final : public MutexAlgorithm {
   public:
    explicit NoLock(SharedMemory&) {}
    SubTask<void> acquire(ProcCtx& ctx) override { co_await ctx.mark(0); }
    SubTask<void> release(ProcCtx& ctx) override { co_await ctx.mark(1); }
    std::string_view name() const override { return "no-lock"; }
  };
  VarId gauge = kNoVar;
  const auto r = explore_all_schedules(
      gauge_mutex_builder<NoLock>(2, 1, &gauge), gauge_checker(&gauge),
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
