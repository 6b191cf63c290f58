// Semi-synchronous model tests (Section 3's timing-based systems): the
// delay() primitive, the bounded-gap Delta-scheduler, and Fischer's lock —
// whose safety is a property of the timing model: correct with an adequate
// delay under a Delta-scheduler, demonstrably broken otherwise.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>

#include "memory/shared_memory.h"
#include "mutex/fischer_lock.h"
#include "sched/schedulers.h"

namespace rmrsim {
namespace {

TEST(Delay, SleeperIsNotReadyUntilClockAdvances) {
  auto mem = make_dsm(2);
  const VarId v = mem->allocate_global(0);
  std::vector<Program> programs(2);
  programs[0] = [v](ProcCtx& ctx) -> ProcTask {
    co_await ctx.delay(5);
    co_await ctx.write(v, 1);
  };
  programs[1] = [v](ProcCtx& ctx) -> ProcTask {
    co_await ctx.read(v);
    co_await ctx.read(v);
  };
  Simulation sim(*mem, std::move(programs));
  EXPECT_FALSE(sim.ready(0));  // armed at t=0, wakes at t=5
  EXPECT_TRUE(sim.ready(1));
  sim.step(1);  // t=1
  sim.step(1);  // t=2, p1 terminates
  EXPECT_FALSE(sim.ready(0));
  sim.tick();  // 3
  sim.tick();  // 4
  sim.tick();  // 5
  EXPECT_TRUE(sim.ready(0));
  sim.step(0);  // delay-completion event recorded
  EXPECT_EQ(sim.history().records().back().event, EventKind::kDelay);
  sim.step(0);
  EXPECT_EQ(mem->store().value(v), 1);
}

TEST(Delay, RunLoopTicksThroughAllAsleepPhases) {
  auto mem = make_dsm(1);
  const VarId v = mem->allocate_global(0);
  std::vector<Program> programs(1);
  programs[0] = [v](ProcCtx& ctx) -> ProcTask {
    co_await ctx.delay(10);
    co_await ctx.write(v, 7);
  };
  Simulation sim(*mem, std::move(programs));
  RoundRobinScheduler rr;
  const auto r = sim.run(rr, 1'000);
  EXPECT_TRUE(r.all_terminated);
  EXPECT_EQ(mem->store().value(v), 7);
  EXPECT_GE(sim.now(), 10u);
}

TEST(Delay, FairDriveSleeperRunsOutOfBudgetNotWedged) {
  // p0 finishes in one step; p1 sleeps until t=50, then takes two steps
  // (the delay completion and its write). Ticks count against fair_drive's
  // budget, so the run needs exactly 1 + 49 ticks + 2 = 52 steps and ticks.
  // Short of that, the sleeper is still runnable: kBudget, never kWedged.
  auto drive = [](std::uint64_t budget) {
    auto mem = make_dsm(2);
    const VarId v = mem->allocate_global(0);
    std::vector<Program> programs(2);
    programs[0] = [v](ProcCtx& ctx) -> ProcTask { co_await ctx.write(v, 1); };
    programs[1] = [v](ProcCtx& ctx) -> ProcTask {
      co_await ctx.delay(50);
      co_await ctx.write(v, 2);
    };
    Simulation sim(*mem, std::move(programs));
    const DriveOutcome out = fair_drive(sim, budget);
    EXPECT_TRUE(sim.terminated(0));
    EXPECT_EQ(sim.now(), std::min<std::uint64_t>(budget, 52));
    return out;
  };
  EXPECT_EQ(drive(10), DriveOutcome::kBudget);
  EXPECT_EQ(drive(51), DriveOutcome::kBudget);
  EXPECT_EQ(drive(52), DriveOutcome::kAllTerminated);
  EXPECT_EQ(drive(1'000), DriveOutcome::kAllTerminated);
}

TEST(BoundedGap, NoReadyProcessStarvesPastDelta) {
  const int n = 4;
  const std::uint64_t delta = 8;
  auto mem = make_dsm(n);
  const VarId v = mem->allocate_global(0);
  std::vector<Program> programs;
  for (int i = 0; i < n; ++i) {
    programs.emplace_back([v](ProcCtx& ctx) -> ProcTask {
      for (int k = 0; k < 30; ++k) co_await ctx.faa(v, 1);
    });
  }
  Simulation sim(*mem, std::move(programs));
  BoundedGapScheduler sched(99, delta);
  std::vector<std::uint64_t> last(n, 0);
  while (!sim.all_terminated()) {
    const ProcId p = sched.next(sim);
    ASSERT_NE(p, kNoProc);
    EXPECT_LE(sim.now() - last[static_cast<std::size_t>(p)], delta)
        << "gap bound violated for p" << p;
    last[static_cast<std::size_t>(p)] = sim.now();
    sim.step(p);
  }
}

struct FischerRun {
  bool completed = false;
  bool violated = false;
  double rmrs_per_passage = 0;
};

constexpr int kFischerPassages = 3;

/// n workers x kFischerPassages passages of Fischer's lock under `model`
/// ("dsm" or "cc") and a Delta-scheduler.
FischerRun run_fischer(const std::string& model, int n, Word lock_delay,
                       std::uint64_t delta, std::uint64_t seed) {
  auto mem = model == "cc" ? make_cc(n) : make_dsm(n);
  FischerLock lock(*mem, lock_delay);
  std::vector<Program> programs;
  for (int i = 0; i < n; ++i) {
    programs.emplace_back([&lock](ProcCtx& ctx) {
      return mutex_worker(ctx, &lock, kFischerPassages);
    });
  }
  Simulation sim(*mem, std::move(programs));
  BoundedGapScheduler sched(seed, delta);
  FischerRun out;
  out.completed = sim.run(sched, 5'000'000).all_terminated;
  out.violated = check_mutual_exclusion(sim.history()).has_value();
  out.rmrs_per_passage = static_cast<double>(mem->ledger().total_rmrs()) /
                         static_cast<double>(n * kFischerPassages);
  return out;
}

TEST(Fischer, SafeWithAdequateDelayUnderDeltaScheduler) {
  const int n = 4;
  const std::uint64_t delta = 6;
  // Delay >= delta + slack for simultaneous deadline collisions (see
  // BoundedGapScheduler): every run must be safe and complete.
  for (const std::uint64_t seed : {1u, 2u, 3u, 5u, 8u, 13u, 21u, 34u}) {
    const auto r =
        run_fischer("dsm", n, static_cast<Word>(delta + n), delta, seed);
    EXPECT_TRUE(r.completed) << "seed " << seed;
    EXPECT_FALSE(r.violated) << "seed " << seed;
  }
}

TEST(Fischer, BrokenWithoutTheDelay) {
  // delay(0): the classic bug. Some schedule must exhibit a mutual
  // exclusion violation — timing is load-bearing.
  const int n = 4;
  bool violation_found = false;
  for (std::uint64_t seed = 1; seed <= 200 && !violation_found; ++seed) {
    const auto r = run_fischer("dsm", n, 0, 6, seed);
    violation_found = r.violated;
  }
  EXPECT_TRUE(violation_found)
      << "no violation found with zero delay — the timing model is not "
         "being exercised";
}

TEST(Fischer, ContendedRmrsGrowWithNInBothModels) {
  // Every contender spins on the one shared lock word, so the contended
  // cost per passage grows with N — in CC too, where each winner's write
  // invalidates every spinner's copy. The cited [23] O(1)-DSM algorithm
  // needs local-spin machinery this classic protocol lacks.
  const std::uint64_t delta = 8;
  const auto mean_rmrs = [delta](const char* model, int n) {
    double sum = 0;
    for (const std::uint64_t seed : {1u, 2u, 3u}) {
      const auto r =
          run_fischer(model, n, static_cast<Word>(delta + n), delta, seed);
      EXPECT_TRUE(r.completed) << model << " N=" << n << " seed " << seed;
      EXPECT_FALSE(r.violated) << model << " N=" << n << " seed " << seed;
      sum += r.rmrs_per_passage;
    }
    return sum / 3;
  };
  for (const char* model : {"dsm", "cc"}) {
    const double small = mean_rmrs(model, 2);
    const double large = mean_rmrs(model, 16);
    EXPECT_GE(large, 4 * small)
        << model << ": N=2 " << small << ", N=16 " << large;
  }
}

TEST(TimedReplay, ScheduleWithTicksReplaysExactly) {
  // Clock ticks are recorded in the schedule (as kNoProc entries), so even
  // timed runs are replay-exact — the determinism contract extends to the
  // semi-synchronous model.
  const int n = 3;
  const auto build = [](SharedMemory& mem, FischerLock& lock) {
    std::vector<Program> programs;
    for (int i = 0; i < 3; ++i) {
      programs.emplace_back(
          [&lock](ProcCtx& ctx) { return mutex_worker(ctx, &lock, 2); });
    }
    (void)mem;
    return programs;
  };
  auto mem1 = make_dsm(n);
  FischerLock lock1(*mem1, 9);
  Simulation sim1(*mem1, build(*mem1, lock1));
  BoundedGapScheduler sched(4242, 6);
  ASSERT_TRUE(sim1.run(sched, 5'000'000).all_terminated);
  ASSERT_NE(std::count(sim1.schedule().begin(), sim1.schedule().end(),
                       kNoProc),
            0)
      << "expected recorded ticks in a timed run";

  auto mem2 = make_dsm(n);
  FischerLock lock2(*mem2, 9);
  Simulation sim2(*mem2, build(*mem2, lock2));
  ScriptedScheduler script(sim1.schedule());
  ASSERT_TRUE(sim2.run(script, 5'000'000).all_terminated);
  ASSERT_EQ(sim1.history().size(), sim2.history().size());
  for (std::size_t i = 0; i < sim1.history().size(); ++i) {
    const StepRecord& a = sim1.history().records()[i];
    const StepRecord& b = sim2.history().records()[i];
    ASSERT_EQ(a.proc, b.proc) << i;
    ASSERT_EQ(a.outcome.result, b.outcome.result) << i;
    ASSERT_EQ(a.outcome.rmr, b.outcome.rmr) << i;
  }
  EXPECT_EQ(sim1.now(), sim2.now());
}

TEST(Fischer, O1RmrsPerUncontendedPassage) {
  // Uncontended: acquire = read + write + read (+ delay, which is free),
  // release = write. The Section 3 cited result is about the contended
  // case; this just anchors the accounting.
  auto mem = make_dsm(2);
  FischerLock lock(*mem, 4);
  std::vector<Program> programs;
  programs.emplace_back(
      [&lock](ProcCtx& ctx) { return mutex_worker(ctx, &lock, 5); });
  programs.emplace_back(Program{});
  Simulation sim(*mem, std::move(programs));
  RoundRobinScheduler rr;
  ASSERT_TRUE(sim.run(rr, 100'000).all_terminated);
  EXPECT_LE(mem->ledger().rmrs(0), 5u * 4u);
  EXPECT_FALSE(check_mutual_exclusion(sim.history()).has_value());
}

}  // namespace
}  // namespace rmrsim
