// Unit tests for the coroutine runtime: stepping, pending-action visibility,
// nested procedures, directive policies, history recording, and replay
// determinism — the machinery everything above it rests on.
#include <gtest/gtest.h>

#include "memory/shared_memory.h"
#include "sched/schedulers.h"
#include "runtime/simulation.h"

namespace rmrsim {
namespace {

// A tiny program: writes its id to `target`, reads it back, terminates.
ProcTask write_then_read(ProcCtx& ctx, VarId target) {
  co_await ctx.write(target, ctx.id());
  co_await ctx.read(target);
}

// Nested procedures, two levels deep.
SubTask<Word> add_one(ProcCtx& ctx, VarId v) {
  const Word x = co_await ctx.read(v);
  co_await ctx.write(v, x + 1);
  co_return x + 1;
}

SubTask<Word> add_two(ProcCtx& ctx, VarId v) {
  const Word a = co_await add_one(ctx, v);
  const Word b = co_await add_one(ctx, v);
  (void)a;
  co_return b;
}

ProcTask nested_program(ProcCtx& ctx, VarId v, VarId out) {
  const Word r = co_await add_two(ctx, v);
  co_await ctx.write(out, r);
}

// Directive-driven: 1 => increment v, 0 => terminate.
ProcTask directive_program(ProcCtx& ctx, VarId v) {
  for (;;) {
    const Directive d = co_await ctx.next_directive();
    if (d.action == Directive::kTerminate) co_return;
    co_await ctx.faa(v, d.arg);
  }
}

TEST(Simulation, PendingVisibleBeforeApplied) {
  auto mem = make_dsm(1);
  const VarId v = mem->allocate_local(0, 0);
  Simulation sim(*mem, {[v](ProcCtx& ctx) { return write_then_read(ctx, v); }});

  ASSERT_TRUE(sim.runnable(0));
  const PendingAction& a = sim.pending(0);
  ASSERT_EQ(a.kind, ActionKind::kMemOp);
  EXPECT_EQ(a.op.type, OpType::kWrite);
  EXPECT_EQ(a.op.var, v);
  // Nothing has been applied yet.
  EXPECT_EQ(mem->store().value(v), 0);
  EXPECT_EQ(mem->ledger().total_ops(), 0u);

  sim.step(0);
  EXPECT_EQ(mem->store().value(v), 0);  // p0 wrote its id, which is 0
  EXPECT_EQ(sim.pending(0).op.type, OpType::kRead);
  sim.step(0);
  EXPECT_TRUE(sim.terminated(0));
  EXPECT_TRUE(sim.all_terminated());
  EXPECT_EQ(sim.history().size(), 2u);
  EXPECT_TRUE(sim.history().records().back().terminated_after);
}

TEST(Simulation, NestedSubtasksBubbleToScheduler) {
  auto mem = make_dsm(1);
  const VarId v = mem->allocate_local(0, 10);
  const VarId out = mem->allocate_local(0, -1);
  Simulation sim(*mem, {[v, out](ProcCtx& ctx) {
    return nested_program(ctx, v, out);
  }});
  // add_two performs 2x(read+write) plus the final write: 5 memory steps.
  int steps = 0;
  while (!sim.all_terminated()) {
    sim.step(0);
    ++steps;
  }
  EXPECT_EQ(steps, 5);
  EXPECT_EQ(mem->store().value(v), 12);
  EXPECT_EQ(mem->store().value(out), 12);
}

TEST(Simulation, DirectivePolicyDrivesClients) {
  auto mem = make_dsm(1);
  const VarId v = mem->allocate_local(0, 0);
  Simulation sim(
      *mem, {[v](ProcCtx& ctx) { return directive_program(ctx, v); }},
      [](ProcId, int index) {
        // Three increments of 5, then terminate.
        return index < 3 ? Directive{1, 5} : Directive{Directive::kTerminate};
      });
  while (!sim.all_terminated()) sim.step(0);
  EXPECT_EQ(mem->store().value(v), 15);
  EXPECT_EQ(sim.directives_consumed(0), 4);
}

TEST(Simulation, DirectiveWithoutPolicyThrows) {
  auto mem = make_dsm(1);
  const VarId v = mem->allocate_local(0, 0);
  Simulation sim(*mem,
                 {[v](ProcCtx& ctx) { return directive_program(ctx, v); }});
  EXPECT_THROW(sim.step(0), std::logic_error);
}

TEST(Simulation, ProgramExceptionsPropagateFromStep) {
  auto mem = make_dsm(1);
  const VarId v = mem->allocate_local(0, 0);
  Simulation sim(*mem, {[v](ProcCtx& ctx) -> ProcTask {
    co_await ctx.read(v);
    throw std::runtime_error("algorithm bug");
  }});
  EXPECT_THROW(sim.step(0), std::runtime_error);
}

TEST(Simulation, RunUnderRoundRobinIsFair) {
  auto mem = make_dsm(3);
  const VarId v = mem->allocate_global(0);
  std::vector<Program> programs;
  for (int i = 0; i < 3; ++i) {
    programs.emplace_back(
        [v](ProcCtx& ctx) -> ProcTask { co_await ctx.faa(v, 1); });
  }
  Simulation sim(*mem, std::move(programs));
  RoundRobinScheduler rr;
  const auto result = sim.run(rr, 1000);
  EXPECT_TRUE(result.all_terminated);
  EXPECT_EQ(result.steps, 3u);
  EXPECT_EQ(mem->store().value(v), 3);
}

TEST(Simulation, ScheduleReplayReproducesHistoryExactly) {
  // Determinism: replaying the recorded schedule on a fresh instance yields
  // an identical history — the foundation of the adversary's erasure.
  const auto build = [](SharedMemory& mem) {
    const VarId a = mem.allocate_global(0, "a");
    std::vector<Program> programs;
    for (int i = 0; i < 4; ++i) {
      programs.emplace_back([a](ProcCtx& ctx) -> ProcTask {
        const Word x = co_await ctx.faa(a, 1);
        co_await ctx.write(a, x + 10);
        co_await ctx.read(a);
      });
    }
    return programs;
  };

  auto mem1 = make_dsm(4);
  Simulation sim1(*mem1, build(*mem1));
  RandomScheduler rand(12345);
  sim1.run(rand, 10'000);
  ASSERT_TRUE(sim1.all_terminated());

  auto mem2 = make_dsm(4);
  Simulation sim2(*mem2, build(*mem2));
  ScriptedScheduler script(sim1.schedule());
  sim2.run(script, 10'000);

  ASSERT_EQ(sim1.history().size(), sim2.history().size());
  for (std::size_t i = 0; i < sim1.history().size(); ++i) {
    const StepRecord& r1 = sim1.history().records()[i];
    const StepRecord& r2 = sim2.history().records()[i];
    EXPECT_EQ(r1.proc, r2.proc);
    EXPECT_EQ(static_cast<int>(r1.kind), static_cast<int>(r2.kind));
    EXPECT_EQ(r1.outcome.result, r2.outcome.result);
    EXPECT_EQ(r1.outcome.rmr, r2.outcome.rmr);
  }
}

TEST(Simulation, RunUntilRmrPendingStopsBeforeTheRmr) {
  auto mem = make_dsm(2);
  const VarId mine = mem->allocate_local(0, 0);
  const VarId remote = mem->allocate_local(1, 0);
  Simulation sim(*mem, {[mine, remote](ProcCtx& ctx) -> ProcTask {
                          co_await ctx.read(mine);   // local
                          co_await ctx.write(mine, 1);  // local
                          co_await ctx.read(remote);  // RMR
                          co_await ctx.read(mine);   // local
                        },
                        {}});
  const auto stop = sim.run_until_rmr_pending(0, 100);
  EXPECT_EQ(stop, Simulation::Stop::kRmrPending);
  // The two local steps applied; the RMR is pending, not applied.
  EXPECT_EQ(sim.history().mem_steps(0), 2u);
  EXPECT_EQ(mem->ledger().rmrs(0), 0u);
  EXPECT_EQ(sim.pending(0).op.var, remote);
  // Finishing the process applies the RMR.
  SoloScheduler solo(0);
  sim.run(solo, 100);
  ASSERT_TRUE(sim.all_terminated());
  EXPECT_EQ(mem->ledger().rmrs(0), 1u);
}

TEST(Simulation, SoloSchedulerRunsOnlyOneProcess) {
  auto mem = make_dsm(2);
  const VarId v = mem->allocate_global(0);
  std::vector<Program> programs;
  for (int i = 0; i < 2; ++i) {
    programs.emplace_back(
        [v](ProcCtx& ctx) -> ProcTask { co_await ctx.faa(v, 1); });
  }
  Simulation sim(*mem, std::move(programs));
  SoloScheduler solo(1);
  sim.run(solo, 100);
  EXPECT_TRUE(sim.terminated(1));
  EXPECT_FALSE(sim.terminated(0));
  EXPECT_EQ(mem->store().value(v), 1);
}

TEST(History, SeesTouchesRegularity) {
  auto mem = make_dsm(3);
  const VarId at0 = mem->allocate_local(0, 0);
  std::vector<Program> programs(3);
  programs[1] = [at0](ProcCtx& ctx) -> ProcTask {
    co_await ctx.write(at0, 7);  // p1 touches p0
  };
  programs[2] = [at0](ProcCtx& ctx) -> ProcTask {
    co_await ctx.read(at0);  // p2 sees p1 (and touches p0)
  };
  Simulation sim(*mem, std::move(programs));
  RoundRobinScheduler rr;
  sim.run(rr, 100);

  const History& h = sim.history();
  EXPECT_TRUE(h.touches(1, 0));
  EXPECT_TRUE(h.touches(2, 0));
  EXPECT_TRUE(h.sees(2, 1));
  EXPECT_FALSE(h.sees(1, 2));
  EXPECT_TRUE(h.seen_by_other(1));
  EXPECT_FALSE(h.seen_by_other(2));
  EXPECT_TRUE(h.touched_by_other(0));
  // p0 took no step: not a participant.
  EXPECT_FALSE(h.participated(0));
  // p1 and p2 finished, so the history is regular despite the cross-module
  // traffic.
  EXPECT_TRUE(h.is_regular());
}

TEST(History, IrregularWhenActiveProcessWasSeen) {
  auto mem = make_dsm(2);
  const VarId v = mem->allocate_global(0);
  std::vector<Program> programs(2);
  programs[0] = [v](ProcCtx& ctx) -> ProcTask {
    co_await ctx.write(v, 1);
    co_await ctx.read(v);  // keeps p0 unfinished after its write is seen
    co_await ctx.read(v);
  };
  programs[1] = [v](ProcCtx& ctx) -> ProcTask { co_await ctx.read(v); };
  Simulation sim(*mem, std::move(programs));
  sim.step(0);  // p0 writes v
  sim.step(1);  // p1 reads v, sees p0 (active!), terminates
  EXPECT_FALSE(sim.history().is_regular());
}

}  // namespace
}  // namespace rmrsim
