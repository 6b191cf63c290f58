// Failure injection under the real crash model (Simulation::crash /
// recover): a crash destroys the victim's coroutine mid-call and releases
// nothing; a recovery re-runs its program against the preserved shared
// memory — the recoverable-mutual-exclusion failure model. These tests pin
// down which guarantees survive a crash and which are conditional on
// crash-freedom, exactly as the paper's progress definitions state ("for
// any fair history ... where no process crashes").
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "harness/drive.h"
#include "memory/cc_model.h"
#include "memory/shared_memory.h"
#include "mutex/lock.h"
#include "mutex/mcs_lock.h"
#include "mutex/recoverable_lock.h"
#include "primitives/multi_signaler.h"
#include "sched/fault.h"
#include "sched/schedulers.h"
#include "signaling/cc_flag.h"
#include "signaling/checker.h"
#include "signaling/dsm_queue.h"
#include "signaling/dsm_registration.h"
#include "signaling/workload.h"
#include "verify/explorer.h"

namespace rmrsim {
namespace {

bool is_memop(const StepRecord& r) {
  return r.kind == StepRecord::Kind::kMemOp;
}

TEST(FailureInjection, WaitFreeAlgorithmsSurviveWaiterCrash) {
  // cc-flag and dsm-registration Poll()/Signal() are wait-free: a crashed
  // waiter cannot block anyone else. The victim is genuinely crashed (frame
  // destroyed, call abandoned), not merely starved.
  for (const bool registration : {false, true}) {
    const int n_waiters = 5;
    const int nprocs = n_waiters + 1;
    auto mem = make_dsm(nprocs);
    std::unique_ptr<SignalingAlgorithm> alg;
    if (registration) {
      alg = std::make_unique<DsmRegistrationSignal>(
          *mem, static_cast<ProcId>(nprocs - 1));
    } else {
      alg = std::make_unique<CcFlagSignal>(*mem);
    }
    SignalingAlgorithm* a = alg.get();
    std::vector<Program> programs;
    for (int i = 0; i < n_waiters; ++i) {
      programs.emplace_back(
          [a](ProcCtx& ctx) { return polling_waiter(ctx, a, 100'000); });
    }
    programs.emplace_back([a](ProcCtx& ctx) { return signaler(ctx, a); });
    Simulation sim(*mem, std::move(programs));
    // Crash waiter 0 in the middle of its first Poll(): after its first
    // memory step inside the call.
    ASSERT_TRUE(sim.run_proc_until(0, is_memop));
    sim.crash(0);
    EXPECT_TRUE(sim.crashed(0));
    EXPECT_FALSE(sim.runnable(0));
    RoundRobinScheduler sched;  // skips the crashed victim on its own
    const auto result = sim.run(sched, 10'000'000);
    // Everyone except the crashed waiter finishes.
    for (ProcId p = 1; p < nprocs; ++p) {
      EXPECT_TRUE(sim.terminated(p)) << "p" << p << " blocked by the crash";
    }
    EXPECT_FALSE(result.all_terminated);  // p0 is down, as expected
    const auto v = check_polling_spec(sim.history());
    EXPECT_FALSE(v.has_value()) << v->what;
  }
}

TEST(FailureInjection, QueueSignalerBlocksOnCrashBetweenClaimAndAnnounce) {
  // The F&I queue's only wait-point: a waiter that crashes after FAI(Tail)
  // but before announcing leaves a claimed-but-empty slot, and Signal()
  // (terminating, not wait-free) spins on it. The paper's terminating
  // property is explicitly conditional on crash-free histories — this test
  // demonstrates why the condition is necessary.
  const int n_waiters = 3;
  const int nprocs = n_waiters + 1;
  auto mem = make_dsm(nprocs);
  DsmQueueSignal alg(*mem);
  std::vector<Program> programs;
  for (int i = 0; i < n_waiters; ++i) {
    programs.emplace_back(
        [&alg](ProcCtx& ctx) { return polling_waiter(ctx, &alg, 100'000); });
  }
  programs.emplace_back([&alg](ProcCtx& ctx) { return signaler(ctx, &alg); });
  Simulation sim(*mem, std::move(programs));
  // Crash waiter 0 right after its FAI on Tail (slot claimed, no announce).
  ASSERT_TRUE(sim.run_proc_until(0, [](const StepRecord& r) {
    return r.kind == StepRecord::Kind::kMemOp && r.op.type == OpType::kFaa;
  }));
  sim.crash(0);
  RoundRobinScheduler sched;
  const auto result = sim.run(sched, 2'000'000);
  EXPECT_FALSE(result.all_terminated);
  EXPECT_FALSE(sim.terminated(nprocs - 1)) << "signaler should be spinning";
  // Recovery does NOT unwedge it: the re-executed Poll() claims a *fresh*
  // slot with a new FAI, and the orphaned claim stays empty forever. An
  // algorithm without a recovery section is not recoverable — re-execution
  // alone cannot repair shared state (contrast RecoverableSpinLock, whose
  // recovery section releases its orphaned hold).
  sim.recover(0);
  const auto after = sim.run(sched, 2'000'000);
  EXPECT_FALSE(after.all_terminated)
      << "re-execution must not repair the orphaned slot claim";
  EXPECT_FALSE(sim.terminated(nprocs - 1)) << "signaler still spinning";
  EXPECT_TRUE(sim.terminated(0)) << "the recovered waiter itself finishes";
  EXPECT_EQ(sim.crash_count(0), 1);
  EXPECT_EQ(sim.recovery_count(0), 1);
}

TEST(FailureInjection, RegistrationSignalerSurvivesAnyWaiterCrashPoint) {
  // dsm-registration has no claim/announce gap: crash a waiter at every
  // possible step of its first Poll() and the signaler still terminates.
  // Crash-stop flavor (never recovered), driven by AllButScheduler so even
  // a hypothetical recovery could not be scheduled.
  const int n_waiters = 3;
  const int nprocs = n_waiters + 1;
  for (int crash_step = 1; crash_step <= 5; ++crash_step) {
    auto mem = make_dsm(nprocs);
    DsmRegistrationSignal alg(*mem, static_cast<ProcId>(nprocs - 1));
    std::vector<Program> programs;
    for (int i = 0; i < n_waiters; ++i) {
      programs.emplace_back(
          [&alg](ProcCtx& ctx) { return polling_waiter(ctx, &alg, 100'000); });
    }
    programs.emplace_back([&alg](ProcCtx& ctx) { return signaler(ctx, &alg); });
    Simulation sim(*mem, std::move(programs));
    for (int s = 0; s < crash_step && !sim.terminated(0); ++s) sim.step(0);
    if (!sim.terminated(0)) sim.crash(0);
    AllButScheduler sched(0);
    sim.run(sched, 10'000'000);
    for (ProcId p = 1; p < nprocs; ++p) {
      EXPECT_TRUE(sim.terminated(p))
          << "p" << p << " blocked (crash_step=" << crash_step << ")";
    }
    const auto v = check_polling_spec(sim.history());
    EXPECT_FALSE(v.has_value()) << v->what;
  }
}

TEST(FailureInjection, MultiSignalerLosersWaitForTheWinner) {
  // Three signalers race; with the winner crashed mid-signal the losers
  // must NOT return (returning would complete a Signal() that is not yet
  // observable). With no crash, everyone finishes and the spec holds.
  const int n_waiters = 4;
  const int n_signalers = 3;
  const int nprocs = n_waiters + n_signalers;
  auto mem = make_dsm(nprocs);
  MultiSignalerSignal alg(*mem, std::make_unique<DsmQueueSignal>(*mem));
  std::vector<Program> programs;
  for (int i = 0; i < n_waiters; ++i) {
    programs.emplace_back(
        [&alg](ProcCtx& ctx) { return polling_waiter(ctx, &alg, 100'000); });
  }
  for (int i = 0; i < n_signalers; ++i) {
    programs.emplace_back([&alg](ProcCtx& ctx) { return signaler(ctx, &alg); });
  }
  Simulation sim(*mem, std::move(programs));
  RoundRobinScheduler rr;
  const auto result = sim.run(rr, 10'000'000);
  EXPECT_TRUE(result.all_terminated);
  const auto v = check_polling_spec(sim.history());
  EXPECT_FALSE(v.has_value()) << v->what;
  // check_signal_once per process still holds (each signaler signaled once).
  EXPECT_FALSE(check_signal_once(sim.history()).has_value());
}

// ---- crash/recovery semantics --------------------------------------------

TEST(CrashRecovery, CrashReleasesNothingAndRecoveryRerunsFromTheTop) {
  // One process increments a shared counter, then loops forever. Crash it
  // after the increment; the increment must survive (shared memory is
  // preserved), and recovery must re-run the program from the top (the
  // counter is incremented again — locals are lost, code is re-executed).
  auto mem = make_dsm(1);
  const VarId counter = mem->allocate_global(0, "counter");
  const VarId stop = mem->allocate_global(0, "stop");
  std::vector<Program> programs;
  programs.emplace_back([counter, stop](ProcCtx& ctx) -> ProcTask {
    co_await ctx.faa(counter, 1);
    for (;;) {
      const Word s = co_await ctx.read(stop);
      if (s != 0) break;
    }
  });
  Simulation sim(*mem, std::move(programs));
  ASSERT_TRUE(sim.run_proc_until(0, [](const StepRecord& r) {
    return r.kind == StepRecord::Kind::kMemOp && r.op.type == OpType::kFaa;
  }));
  sim.crash(0);
  EXPECT_EQ(mem->store().value(counter), 1) << "crash must not undo writes";
  sim.recover(0);
  ASSERT_TRUE(sim.run_proc_until(0, [](const StepRecord& r) {
    return r.kind == StepRecord::Kind::kMemOp && r.op.type == OpType::kFaa;
  }));
  EXPECT_EQ(mem->store().value(counter), 2) << "recovery re-runs the program";
  // History carries the fault markers; the fault trace matches.
  ASSERT_EQ(sim.fault_trace().size(), 2u);
  EXPECT_EQ(sim.fault_trace()[0].kind, Simulation::FaultRecord::Kind::kCrash);
  EXPECT_EQ(sim.fault_trace()[1].kind,
            Simulation::FaultRecord::Kind::kRecover);
}

TEST(CrashRecovery, CcModelDropsTheCrashedProcessesCache) {
  // Under CC, a crash powers down the victim's cache: a location it was
  // reading for free becomes a cold miss again after recovery.
  auto mem = make_cc(2);
  const VarId x = mem->allocate_global(7, "x");
  const VarId stop = mem->allocate_global(0, "stop");
  std::vector<Program> programs;
  programs.emplace_back([x, stop](ProcCtx& ctx) -> ProcTask {
    for (;;) {
      co_await ctx.read(x);
      const Word s = co_await ctx.read(stop);
      if (s != 0) break;
    }
  });
  programs.emplace_back([](ProcCtx&) -> ProcTask { co_return; });
  Simulation sim(*mem, std::move(programs));
  for (int i = 0; i < 6; ++i) sim.step(0);
  auto& cc = dynamic_cast<CcModel&>(mem->model());
  EXPECT_TRUE(cc.holds_copy(0, x));
  const std::uint64_t rmrs_before = mem->ledger().rmrs(0);
  sim.step(0);  // cached re-read: free
  sim.step(0);
  EXPECT_EQ(mem->ledger().rmrs(0), rmrs_before);
  sim.crash(0);
  EXPECT_FALSE(cc.holds_copy(0, x)) << "crash must drop the victim's cache";
  sim.recover(0);
  sim.step(0);  // first read after recovery: cold miss, pays an RMR
  EXPECT_GT(mem->ledger().rmrs(0), rmrs_before)
      << "re-executed code must be re-priced as cold";
}

// ---- recoverable mutual exclusion ----------------------------------------

/// Drives process 0 into its critical section under `model` ("dsm" or
/// "cc"), crashes it there, and runs everyone else. Returns the simulation
/// for post-mortem inspection.
struct CrashInCsRun {
  std::unique_ptr<SharedMemory> mem;
  std::unique_ptr<Simulation> sim;
  bool others_completed = false;
};

template <typename Lock>
CrashInCsRun crash_in_cs(const std::string& model, int nprocs, int passages,
                         bool recover_victim) {
  CrashInCsRun r;
  r.mem = model == "cc" ? make_cc(nprocs) : make_dsm(nprocs);
  auto lock = std::make_shared<Lock>(*r.mem);
  std::vector<VarId> done;
  for (int p = 0; p < nprocs; ++p) {
    done.push_back(r.mem->allocate_global(0, "done"));
  }
  std::vector<Program> programs;
  for (int p = 0; p < nprocs; ++p) {
    if constexpr (std::is_base_of_v<RecoverableMutexAlgorithm, Lock>) {
      programs.emplace_back([lock, dv = done[p], passages](ProcCtx& ctx) {
        return recoverable_mutex_worker(ctx, lock.get(), dv, passages);
      });
    } else {
      programs.emplace_back([lock, passages](ProcCtx& ctx) {
        return mutex_worker(ctx, lock.get(), passages);
      });
    }
  }
  r.sim = std::make_unique<Simulation>(*r.mem, std::move(programs));
  // Drive the victim alone into its first critical section, then crash it.
  const bool in_cs = r.sim->run_proc_until(0, [](const StepRecord& rec) {
    return rec.kind == StepRecord::Kind::kEvent &&
           rec.event == EventKind::kCallBegin && rec.code == calls::kCritical;
  });
  EXPECT_TRUE(in_cs);
  r.sim->crash(0);
  if (recover_victim) r.sim->recover(0);
  RoundRobinScheduler rr;
  const auto result = r.sim->run(rr, 4'000'000);
  r.others_completed = true;
  for (ProcId p = 1; p < nprocs; ++p) {
    if (passages_completed(r.sim->history(), p) < passages) {
      r.others_completed = false;
    }
  }
  (void)result;
  return r;
}

TEST(CrashRecovery, McsDeadlocksAfterCrashInCriticalSection) {
  // MCS has no recovery section: the crashed holder never signals its
  // successor, so every other process spins forever — in DSM and CC
  // alike. This is the contrast case for the recoverable lock below.
  for (const char* model : {"dsm", "cc"}) {
    SCOPED_TRACE(model);
    auto r = crash_in_cs<McsLock>(model, 4, 3, /*recover_victim=*/false);
    EXPECT_FALSE(r.others_completed)
        << "MCS should deadlock after a crash in the CS";
    // Nobody past the victim's first passage: total completed passages
    // stall.
    int total = 0;
    for (ProcId p = 1; p < 4; ++p) {
      total += passages_completed(r.sim->history(), p);
    }
    EXPECT_EQ(total, 0) << "the crashed holder should wedge the whole queue";
  }
}

TEST(CrashRecovery, RecoverableLockCompletesDespiteCrashInCriticalSection) {
  // Same crash point, but the recoverable lock's recovery section releases
  // the orphaned hold, and the other processes finish all their passages.
  // Mutual exclusion must hold on the crashy history, in both models.
  for (const char* model : {"dsm", "cc"}) {
    SCOPED_TRACE(model);
    auto r = crash_in_cs<RecoverableSpinLock>(model, 4, 3,
                                              /*recover_victim=*/true);
    EXPECT_TRUE(r.others_completed)
        << "recoverable lock must make progress after the crash";
    EXPECT_FALSE(check_mutual_exclusion(r.sim->history()).has_value());
    EXPECT_EQ(r.sim->history().crash_events(), 1u);
    EXPECT_EQ(r.sim->history().recovery_events(), 1u);
  }
}

TEST(CrashRecovery, RecoverableLockSurvivesEveryCrashPoint) {
  // Exhaustive: crash proc 0 at every step of a 3-proc recoverable-lock
  // run; mutual exclusion must hold at every crash point and every run must
  // complete. (FIFO is *not* asserted — crashes legitimately reorder
  // waiters; analyze_crash_run reports inversions instead.)
  const auto build =
      mutex_explore_builder("dsm", lock_factory_by_name("recoverable"), 3, 2);
  const auto check = mutual_exclusion_checker();
  const CrashSweepResult sweep = sweep_crash_points(build, check, 0);
  EXPECT_FALSE(sweep.violation.has_value())
      << *sweep.violation << " at crash point "
      << sweep.violating_crash_point;
  EXPECT_GT(sweep.crash_points, 0);
  EXPECT_EQ(sweep.stuck, 0) << "every crash point must still complete";
  EXPECT_EQ(sweep.wedged, 0);
  EXPECT_EQ(sweep.completed, sweep.crash_points);
}

TEST(CrashRecovery, CrashStopSweepSeparatesWedgedFromStuck) {
  // Crash-stop flavor (recover_victim = false): the victim never comes
  // back, so no run can complete, and the sweep must tell the two distinct
  // progress failures apart. Early crash points (victim down before it
  // acquires) let the survivors finish all their passages, leaving only the
  // corpse non-terminated — kWedged, unfixable by any budget. Mid-CS crash
  // points leave the survivors spinning on the orphaned owner word forever —
  // kBudget, reported as `stuck`. A sweep that lumped these together (the
  // old fair_drive early-break did) could not make this assertion.
  const auto build =
      mutex_explore_builder("dsm", lock_factory_by_name("recoverable"), 3, 2);
  const auto check = mutual_exclusion_checker();
  const CrashSweepResult sweep = sweep_crash_points(
      build, check, 0,
      {{.recover_after = 20, .max_steps = 20'000, .recover_victim = false}});
  EXPECT_FALSE(sweep.violation.has_value()) << *sweep.violation;
  EXPECT_GT(sweep.crash_points, 0);
  EXPECT_EQ(sweep.completed, 0) << "the victim can never terminate";
  EXPECT_GT(sweep.wedged, 0) << "pre-acquire crashes wedge the run";
  EXPECT_GT(sweep.stuck, 0) << "in-CS crashes leave survivors spinning";
  EXPECT_EQ(sweep.wedged + sweep.stuck, sweep.crash_points);
}

TEST(CrashRecovery, BudgetExhaustionIsStuckNotWedged) {
  // With the victim recovered, no process is ever permanently down, so a
  // starved step budget must surface as `stuck` (kBudget: runnable work
  // left) and never as `wedged`. The generous-budget run above turns these
  // same crash points into completions — pinning that `stuck` really means
  // "needs more budget", not "dead".
  const auto build =
      mutex_explore_builder("dsm", lock_factory_by_name("recoverable"), 3, 2);
  const auto check = mutual_exclusion_checker();
  const CrashSweepResult sweep = sweep_crash_points(
      build, check, 0,
      {{.recover_after = 10, .max_steps = 40, .recover_victim = true}});
  EXPECT_GT(sweep.crash_points, 0);
  EXPECT_GT(sweep.stuck, 0) << "40 steps cannot finish 3x2 passages";
  EXPECT_EQ(sweep.wedged, 0) << "a recovered world is never wedged";
}

// ---- deterministic fault plans -------------------------------------------

/// Builds a 4-proc recoverable-lock simulation for fault-plan runs.
struct PlanRun {
  std::unique_ptr<SharedMemory> mem;
  std::unique_ptr<Simulation> sim;
  std::shared_ptr<RecoverableSpinLock> lock;
};

PlanRun make_plan_run(int nprocs, int passages) {
  PlanRun r;
  r.mem = make_dsm(nprocs);
  r.lock = std::make_shared<RecoverableSpinLock>(*r.mem);
  std::vector<VarId> done;
  for (int p = 0; p < nprocs; ++p) {
    done.push_back(r.mem->allocate_global(0, "done"));
  }
  std::vector<Program> programs;
  for (int p = 0; p < nprocs; ++p) {
    programs.emplace_back(
        [lock = r.lock, dv = done[p], passages](ProcCtx& ctx) {
          return recoverable_mutex_worker(ctx, lock.get(), dv, passages);
        });
  }
  r.sim = std::make_unique<Simulation>(*r.mem, std::move(programs));
  return r;
}

TEST(FaultPlanDeterminism, SamePlanSameSeedSameHistory) {
  // The acceptance criterion: same FaultPlan + same scheduler + same seed
  // => identical history, including every crash and recovery step.
  auto run_once = [](std::string* rendered,
                     std::vector<Simulation::FaultRecord>* trace,
                     std::vector<ProcId>* schedule) {
    PlanRun r = make_plan_run(4, 3);
    RandomScheduler inner(42);
    FaultScheduler faulty(inner,
                          FaultPlan::random(/*seed=*/7, /*crash_rate=*/0.02,
                                            /*recover_after=*/40,
                                            /*max_crashes=*/8));
    r.sim->run(faulty, 2'000'000);
    EXPECT_GT(faulty.crashes_injected(), 0)
        << "rate 2% over thousands of steps should crash somebody";
    *rendered = r.sim->history().to_string();
    *trace = r.sim->fault_trace();
    *schedule = r.sim->schedule();
  };
  std::string h1, h2;
  std::vector<Simulation::FaultRecord> t1, t2;
  std::vector<ProcId> s1, s2;
  run_once(&h1, &t1, &s1);
  run_once(&h2, &t2, &s2);
  EXPECT_EQ(h1, h2);
  EXPECT_EQ(s1, s2);
  ASSERT_EQ(t1.size(), t2.size());
  for (std::size_t i = 0; i < t1.size(); ++i) {
    EXPECT_EQ(t1[i].kind, t2[i].kind);
    EXPECT_EQ(t1[i].proc, t2[i].proc);
    EXPECT_EQ(t1[i].at, t2[i].at);
  }
}

TEST(FaultPlanDeterminism, ScriptedFaultTraceReplaysCrashyRunExactly) {
  // Record a crashy run, then replay schedule + fault trace on a fresh
  // world: the histories must be bit-identical (crashes, recoveries, and
  // the RMR ledger included).
  PlanRun first = make_plan_run(4, 3);
  RandomScheduler inner(9);
  FaultScheduler faulty(inner, FaultPlan::random(3, 0.02, 30, 6));
  first.sim->run(faulty, 2'000'000);
  ASSERT_FALSE(first.sim->fault_trace().empty());

  PlanRun second = make_plan_run(4, 3);
  ScriptedScheduler scripted(first.sim->schedule());
  FaultScheduler replay(scripted,
                        FaultPlan::scripted_trace(first.sim->fault_trace()));
  second.sim->run(replay, 2'000'000);

  EXPECT_EQ(first.sim->history().to_string(),
            second.sim->history().to_string());
  EXPECT_EQ(first.sim->schedule(), second.sim->schedule());
  EXPECT_EQ(first.mem->ledger().total_rmrs(),
            second.mem->ledger().total_rmrs());
}

TEST(FaultPlanDeterminism, CrashAtStepAndOnNthRmrFireWhereAsked) {
  {
    PlanRun r = make_plan_run(2, 2);
    RoundRobinScheduler rr;
    FaultScheduler faulty(rr, FaultPlan::crash_at_step(1, 5, 10));
    r.sim->run(faulty, 1'000'000);
    EXPECT_EQ(r.sim->crash_count(1), 1);
    EXPECT_EQ(r.sim->recovery_count(1), 1);
    EXPECT_TRUE(r.sim->terminated(1)) << "victim recovers and finishes";
  }
  {
    PlanRun r = make_plan_run(2, 2);
    RoundRobinScheduler rr;
    FaultScheduler faulty(rr, FaultPlan::crash_on_nth_rmr(0, 4, 10));
    r.sim->run(faulty, 1'000'000);
    EXPECT_EQ(r.sim->crash_count(0), 1);
    EXPECT_GE(r.mem->ledger().rmrs(0), 4u);
    EXPECT_TRUE(r.sim->terminated(0));
  }
}

TEST(FaultPlanDeterminism, ParseFaultPlanGrammar) {
  const FaultPlan step = parse_fault_plan("step:proc=2,n=17,recover=33");
  ASSERT_EQ(step.triggers.size(), 1u);
  EXPECT_EQ(step.triggers[0].kind, FaultPlan::Trigger::Kind::kAtStep);
  EXPECT_EQ(step.triggers[0].proc, 2);
  EXPECT_EQ(step.triggers[0].n, 17u);
  EXPECT_EQ(step.recover_after, 33u);

  const FaultPlan rmr = parse_fault_plan("rmr:proc=0,n=9");
  EXPECT_EQ(rmr.triggers[0].kind, FaultPlan::Trigger::Kind::kOnNthRmr);
  EXPECT_EQ(rmr.recover_after, 100u) << "default downtime";

  const FaultPlan rnd =
      parse_fault_plan("random:rate=0.25,seed=11,recover=50,max=3");
  EXPECT_EQ(rnd.triggers[0].kind, FaultPlan::Trigger::Kind::kRandom);
  EXPECT_EQ(rnd.triggers[0].per_million, 250'000u);
  EXPECT_EQ(rnd.seed, 11u);
  EXPECT_EQ(rnd.max_crashes, 3);

  EXPECT_THROW(parse_fault_plan("bogus"), std::logic_error);
  EXPECT_THROW(parse_fault_plan("step:n=1"), std::logic_error);
  EXPECT_THROW(parse_fault_plan("random:seed=4"), std::logic_error);
}

// Two-phase LL/SC program for the reservation-across-crash regression: the
// first incarnation takes an LL and crashes inside the window where the
// reservation is live; the recovered incarnation sees phase != 0 and goes
// straight to SC without a fresh LL — which the RME model requires to fail
// (the crash powered the processor down; no local state, including the
// LL reservation, survives).
ProcTask ll_then_crash_then_sc(ProcCtx& ctx, VarId v, VarId phase,
                               VarId out) {
  const Word ph = co_await ctx.read(phase);
  if (ph == 0) {
    co_await ctx.ll(v);
    co_await ctx.write(phase, 1);
    co_await ctx.mark(/*code=*/7);  // crash here: reservation held
    co_await ctx.sc(v, 41);
  } else {
    const Word ok = co_await ctx.sc(v, 42);  // no fresh LL this incarnation
    co_await ctx.write(out, ok);
  }
}

TEST(CrashRecovery, CrashInvalidatesLlReservation) {
  auto mem = make_dsm(1);
  const VarId v = mem->allocate_global(0, "v");
  const VarId phase = mem->allocate_global(0, "phase");
  const VarId out = mem->allocate_global(99, "out");
  Simulation sim(*mem, {[v, phase, out](ProcCtx& ctx) {
    return ll_then_crash_then_sc(ctx, v, phase, out);
  }});
  ASSERT_TRUE(sim.run_proc_until(0, [](const StepRecord& r) {
    return r.kind == StepRecord::Kind::kEvent &&
           r.event == EventKind::kMark && r.code == 7;
  }));
  sim.crash(0);
  sim.recover(0);
  SoloScheduler solo(0);
  sim.run(solo, 1'000);
  ASSERT_TRUE(sim.all_terminated());
  // The recovered process issued SC with no LL in its post-recovery
  // history: the SC must fail and the variable must keep its value.
  EXPECT_EQ(mem->store().value(out), 0) << "SC succeeded without a fresh LL";
  EXPECT_EQ(mem->store().value(v), 0);
}

}  // namespace
}  // namespace rmrsim
