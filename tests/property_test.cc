// Cross-cutting property tests:
//  * determinism — same schedule => identical history, for every algorithm;
//  * erasure equivalence — in-place erasure (Lemma 6.7) produces exactly
//    the state and history of the erased-process-free replay;
//  * cost-model transparency — values computed by an algorithm are
//    identical under every cost model (pricing must never change
//    semantics);
//  * checker unit cases on synthetic histories.
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>

#include "memory/cc_model.h"
#include "memory/shared_memory.h"
#include "sched/fault.h"
#include "sched/schedulers.h"
#include "signaling/cas_registration.h"
#include "signaling/cc_flag.h"
#include "signaling/checker.h"
#include "signaling/dsm_queue.h"
#include "signaling/dsm_registration.h"
#include "signaling/llsc_registration.h"
#include "signaling/workload.h"

namespace rmrsim {
namespace {

using Factory = SignalingFactory;

std::vector<std::pair<const char*, Factory>> algorithms(int nprocs) {
  return {
      {"cc-flag",
       [](SharedMemory& m) { return std::make_unique<CcFlagSignal>(m); }},
      {"dsm-registration",
       [nprocs](SharedMemory& m) {
         return std::make_unique<DsmRegistrationSignal>(
             m, static_cast<ProcId>(nprocs - 1));
       }},
      {"dsm-queue",
       [](SharedMemory& m) { return std::make_unique<DsmQueueSignal>(m); }},
      {"cas-registration",
       [](SharedMemory& m) {
         return std::make_unique<CasRegistrationSignal>(m);
       }},
      {"llsc-registration",
       [](SharedMemory& m) {
         return std::make_unique<LlscRegistrationSignal>(m);
       }},
  };
}

void expect_same_history(const History& a, const History& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    const StepRecord& x = a.records()[i];
    const StepRecord& y = b.records()[i];
    ASSERT_EQ(x.proc, y.proc) << "step " << i;
    ASSERT_EQ(static_cast<int>(x.kind), static_cast<int>(y.kind)) << i;
    if (x.kind == StepRecord::Kind::kMemOp) {
      ASSERT_EQ(static_cast<int>(x.op.type), static_cast<int>(y.op.type)) << i;
      ASSERT_EQ(x.op.var, y.op.var) << i;
      ASSERT_EQ(x.outcome.result, y.outcome.result) << i;
      ASSERT_EQ(x.outcome.rmr, y.outcome.rmr) << i;
      ASSERT_EQ(x.outcome.nontrivial, y.outcome.nontrivial) << i;
    } else {
      ASSERT_EQ(x.code, y.code) << i;
      ASSERT_EQ(x.value, y.value) << i;
    }
    ASSERT_EQ(x.terminated_after, y.terminated_after) << i;
  }
}

TEST(Determinism, SameScheduleSameHistoryForEveryAlgorithm) {
  const int n_waiters = 4;
  const int nprocs = n_waiters + 1;
  for (const auto& [label, factory] : algorithms(nprocs)) {
    SCOPED_TRACE(label);
    SignalingWorkloadOptions opt;
    opt.n_waiters = n_waiters;
    opt.scheduler_seed = 777;
    auto first = run_signaling_workload(make_dsm(nprocs), factory, opt);
    // Replay the recorded schedule on a fresh world.
    auto mem = make_dsm(nprocs);
    auto alg = factory(*mem);
    std::vector<Program> programs;
    SignalingAlgorithm* a = alg.get();
    for (int i = 0; i < n_waiters; ++i) {
      programs.emplace_back(
          [a](ProcCtx& ctx) { return polling_waiter(ctx, a, 1'000'000); });
    }
    programs.emplace_back([a](ProcCtx& ctx) { return signaler(ctx, a); });
    Simulation replay(*mem, std::move(programs));
    ScriptedScheduler script(first.sim->schedule());
    replay.run(script, 100'000'000);
    expect_same_history(first.sim->history(), replay.history());
  }
}

TEST(ErasureEquivalence, InPlaceEraseMatchesFilteredReplayExactly) {
  // Ground truth for Lemma 6.7 as implemented: build a run, erase an
  // invisible process in place, and compare BOTH the history and the full
  // memory contents against a from-scratch replay of the filtered schedule.
  const int n_waiters = 5;
  const int nprocs = n_waiters + 1;
  const auto factory = [nprocs](SharedMemory& m) {
    return std::make_unique<DsmRegistrationSignal>(
        m, static_cast<ProcId>(nprocs - 1));
  };

  // Run waiters only (no signaler steps), bounded so the victim is still
  // active (mid-spin) and — waiters never read each other's writes here —
  // invisible when erased.
  const ProcId victim = 2;
  auto mem2 = make_dsm(nprocs);
  auto alg2 = factory(*mem2);
  std::vector<Program> programs2;
  SignalingAlgorithm* a2 = alg2.get();
  for (int i = 0; i < n_waiters; ++i) {
    const int polls = (i == victim) ? 1'000'000 : 3;
    programs2.emplace_back(
        [a2, polls](ProcCtx& ctx) { return polling_waiter(ctx, a2, polls); });
  }
  programs2.emplace_back(Program{});
  Simulation sim2(*mem2, std::move(programs2));
  RoundRobinScheduler rr2;
  sim2.run(rr2, 2'000);  // bounded: victim still active mid-spin
  ASSERT_FALSE(sim2.terminated(victim));
  const std::vector<ProcId> schedule = sim2.schedule();
  sim2.erase_process(victim);

  // Filtered replay from scratch.
  std::vector<ProcId> filtered;
  for (const ProcId p : schedule) {
    if (p != victim) filtered.push_back(p);
  }
  auto mem3 = make_dsm(nprocs);
  auto alg3 = factory(*mem3);
  std::vector<Program> programs3;
  SignalingAlgorithm* a3 = alg3.get();
  for (int i = 0; i < n_waiters; ++i) {
    const int polls = (i == victim) ? 1'000'000 : 3;
    programs3.emplace_back(
        [a3, polls](ProcCtx& ctx) { return polling_waiter(ctx, a3, polls); });
  }
  programs3.emplace_back(Program{});
  Simulation sim3(*mem3, std::move(programs3));
  ScriptedScheduler script(filtered);
  sim3.run(script, 1'000'000);

  expect_same_history(sim2.history(), sim3.history());
  EXPECT_EQ(sim2.schedule(), filtered);
  ASSERT_EQ(mem2->store().num_vars(), mem3->store().num_vars());
  for (VarId v = 0; v < mem2->store().num_vars(); ++v) {
    EXPECT_EQ(mem2->store().value(v), mem3->store().value(v)) << "var " << v;
    EXPECT_EQ(mem2->store().last_writer(v), mem3->store().last_writer(v))
        << "var " << v;
  }
  EXPECT_EQ(mem2->ledger().total_rmrs(), mem3->ledger().total_rmrs());
}

TEST(CostModelTransparency, ValuesIdenticalUnderEveryModel) {
  // Pricing must never leak into semantics: the same schedule produces the
  // same VALUES (results, call returns) under DSM and every CC policy.
  const int n_waiters = 4;
  const int nprocs = n_waiters + 1;
  const auto factory = [](SharedMemory& m) {
    return std::make_unique<DsmQueueSignal>(m);
  };
  SignalingWorkloadOptions opt;
  opt.n_waiters = n_waiters;
  opt.scheduler_seed = 4242;
  auto base = run_signaling_workload(make_dsm(nprocs), factory, opt);

  for (const CcPolicy policy :
       {CcPolicy::kWriteThrough, CcPolicy::kWriteBack, CcPolicy::kMesi,
        CcPolicy::kLfcu}) {
    auto mem = make_cc(nprocs, policy);
    auto alg = factory(*mem);
    std::vector<Program> programs;
    SignalingAlgorithm* a = alg.get();
    for (int i = 0; i < n_waiters; ++i) {
      programs.emplace_back(
          [a](ProcCtx& ctx) { return polling_waiter(ctx, a, 1'000'000); });
    }
    programs.emplace_back([a](ProcCtx& ctx) { return signaler(ctx, a); });
    Simulation replay(*mem, std::move(programs));
    ScriptedScheduler script(base.sim->schedule());
    replay.run(script, 100'000'000);
    const auto& a_rec = base.sim->history().records();
    const auto& b_rec = replay.history().records();
    ASSERT_EQ(a_rec.size(), b_rec.size());
    for (std::size_t i = 0; i < a_rec.size(); ++i) {
      ASSERT_EQ(a_rec[i].proc, b_rec[i].proc);
      if (a_rec[i].kind == StepRecord::Kind::kMemOp) {
        ASSERT_EQ(a_rec[i].outcome.result, b_rec[i].outcome.result)
            << "step " << i << " under " << to_string(policy);
      } else {
        ASSERT_EQ(a_rec[i].value, b_rec[i].value) << "step " << i;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Crash/erasure interaction. Erasure (Lemma 6.7) removes a process from the
// execution as if it never ran; a crash is the opposite — a permanent,
// visible event. The two must refuse to compose, and crashy schedules must
// replay only together with their fault trace.
// ---------------------------------------------------------------------------

/// Waiters-only world (as in ErasureEquivalence): victim mid-spin, erasable.
struct ErasableRun {
  std::unique_ptr<SharedMemory> mem;
  std::unique_ptr<SignalingAlgorithm> alg;
  std::unique_ptr<Simulation> sim;
};

ErasableRun make_erasable_run(int n_waiters, ProcId victim) {
  const int nprocs = n_waiters + 1;
  ErasableRun r;
  r.mem = make_dsm(nprocs);
  r.alg = std::make_unique<DsmRegistrationSignal>(
      *r.mem, static_cast<ProcId>(nprocs - 1));
  std::vector<Program> programs;
  SignalingAlgorithm* a = r.alg.get();
  for (int i = 0; i < n_waiters; ++i) {
    const int polls = (i == victim) ? 1'000'000 : 3;
    programs.emplace_back(
        [a, polls](ProcCtx& ctx) { return polling_waiter(ctx, a, polls); });
  }
  programs.emplace_back(Program{});
  r.sim = std::make_unique<Simulation>(*r.mem, std::move(programs));
  RoundRobinScheduler rr;
  r.sim->run(rr, 2'000);
  return r;
}

TEST(CrashEraseInteraction, ErasingACrashedProcessThrows) {
  // A crash leaves permanent marks (kCrash history record, fault trace
  // entry) that erasure cannot revert; Lemma 6.7 erases live invisible
  // processes only.
  auto r = make_erasable_run(5, 2);
  ASSERT_FALSE(r.sim->terminated(2));
  r.sim->crash(2);
  EXPECT_THROW(r.sim->erase_process(2), std::logic_error);
}

TEST(CrashEraseInteraction, CrashingAnErasedProcessThrows) {
  // The erased process never existed, so there is nothing left to crash.
  auto r = make_erasable_run(5, 2);
  ASSERT_FALSE(r.sim->terminated(2));
  r.sim->erase_process(2);
  EXPECT_THROW(r.sim->crash(2), std::logic_error);
}

TEST(CrashEraseInteraction, PlainReplayOfACrashyScheduleFailsLoudly) {
  // A schedule recorded from a crashy run is meaningless without its fault
  // trace: replayed crash-free, the victim does not re-execute, terminates
  // early, and the ScriptedScheduler must throw rather than diverge
  // silently.
  const auto make = [](std::unique_ptr<SharedMemory>* mem_out) {
    auto mem = make_dsm(2);
    const VarId x = mem->allocate_global(0, "x");
    std::vector<Program> programs;
    programs.emplace_back([x](ProcCtx& ctx) -> ProcTask {
      for (int i = 0; i < 3; ++i) co_await ctx.read(x);
    });
    programs.emplace_back([x](ProcCtx& ctx) -> ProcTask {
      for (int i = 0; i < 6; ++i) co_await ctx.read(x);
    });
    *mem_out = std::move(mem);
    return programs;
  };
  std::unique_ptr<SharedMemory> mem1;
  auto programs1 = make(&mem1);
  Simulation crashy(*mem1, std::move(programs1));
  crashy.step(0);     // first read applied
  crashy.crash(0);    // locals (the loop counter) lost
  crashy.recover(0);  // re-runs from the top: three more reads needed
  RoundRobinScheduler rr;
  crashy.run(rr, 100);
  ASSERT_TRUE(crashy.terminated(0));
  // Proc 0 took 4 steps total: 1 pre-crash + 3 re-executed.
  int victim_steps = 0;
  for (const ProcId p : crashy.schedule()) victim_steps += (p == 0) ? 1 : 0;
  ASSERT_EQ(victim_steps, 4);

  std::unique_ptr<SharedMemory> mem2;
  auto programs2 = make(&mem2);
  Simulation replay(*mem2, std::move(programs2));
  ScriptedScheduler script(crashy.schedule());
  EXPECT_THROW(replay.run(script, 100), std::logic_error)
      << "crash-free replay finishes proc 0 after 3 steps; its 4th scripted "
         "step must fail";
}

TEST(CrashEraseInteraction, SchedulePlusFaultTraceReplaysExactly) {
  // The positive half: the same schedule under FaultPlan::scripted_trace
  // reproduces the crashy history record for record.
  auto make = []() {
    auto mem = make_dsm(1);
    const VarId x = mem->allocate_global(0, "x");
    std::vector<Program> programs{[x](ProcCtx& ctx) -> ProcTask {
      for (int i = 0; i < 3; ++i) co_await ctx.read(x);
    }};
    return std::make_pair(std::move(mem),
                          std::move(programs));
  };
  auto [mem, programs] = make();
  Simulation sim(*mem, std::move(programs));
  sim.step(0);
  sim.crash(0);
  sim.recover(0);
  RoundRobinScheduler rr;
  sim.run(rr, 100);
  ASSERT_TRUE(sim.terminated(0));

  auto [mem2, programs2] = make();
  Simulation replay(*mem2, std::move(programs2));
  ScriptedScheduler script(sim.schedule());
  FaultScheduler faulty(script, FaultPlan::scripted_trace(sim.fault_trace()));
  replay.run(faulty, 100);
  expect_same_history(sim.history(), replay.history());
  ASSERT_EQ(replay.fault_trace().size(), sim.fault_trace().size());
  EXPECT_EQ(mem->ledger().total_rmrs(), mem2->ledger().total_rmrs());
}

// ---------------------------------------------------------------------------
// Checker unit cases on synthetic histories.
// ---------------------------------------------------------------------------

StepRecord event(ProcId p, EventKind e, Word code, Word value = 0) {
  StepRecord r;
  r.kind = StepRecord::Kind::kEvent;
  r.proc = p;
  r.event = e;
  r.code = code;
  r.value = value;
  return r;
}

TEST(CheckerUnits, TrueBeforeAnySignalBeganIsViolation) {
  History h;
  h.append(event(0, EventKind::kCallBegin, calls::kPoll));
  h.append(event(0, EventKind::kCallEnd, calls::kPoll, 1));  // true!
  h.append(event(1, EventKind::kCallBegin, calls::kSignal));
  h.append(event(1, EventKind::kCallEnd, calls::kSignal));
  EXPECT_TRUE(check_polling_spec(h).has_value());
}

TEST(CheckerUnits, TrueAfterSignalBeganButNotEndedIsLegal) {
  History h;
  h.append(event(1, EventKind::kCallBegin, calls::kSignal));
  h.append(event(0, EventKind::kCallBegin, calls::kPoll));
  h.append(event(0, EventKind::kCallEnd, calls::kPoll, 1));
  EXPECT_FALSE(check_polling_spec(h).has_value());
}

TEST(CheckerUnits, FalseOverlappingSignalIsLegal) {
  // Poll began before Signal completed: false is allowed.
  History h;
  h.append(event(1, EventKind::kCallBegin, calls::kSignal));
  h.append(event(0, EventKind::kCallBegin, calls::kPoll));
  h.append(event(1, EventKind::kCallEnd, calls::kSignal));
  h.append(event(0, EventKind::kCallEnd, calls::kPoll, 0));
  EXPECT_FALSE(check_polling_spec(h).has_value());
}

TEST(CheckerUnits, FalseStrictlyAfterCompletedSignalIsViolation) {
  History h;
  h.append(event(1, EventKind::kCallBegin, calls::kSignal));
  h.append(event(1, EventKind::kCallEnd, calls::kSignal));
  h.append(event(0, EventKind::kCallBegin, calls::kPoll));
  h.append(event(0, EventKind::kCallEnd, calls::kPoll, 0));
  EXPECT_TRUE(check_polling_spec(h).has_value());
}

TEST(CheckerUnits, PendingCallsImposeNothing) {
  History h;
  h.append(event(1, EventKind::kCallBegin, calls::kSignal));
  h.append(event(1, EventKind::kCallEnd, calls::kSignal));
  h.append(event(0, EventKind::kCallBegin, calls::kPoll));  // never ends
  EXPECT_FALSE(check_polling_spec(h).has_value());
}

TEST(CheckerUnits, BlockingWaitBeforeSignalIsViolation) {
  History h;
  h.append(event(0, EventKind::kCallBegin, calls::kWait));
  h.append(event(0, EventKind::kCallEnd, calls::kWait));
  h.append(event(1, EventKind::kCallBegin, calls::kSignal));
  EXPECT_TRUE(check_blocking_spec(h).has_value());
}

TEST(CheckerUnits, WaitAfterSignalBeganIsLegal) {
  History h;
  h.append(event(1, EventKind::kCallBegin, calls::kSignal));
  h.append(event(0, EventKind::kCallBegin, calls::kWait));
  h.append(event(0, EventKind::kCallEnd, calls::kWait));
  EXPECT_FALSE(check_blocking_spec(h).has_value());
}

TEST(CheckerUnits, CrashAbandonsTheOpenCall) {
  // A Poll() cut down by a crash never returned, so it imposes nothing —
  // even though a Signal() completed before the victim's NEXT (re-executed)
  // Poll() began and returned true.
  History h;
  h.append(event(0, EventKind::kCallBegin, calls::kPoll));
  h.append(event(0, EventKind::kCrash, 0));
  h.append(event(1, EventKind::kCallBegin, calls::kSignal));
  h.append(event(1, EventKind::kCallEnd, calls::kSignal));
  h.append(event(0, EventKind::kRecover, 0));
  h.append(event(0, EventKind::kCallBegin, calls::kPoll));
  h.append(event(0, EventKind::kCallEnd, calls::kPoll, 1));
  EXPECT_FALSE(check_polling_spec(h).has_value());
}

TEST(CheckerUnits, SignalOnceBudgetResetsAcrossACrash) {
  // RME re-execution: a signaler that crashed mid-Signal() legitimately
  // calls Signal() again after recovery...
  History h;
  h.append(event(1, EventKind::kCallBegin, calls::kSignal));
  h.append(event(1, EventKind::kCrash, 0));
  h.append(event(1, EventKind::kRecover, 0));
  h.append(event(1, EventKind::kCallBegin, calls::kSignal));
  h.append(event(1, EventKind::kCallEnd, calls::kSignal));
  EXPECT_FALSE(check_signal_once(h).has_value());
  // ...but a second Signal() with no crash in between is still a violation.
  History bad;
  bad.append(event(1, EventKind::kCallBegin, calls::kSignal));
  bad.append(event(1, EventKind::kCallEnd, calls::kSignal));
  bad.append(event(1, EventKind::kCallBegin, calls::kSignal));
  EXPECT_TRUE(check_signal_once(bad).has_value());
}

}  // namespace
}  // namespace rmrsim
