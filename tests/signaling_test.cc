// Integration tests for the signaling algorithms of Sections 5 and 7: safety
// (Specification 4.1) across schedules and models, RMR complexity shapes,
// and checker sharpness (the broken algorithm must be caught).
#include <gtest/gtest.h>

#include <functional>
#include <memory>

#include "memory/cc_model.h"
#include "memory/shared_memory.h"
#include "sched/schedulers.h"
#include "signaling/broken.h"
#include "signaling/cas_registration.h"
#include "signaling/cc_flag.h"
#include "signaling/checker.h"
#include "signaling/dsm_fixed.h"
#include "signaling/dsm_queue.h"
#include "signaling/dsm_registration.h"
#include "signaling/dsm_single_waiter.h"
#include "signaling/workload.h"

namespace rmrsim {
namespace {

using AlgFactory =
    std::function<std::unique_ptr<SignalingAlgorithm>(SharedMemory&)>;

struct RunResult {
  std::unique_ptr<SharedMemory> mem;
  std::unique_ptr<SignalingAlgorithm> alg;
  std::unique_ptr<Simulation> sim;
};

/// Runs `n_waiters` polling waiters (procs 0..n-1) and one signaler (proc n)
/// under the given scheduler; waiters poll until true (or max_polls).
RunResult run_signaling(std::unique_ptr<SharedMemory> mem,
                        const AlgFactory& make_alg, int n_waiters,
                        Scheduler& sched, int max_polls = 1'000,
                        int signaler_idle_polls = 0) {
  RunResult r;
  r.mem = std::move(mem);
  r.alg = make_alg(*r.mem);
  std::vector<Program> programs;
  SignalingAlgorithm* alg = r.alg.get();
  for (int i = 0; i < n_waiters; ++i) {
    programs.emplace_back([alg, max_polls](ProcCtx& ctx) {
      return polling_waiter(ctx, alg, max_polls);
    });
  }
  programs.emplace_back([alg, signaler_idle_polls](ProcCtx& ctx) {
    return signaler(ctx, alg, signaler_idle_polls);
  });
  r.sim = std::make_unique<Simulation>(*r.mem, std::move(programs));
  const auto result = r.sim->run(sched, 10'000'000);
  EXPECT_TRUE(result.all_terminated) << "run did not complete";
  return r;
}

void expect_spec_holds(const History& h) {
  const auto v = check_polling_spec(h);
  EXPECT_FALSE(v.has_value()) << v->what << " at step " << v->step_index;
  const auto once = check_signal_once(h);
  EXPECT_FALSE(once.has_value()) << once->what;
}

// ---------------------------------------------------------------------------
// Parameterized safety sweep: every correct algorithm x both models x many
// schedules must satisfy Specification 4.1.
// ---------------------------------------------------------------------------

struct AlgCase {
  const char* label;
  AlgFactory factory;
  bool dsm_only = false;  // fixed-waiter variants assume specific homes
};

std::vector<AlgCase> correct_algorithms(int n_waiters, int nprocs) {
  std::vector<AlgCase> cases;
  cases.push_back({"cc-flag", [](SharedMemory& m) {
                     return std::make_unique<CcFlagSignal>(m);
                   }});
  cases.push_back({"dsm-registration", [nprocs](SharedMemory& m) {
                     return std::make_unique<DsmRegistrationSignal>(
                         m, static_cast<ProcId>(nprocs - 1));
                   }});
  cases.push_back({"dsm-queue-fai", [](SharedMemory& m) {
                     return std::make_unique<DsmQueueSignal>(m);
                   }});
  cases.push_back({"cas-registration", [](SharedMemory& m) {
                     return std::make_unique<CasRegistrationSignal>(m);
                   }});
  cases.push_back({"dsm-fixed-waiters", [n_waiters](SharedMemory& m) {
                     std::vector<ProcId> ws;
                     for (int i = 0; i < n_waiters; ++i) ws.push_back(i);
                     return std::make_unique<DsmFixedWaitersSignal>(
                         m, std::move(ws));
                   }});
  return cases;
}

class SignalingSafetySweep
    : public ::testing::TestWithParam<std::tuple<int, std::uint64_t, bool>> {};

TEST_P(SignalingSafetySweep, SpecHoldsUnderRandomSchedules) {
  const int n_waiters = std::get<0>(GetParam());
  const std::uint64_t seed = std::get<1>(GetParam());
  const bool use_cc = std::get<2>(GetParam());
  const int nprocs = n_waiters + 1;

  for (const AlgCase& c : correct_algorithms(n_waiters, nprocs)) {
    RandomScheduler sched(seed);
    auto mem = use_cc ? make_cc(nprocs) : make_dsm(nprocs);
    auto r = run_signaling(std::move(mem), c.factory, n_waiters, sched);
    SCOPED_TRACE(c.label);
    expect_spec_holds(r.sim->history());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SignalingSafetySweep,
    ::testing::Combine(::testing::Values(1, 2, 5, 9),
                       ::testing::Values(1u, 7u, 42u, 1234u, 99999u),
                       ::testing::Bool()));

// ---------------------------------------------------------------------------
// Waiters actually learn about the signal (liveness under fair schedules).
// ---------------------------------------------------------------------------

TEST(SignalingLiveness, EveryWaiterEventuallyReturnsTrue) {
  const int n_waiters = 6;
  const int nprocs = n_waiters + 1;
  for (const AlgCase& c : correct_algorithms(n_waiters, nprocs)) {
    RoundRobinScheduler rr;
    auto r = run_signaling(make_dsm(nprocs), c.factory, n_waiters, rr,
                           /*max_polls=*/100'000);
    SCOPED_TRACE(c.label);
    // Under round-robin every waiter keeps polling until true; termination
    // of the run plus a legal history implies everyone saw the signal.
    expect_spec_holds(r.sim->history());
    int true_returns = 0;
    for (const StepRecord& rec : r.sim->history().records()) {
      if (rec.kind == StepRecord::Kind::kEvent &&
          rec.event == EventKind::kCallEnd && rec.code == calls::kPoll &&
          rec.value == 1) {
        ++true_returns;
      }
    }
    EXPECT_GE(true_returns, n_waiters) << "some waiter never saw the signal";
  }
}

// ---------------------------------------------------------------------------
// RMR complexity shapes (the paper's Sections 5 and 7 claims in miniature;
// the full sweeps are the registry experiments `rmrsim_cli sweep` runs).
// ---------------------------------------------------------------------------

TEST(RmrShape, CcFlagIsO1PerProcessInCc) {
  const int n_waiters = 16;
  RoundRobinScheduler rr;
  auto r = run_signaling(make_cc(n_waiters + 1),
                         [](SharedMemory& m) {
                           return std::make_unique<CcFlagSignal>(m);
                         },
                         n_waiters, rr, /*max_polls=*/10'000);
  // Paper Section 5: each waiter pays one RMR to cache B and at most one
  // more after the signaler's single invalidation; the signaler pays one.
  for (ProcId p = 0; p <= n_waiters; ++p) {
    EXPECT_LE(r.mem->ledger().rmrs(p), 2u) << "process " << p;
  }
}

TEST(RmrShape, CcFlagIsUnboundedInDsm) {
  // The same algorithm in DSM: a remote waiter pays one RMR per poll, so a
  // delayed signaler (50 idle polls under round-robin) makes every waiter's
  // RMR count grow with the delay — unbounded RMR complexity in the paper's
  // sense. Contrast with CcFlagIsO1PerProcessInCc above.
  const int n_waiters = 4;
  RoundRobinScheduler rr;
  auto r = run_signaling(make_dsm(n_waiters + 1),
                         [](SharedMemory& m) {
                           return std::make_unique<CcFlagSignal>(m);
                         },
                         n_waiters, rr, /*max_polls=*/10'000,
                         /*signaler_idle_polls=*/50);
  for (ProcId p = 0; p < n_waiters; ++p) {
    EXPECT_GT(r.mem->ledger().rmrs(p), 20u) << "process " << p;
  }
}

TEST(RmrShape, DsmRegistrationWaitersO1SignalerOk) {
  const int n_waiters = 16;
  const int nprocs = n_waiters + 1;
  RoundRobinScheduler rr;
  auto r = run_signaling(make_dsm(nprocs),
                         [nprocs](SharedMemory& m) {
                           return std::make_unique<DsmRegistrationSignal>(
                               m, static_cast<ProcId>(nprocs - 1));
                         },
                         n_waiters, rr, /*max_polls=*/10'000);
  // Waiters: register (1 RMR to signaler's module) + first S read (1 RMR) +
  // local spins (0). Allow a small constant.
  for (ProcId p = 0; p < n_waiters; ++p) {
    EXPECT_LE(r.mem->ledger().rmrs(p), 3u) << "waiter " << p;
  }
  // Signaler: S write + one delivery per registered waiter; local sweep.
  EXPECT_LE(r.mem->ledger().rmrs(n_waiters),
            static_cast<std::uint64_t>(n_waiters + 2));
}

TEST(RmrShape, DsmQueueAmortizedO1) {
  const int n_waiters = 24;
  RoundRobinScheduler rr;
  auto r = run_signaling(make_dsm(n_waiters + 1),
                         [](SharedMemory& m) {
                           return std::make_unique<DsmQueueSignal>(m);
                         },
                         n_waiters, rr, /*max_polls=*/10'000);
  const double amortized =
      static_cast<double>(r.mem->ledger().total_rmrs()) /
      static_cast<double>(n_waiters + 1);
  // Waiter: FAI + announce + S read = 3; signaler: 1 + ~2 per waiter
  // (announcement read + delivery). Comfortably constant amortized.
  EXPECT_LE(amortized, 6.0);
}

TEST(RmrShape, DsmFixedWaitersSparseParticipationDefeatsAmortizedO1) {
  // Section 7, fixed-waiters paragraph: the wait-free signaler writes all
  // W fixed waiters' flags whoever participates, so when only k of them
  // show up its W RMRs are shared by k + 1 participants — amortized O(1)
  // is out of reach for wait-free solutions with sparse participation.
  const int kW = 64;
  double prev_amortized = 0;
  for (const int k : {64, 16, 4, 1}) {
    auto mem = make_dsm(kW + 1);
    std::vector<ProcId> ws;
    for (int i = 0; i < kW; ++i) ws.push_back(i);
    DsmFixedWaitersSignal alg(*mem, std::move(ws));
    std::vector<Program> programs;
    for (int i = 0; i < kW; ++i) {
      if (i < k) {
        programs.emplace_back(
            [&alg](ProcCtx& ctx) { return polling_waiter(ctx, &alg, 10'000); });
      } else {
        programs.emplace_back(Program{});  // fixed but never participates
      }
    }
    programs.emplace_back([&alg](ProcCtx& ctx) { return signaler(ctx, &alg); });
    Simulation sim(*mem, std::move(programs));
    RoundRobinScheduler rr;
    ASSERT_TRUE(sim.run(rr, 10'000'000).all_terminated) << "k=" << k;
    expect_spec_holds(sim.history());
    EXPECT_EQ(mem->ledger().rmrs(kW), static_cast<std::uint64_t>(kW))
        << "k=" << k;
    const double amortized =
        static_cast<double>(mem->ledger().total_rmrs()) /
        static_cast<double>(sim.history().participants().size());
    EXPECT_GT(amortized, prev_amortized) << "k=" << k;
    prev_amortized = amortized;
  }
  // One participating waiter: the signaler's W RMRs split two ways.
  EXPECT_GE(prev_amortized, kW / 2.0);
}

// ---------------------------------------------------------------------------
// Single-waiter variant.
// ---------------------------------------------------------------------------

TEST(SingleWaiter, SpecAndO1Rmrs) {
  for (const std::uint64_t seed : {3u, 17u, 255u}) {
    auto mem = make_dsm(3);
    auto alg = std::make_unique<DsmSingleWaiterSignal>(*mem);
    SignalingAlgorithm* a = alg.get();
    std::vector<Program> programs;
    // One waiter (p0) and one signaler (p2); p1 idle.
    programs.emplace_back(
        [a](ProcCtx& ctx) { return polling_waiter(ctx, a, 10'000); });
    programs.emplace_back(Program{});
    programs.emplace_back([a](ProcCtx& ctx) { return signaler(ctx, a); });
    Simulation sim(*mem, std::move(programs));
    RandomScheduler sched(seed);
    sim.run(sched, 1'000'000);
    ASSERT_TRUE(sim.all_terminated());
    expect_spec_holds(sim.history());
    EXPECT_LE(mem->ledger().rmrs(0), 3u);  // register + S read
    EXPECT_LE(mem->ledger().rmrs(2), 3u);  // S write + W read + V delivery
  }
}

// ---------------------------------------------------------------------------
// Blocking semantics via the default Wait() reduction.
// ---------------------------------------------------------------------------

TEST(BlockingSemantics, WaitReturnsOnlyAfterSignalBegins) {
  const int n_waiters = 4;
  auto mem = make_dsm(n_waiters + 1);
  auto alg = std::make_unique<DsmQueueSignal>(*mem);
  SignalingAlgorithm* a = alg.get();
  std::vector<Program> programs;
  for (int i = 0; i < n_waiters; ++i) {
    programs.emplace_back([a](ProcCtx& ctx) { return blocking_waiter(ctx, a); });
  }
  programs.emplace_back([a](ProcCtx& ctx) { return signaler(ctx, a); });
  Simulation sim(*mem, std::move(programs));
  RoundRobinScheduler rr;
  const auto result = sim.run(rr, 10'000'000);
  EXPECT_TRUE(result.all_terminated);
  const auto v = check_blocking_spec(sim.history());
  EXPECT_FALSE(v.has_value()) << v->what;
}

// ---------------------------------------------------------------------------
// The checker must catch the broken algorithm.
// ---------------------------------------------------------------------------

TEST(CheckerSharpness, BrokenAlgorithmIsFlagged) {
  // Schedule the signaler to completion first, then let a waiter poll: the
  // poll returns false after a completed Signal() — a clause-2 violation.
  auto mem = make_dsm(2);
  auto alg = std::make_unique<BrokenLocalSignal>(*mem);
  SignalingAlgorithm* a = alg.get();
  std::vector<Program> programs;
  programs.emplace_back([a](ProcCtx& ctx) { return polling_waiter(ctx, a, 3); });
  programs.emplace_back([a](ProcCtx& ctx) { return signaler(ctx, a); });
  Simulation sim(*mem, std::move(programs));
  SoloScheduler signaler_first(1);
  sim.run(signaler_first, 1'000);
  ASSERT_TRUE(sim.terminated(1));
  SoloScheduler waiter_next(0);
  sim.run(waiter_next, 1'000);
  ASSERT_TRUE(sim.all_terminated());
  const auto v = check_polling_spec(sim.history());
  ASSERT_TRUE(v.has_value()) << "checker failed to flag the broken algorithm";
}

TEST(CheckerSharpness, BrokenWorkloadStopsAtTheConvictingPoll) {
  // Each waiter's first Poll() that begins after the Signal() returns
  // false, which settles the verdict: the workload stops the waiter there
  // instead of letting it poll max_polls_per_waiter (1M) times.
  SignalingWorkloadOptions opt;
  opt.n_waiters = 2;
  opt.signaler_idle_polls = 4;
  const SignalingRun run = run_signaling_workload(
      make_dsm(3),
      [](SharedMemory& m) { return std::make_unique<BrokenLocalSignal>(m); },
      opt);
  EXPECT_LT(run.sim->history().size(), 1'000u);
  const auto v = check_polling_spec(run.sim->history());
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->what,
            "Poll() returned false although a Signal() completed before it "
            "began");
}

TEST(CheckerSharpness, SignalTwiceIsFlagged) {
  auto mem = make_dsm(1);
  auto alg = std::make_unique<CcFlagSignal>(*mem);
  SignalingAlgorithm* a = alg.get();
  std::vector<Program> programs;
  programs.emplace_back([a](ProcCtx& ctx) -> ProcTask {
    co_await ctx.call_begin(calls::kSignal);
    co_await a->signal(ctx);
    co_await ctx.call_end(calls::kSignal);
    co_await ctx.call_begin(calls::kSignal);
    co_await a->signal(ctx);
    co_await ctx.call_end(calls::kSignal);
  });
  Simulation sim(*mem, std::move(programs));
  RoundRobinScheduler rr;
  sim.run(rr, 1'000);
  EXPECT_TRUE(check_signal_once(sim.history()).has_value());
}

}  // namespace
}  // namespace rmrsim
