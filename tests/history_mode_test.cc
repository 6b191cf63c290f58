// HistoryMode::kCountersOnly: the aggregate counters must agree exactly
// with a full-history run of the same deterministic schedule, and the
// record-backed relations must refuse rather than lie. (The explorers with
// the counters-only opt-in run in oracle_matrix_test.)
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "harness/drive.h"
#include "memory/shared_memory.h"
#include "metrics/publish.h"
#include "sched/fault.h"
#include "sched/schedulers.h"
#include "signaling/cc_flag.h"
#include "signaling/workload.h"

namespace rmrsim {
namespace {

SignalingRun run_workload(HistoryMode mode, std::uint64_t seed = 0) {
  SignalingWorkloadOptions opt;
  opt.n_waiters = 6;
  opt.signaler_idle_polls = 4;
  opt.scheduler_seed = seed;
  opt.history_mode = mode;
  return run_signaling_workload(
      make_dsm(opt.n_waiters + 1),
      [](SharedMemory& m) { return std::make_unique<CcFlagSignal>(m); }, opt);
}

void expect_same_counters(const Simulation& full, const Simulation& counters,
                          const SharedMemory& mf, const SharedMemory& mc) {
  const History& hf = full.history();
  const History& hc = counters.history();
  EXPECT_EQ(hf.size(), hc.size());
  EXPECT_EQ(hf.participants(), hc.participants());
  EXPECT_EQ(hf.finished(), hc.finished());
  EXPECT_EQ(hf.active(), hc.active());
  EXPECT_EQ(hf.total_rmrs(), hc.total_rmrs());
  EXPECT_EQ(hf.uses_ll_sc(), hc.uses_ll_sc());
  EXPECT_EQ(hf.crash_events(), hc.crash_events());
  EXPECT_EQ(hf.recovery_events(), hc.recovery_events());
  for (ProcId p = 0; p < full.nprocs(); ++p) {
    EXPECT_EQ(hf.rmrs(p), hc.rmrs(p)) << "proc " << p;
    EXPECT_EQ(hf.mem_steps(p), hc.mem_steps(p)) << "proc " << p;
    EXPECT_EQ(hf.is_finished(p), hc.is_finished(p)) << "proc " << p;
    EXPECT_EQ(mf.ledger().ops(p), mc.ledger().ops(p)) << "proc " << p;
    EXPECT_EQ(mf.ledger().rmrs(p), mc.ledger().rmrs(p)) << "proc " << p;
    EXPECT_EQ(full.steps_taken(p), counters.steps_taken(p)) << "proc " << p;
  }
  EXPECT_EQ(mf.ledger().total_ops(), mc.ledger().total_ops());
  EXPECT_EQ(mf.ledger().total_rmrs(), mc.ledger().total_rmrs());
  EXPECT_EQ(full.schedule(), counters.schedule());
  EXPECT_EQ(full.now(), counters.now());

  // publish_history is counter-backed: both modes publish the same values.
  MetricsRegistry rf, rc;
  publish_history(rf, hf);
  publish_history(rc, hc);
  for (const char* m : {"history.steps", "history.participants",
                        "history.finished", "history.crashes",
                        "history.recoveries"}) {
    EXPECT_DOUBLE_EQ(rf.value(m), rc.value(m)) << m;
  }
}

struct SignalingRow {
  std::string alg;
  int waiters;
  bool blocking;
};

// Same deterministic schedule twice, full history then counters-only; every
// counter-backed query, the ledger and the schedule must be identical — the
// guarantee that lets publishers switch to counters without perturbing
// artifacts. Each row runs under both memory models and both scheduler
// kinds. Polls are capped so the broken algorithm, whose Poll() never
// succeeds, still terminates.
void expect_counters_match_full(const std::vector<SignalingRow>& rows) {
  for (const SignalingRow& row : rows) {
    for (const char* model : {"dsm", "cc"}) {
      for (const std::uint64_t seed : {0, 7}) {
        SCOPED_TRACE(row.alg + (row.blocking ? " (blocking) " : " ") + model +
                     " seed " + std::to_string(seed));
        SignalingWorkloadOptions opt;
        opt.n_waiters = row.waiters;
        opt.blocking = row.blocking;
        // A polling signaler would register itself as single-waiter's W.
        opt.signaler_idle_polls =
            row.blocking || row.alg == "single-waiter" ? 0 : 4;
        opt.max_polls_per_waiter = 50;
        opt.scheduler_seed = seed;
        const auto run = [&](HistoryMode mode) {
          opt.history_mode = mode;
          return run_signaling_workload(
              make_model_by_name(model, row.waiters + 1),
              make_signal_factory_by_name(row.alg, row.waiters), opt);
        };
        const SignalingRun full = run(HistoryMode::kFull);
        const SignalingRun counters = run(HistoryMode::kCountersOnly);
        expect_same_counters(*full.sim, *counters.sim, *full.mem,
                             *counters.mem);
      }
    }
  }
}

TEST(HistoryMode, CountersMatchFullHistoryExactly) {
  expect_counters_match_full({{"flag", 6, false}, {"flag", 6, true}});
}

TEST(HistoryMode, CountersMatchFullHistoryEveryAlgorithm) {
  // The rest of the signaling registry; blocking-only algorithms run Wait().
  expect_counters_match_full({
      {"single-waiter", 1, false}, {"registration", 6, false},
      {"queue", 6, false},         {"cas", 6, false},
      {"llsc", 6, false},          {"rw-cas", 6, false},
      {"blocking-leader", 6, true}, {"broken", 6, false},
  });
}

TEST(HistoryMode, CountersMatchFullHistoryUnderCrashRecovery) {
  // The rmr: trigger reads the ledger between steps, so it fires at the
  // same point in both modes only if every step charges the ledger as it
  // is applied. A batched ledger would crash late or never.
  const auto crashy = [](HistoryMode mode) {
    MutexRunOptions opt;
    opt.nprocs = 3;
    opt.passages = 3;
    opt.make_lock = lock_factory_by_name("recoverable");
    MutexWorld w = build_mutex_world(opt);
    w.sim->set_history_mode(mode);
    RoundRobinScheduler rr;
    FaultScheduler faults(rr, parse_fault_plan("rmr:proc=0,n=3,recover=20"));
    EXPECT_TRUE(w.sim->run(faults, 1'000'000).all_terminated);
    return w;
  };
  const MutexWorld full = crashy(HistoryMode::kFull);
  const MutexWorld counters = crashy(HistoryMode::kCountersOnly);
  ASSERT_EQ(full.sim->fault_trace().size(), 2u) << "one crash, one recovery";
  ASSERT_EQ(counters.sim->fault_trace().size(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(full.sim->fault_trace()[i].kind,
              counters.sim->fault_trace()[i].kind);
    EXPECT_EQ(full.sim->fault_trace()[i].proc,
              counters.sim->fault_trace()[i].proc);
    EXPECT_EQ(full.sim->fault_trace()[i].at,
              counters.sim->fault_trace()[i].at);
  }
  expect_same_counters(*full.sim, *counters.sim, *full.mem, *counters.mem);
}

TEST(HistoryMode, RecordBackedQueriesRefuseInCountersOnly) {
  const SignalingRun r = run_workload(HistoryMode::kCountersOnly);
  const History& h = r.sim->history();
  EXPECT_GT(h.size(), 0u);
  EXPECT_THROW(h.records(), std::logic_error);
  EXPECT_THROW(h.sees(0, 1), std::logic_error);
  EXPECT_THROW(h.is_regular(), std::logic_error);
  EXPECT_THROW(h.to_string(), std::logic_error);
}

TEST(HistoryMode, SetModeRequiresEmptyHistory) {
  History h;
  h.set_mode(HistoryMode::kCountersOnly);
  h.set_mode(HistoryMode::kFull);  // still empty: fine
  StepRecord rec;
  rec.proc = 0;
  h.append(std::move(rec));
  EXPECT_THROW(h.set_mode(HistoryMode::kCountersOnly), std::logic_error);
}

}  // namespace
}  // namespace rmrsim
