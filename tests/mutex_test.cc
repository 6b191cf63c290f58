// Mutual exclusion substrate tests: safety under many interleavings for
// every lock, liveness under fair schedules, and the RMR shapes that anchor
// the simulator against the known Section 3 bounds (experiment E5 in
// miniature).
#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "explore_fixtures.h"
#include "memory/cc_model.h"
#include "memory/shared_memory.h"
#include "mutex/bakery_lock.h"
#include "mutex/clh_lock.h"
#include "mutex/mcs_lock.h"
#include "mutex/peterson_lock.h"
#include "mutex/simple_locks.h"
#include "mutex/ya_lock.h"
#include "sched/schedulers.h"

namespace rmrsim {
namespace {

struct LockCase {
  const char* label;
  LockFactory factory;
};

std::vector<LockCase> all_locks() {
  return {
      {"yang-anderson",
       [](SharedMemory& m) { return std::make_unique<YangAndersonLock>(m); }},
      {"mcs", [](SharedMemory& m) { return std::make_unique<McsLock>(m); }},
      {"anderson-array",
       [](SharedMemory& m) { return std::make_unique<AndersonArrayLock>(m); }},
      {"ticket", [](SharedMemory& m) { return std::make_unique<TicketLock>(m); }},
      {"tas-spin", [](SharedMemory& m) { return std::make_unique<TasLock>(m); }},
      {"bakery",
       [](SharedMemory& m) { return std::make_unique<BakeryLock>(m); }},
      {"clh", [](SharedMemory& m) { return std::make_unique<ClhLock>(m); }},
      {"peterson-tournament",
       [](SharedMemory& m) {
         return std::make_unique<PetersonTournamentLock>(m);
       }},
  };
}

struct MutexRun {
  std::unique_ptr<SharedMemory> mem;
  std::shared_ptr<MutexAlgorithm> lock;
  std::unique_ptr<Simulation> sim;
};

MutexRun run_mutex(std::unique_ptr<SharedMemory> mem, const LockFactory& make,
                   int nprocs, int passages, Scheduler& sched,
                   std::uint64_t budget = 30'000'000) {
  MutexRun r;
  r.mem = std::move(mem);
  r.lock = make(*r.mem);
  std::vector<Program> programs;
  MutexAlgorithm* lock = r.lock.get();
  for (int i = 0; i < nprocs; ++i) {
    programs.emplace_back([lock, passages](ProcCtx& ctx) {
      return mutex_worker(ctx, lock, passages);
    });
  }
  r.sim = std::make_unique<Simulation>(*r.mem, std::move(programs));
  const auto result = r.sim->run(sched, budget);
  EXPECT_TRUE(result.all_terminated) << "lock run did not complete";
  return r;
}

// ---------------------------------------------------------------------------
// Safety sweep: every lock x both models x many seeds.
// ---------------------------------------------------------------------------

class MutexSafetySweep
    : public ::testing::TestWithParam<std::tuple<int, std::uint64_t, bool>> {};

TEST_P(MutexSafetySweep, NoOverlappingCriticalSections) {
  const int nprocs = std::get<0>(GetParam());
  const std::uint64_t seed = std::get<1>(GetParam());
  const bool use_cc = std::get<2>(GetParam());
  for (const LockCase& c : all_locks()) {
    SCOPED_TRACE(c.label);
    RandomScheduler sched(seed);
    auto mem = use_cc ? make_cc(nprocs) : make_dsm(nprocs);
    auto r = run_mutex(std::move(mem), c.factory, nprocs, 4, sched);
    const auto v = check_mutual_exclusion(r.sim->history());
    EXPECT_FALSE(v.has_value())
        << v->what << " at step " << v->step_index << " (p" << v->first
        << " vs p" << v->second << ")";
    for (ProcId p = 0; p < nprocs; ++p) {
      EXPECT_EQ(passages_completed(r.sim->history(), p), 4) << "p" << p;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MutexSafetySweep,
    ::testing::Combine(::testing::Values(2, 3, 5, 8),
                       ::testing::Values(11u, 222u, 3333u, 44444u, 555555u),
                       ::testing::Bool()));

// ---------------------------------------------------------------------------
// Checker sharpness: a "lock" that never locks must be convicted.
// ---------------------------------------------------------------------------

TEST(MutexChecker, ConvictsTheNoLock) {
  auto mem = make_dsm(2);
  auto lock = std::make_unique<NoLock>(*mem);
  std::vector<Program> programs;
  MutexAlgorithm* l = lock.get();
  for (int i = 0; i < 2; ++i) {
    programs.emplace_back(
        [l](ProcCtx& ctx) { return mutex_worker(ctx, l, 2); });
  }
  Simulation sim(*mem, std::move(programs));
  // Interleave begin/begin: step p0 to its CS begin, then run p1 fully.
  RoundRobinScheduler rr;
  sim.run(rr, 100000);
  EXPECT_TRUE(check_mutual_exclusion(sim.history()).has_value());
}

// ---------------------------------------------------------------------------
// RMR shapes (Section 3 anchors).
// ---------------------------------------------------------------------------

double rmrs_per_passage(const MutexRun& r, int nprocs, int passages) {
  return static_cast<double>(r.mem->ledger().total_rmrs()) /
         static_cast<double>(nprocs * passages);
}

TEST(MutexRmrShape, YangAndersonIsLogNInBothModels) {
  // Solo (uncontended) passages: exactly the tree-path cost. Contended runs
  // stay O(log N) too; the bench sweeps those.
  for (const bool cc : {false, true}) {
    for (const int n : {4, 16, 64}) {
      auto mem = cc ? make_cc(n) : make_dsm(n);
      RoundRobinScheduler rr;
      auto r = run_mutex(std::move(mem),
                         [](SharedMemory& m) {
                           return std::make_unique<YangAndersonLock>(m);
                         },
                         n, 3, rr);
      const double per = rmrs_per_passage(r, n, 3);
      const double levels = std::log2(n);
      EXPECT_GE(per, levels) << "n=" << n << " cc=" << cc;
      EXPECT_LE(per, 14 * levels) << "n=" << n << " cc=" << cc;
    }
  }
}

TEST(MutexRmrShape, McsIsConstantInBothModels) {
  for (const bool cc : {false, true}) {
    for (const int n : {4, 16, 64}) {
      auto mem = cc ? make_cc(n) : make_dsm(n);
      RoundRobinScheduler rr;
      auto r = run_mutex(std::move(mem),
                         [](SharedMemory& m) {
                           return std::make_unique<McsLock>(m);
                         },
                         n, 3, rr);
      EXPECT_LE(rmrs_per_passage(r, n, 3), 8.0) << "n=" << n << " cc=" << cc;
    }
  }
}

TEST(MutexRmrShape, AndersonArrayConstantInCcNotLocalSpinInDsm) {
  const int n = 8;
  const int passages = 3;
  RoundRobinScheduler rr_cc;
  auto cc = run_mutex(make_cc(n),
                      [](SharedMemory& m) {
                        return std::make_unique<AndersonArrayLock>(m);
                      },
                      n, passages, rr_cc);
  EXPECT_LE(rmrs_per_passage(cc, n, passages), 8.0);

  RoundRobinScheduler rr_dsm;
  auto dsm = run_mutex(make_dsm(n),
                       [](SharedMemory& m) {
                         return std::make_unique<AndersonArrayLock>(m);
                       },
                       n, passages, rr_dsm);
  // Spinning on rotating remote slots: far above O(1) under contention.
  EXPECT_GE(rmrs_per_passage(dsm, n, passages),
            3 * rmrs_per_passage(cc, n, passages));
}

TEST(MutexRmrShape, TasLockLfcuVsWriteThrough) {
  // Section 3's LFCU aside: TAS mutual exclusion is O(1) RMRs per passage on
  // an LFCU machine, while standard invalidation-based CC pays per retry.
  const int n = 8;
  const int passages = 3;
  RoundRobinScheduler rr1;
  auto lfcu = run_mutex(make_cc(n, CcPolicy::kLfcu),
                        [](SharedMemory& m) {
                          return std::make_unique<TasLock>(m);
                        },
                        n, passages, rr1);
  RoundRobinScheduler rr2;
  auto wt = run_mutex(make_cc(n, CcPolicy::kWriteThrough),
                      [](SharedMemory& m) {
                        return std::make_unique<TasLock>(m);
                      },
                      n, passages, rr2);
  EXPECT_LE(rmrs_per_passage(lfcu, n, passages), 6.0);
  EXPECT_GE(rmrs_per_passage(wt, n, passages),
            2 * rmrs_per_passage(lfcu, n, passages));
}

TEST(MutexRmrShape, NoCcDsmSeparationForMutex) {
  // The contrast that makes the signaling result interesting: for ME the
  // read/write cost is the same order in CC and DSM (Section 3 — "the tight
  // bound is the same for the CC model as for the DSM model").
  const int n = 16;
  const int passages = 3;
  RoundRobinScheduler rr1;
  auto dsm = run_mutex(make_dsm(n),
                       [](SharedMemory& m) {
                         return std::make_unique<YangAndersonLock>(m);
                       },
                       n, passages, rr1);
  RoundRobinScheduler rr2;
  auto cc = run_mutex(make_cc(n),
                      [](SharedMemory& m) {
                        return std::make_unique<YangAndersonLock>(m);
                      },
                      n, passages, rr2);
  const double a = rmrs_per_passage(dsm, n, passages);
  const double b = rmrs_per_passage(cc, n, passages);
  EXPECT_LE(a / b, 3.0);
  EXPECT_LE(b / a, 3.0);
}

}  // namespace
}  // namespace rmrsim
