// SnapshotCache under tiny byte budgets: eviction order, post-eviction
// probes, and budgets too small to hold even one snapshot. The cache is the
// state-reconstruction engine behind SnapshotMode::kSnapshot, so "cache
// behaves badly when memory is scarce" would silently translate into
// "exploration slows down or — worse — diverges"; these tests pin the
// starved-cache contract directly and end-to-end.
//
// Also pinned here, at the level of one world (the engines' replay-vs-
// snapshot parity runs in oracle_matrix_test):
//   - a world restored from a snapshot matches the replay-built world step
//     for step: schedule, history, RMR ledger totals and all future
//     behavior;
//   - crash side effects survive the fork: a crashed process's cleared LL
//     reservation stays cleared in the clone;
//   - ExploreStats::replayed_steps counts simulator steps actually
//     executed, not macro-schedule entries (the historical undercount).
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "harness/drive.h"
#include "memory/shared_memory.h"
#include "sched/schedulers.h"
#include "verify/dpor.h"
#include "verify/explorer.h"
#include "verify/snapshot_cache.h"

namespace rmrsim {
namespace {

/// One real snapshot, reused under many keys: these tests exercise the
/// cache's bookkeeping (bytes, LRU, lengths), which is content-agnostic.
std::shared_ptr<const WorldSnapshot> some_snapshot() {
  const ExploreInstance inst = signaling_explore_builder(
      "dsm", make_signal_factory_by_name("registration", 1), 1, 1)();
  inst.sim->enable_fork_log();
  return take_snapshot(inst);
}

TEST(SnapshotCacheEviction, BatchEvictionDropsLeastRecentlyUsedFirst) {
  const auto snap = some_snapshot();
  const std::size_t sz = snap->approx_bytes();
  // Budget holds exactly 3 snapshots; eviction targets 3/4 of the budget,
  // i.e. 2 snapshots survive the first overflow.
  SnapshotCache cache({.stride = 1, .max_bytes = sz * 3});

  ASSERT_TRUE(cache.insert({0}, snap));        // tick 1
  ASSERT_TRUE(cache.insert({0, 1}, snap));     // tick 2
  ASSERT_TRUE(cache.insert({0, 1, 2}, snap));  // tick 3
  ASSERT_EQ(cache.size(), 3u);
  ASSERT_EQ(cache.evictions(), 0u);

  // Touch {0}: its LRU tick is now the newest, so {0, 1} is the coldest.
  std::size_t len = 0;
  ASSERT_NE(cache.best_prefix({0}, &len), nullptr);
  ASSERT_EQ(len, 1u);

  // The 4th insert overflows; the batch eviction must drop the two coldest
  // ({0, 1} then {0, 1, 2}) and keep the touched {0} plus the new entry —
  // deterministically, every run, despite the unordered backing map.
  ASSERT_TRUE(cache.insert({3}, snap));
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.evictions(), 2u);
  EXPECT_TRUE(cache.contains({0}));
  EXPECT_TRUE(cache.contains({3}));
  EXPECT_FALSE(cache.contains({0, 1}));
  EXPECT_FALSE(cache.contains({0, 1, 2}));
  EXPECT_LE(cache.bytes(), sz * 3 - (sz * 3) / 4 + sz)
      << "post-eviction occupancy honors the 3/4 target";
}

TEST(SnapshotCacheEviction, BestPrefixFallsBackAfterDeepEntryIsEvicted) {
  const auto snap = some_snapshot();
  const std::size_t sz = snap->approx_bytes();
  SnapshotCache cache({.stride = 1, .max_bytes = sz * 3});

  // A chain of ancestors of the probe target {0, 1, 2, 0}.
  ASSERT_TRUE(cache.insert({0, 1, 2, 0}, snap));  // deepest — tick 1 (coldest)
  ASSERT_TRUE(cache.insert({0}, snap));           // tick 2
  ASSERT_TRUE(cache.insert({7}, snap));           // tick 3 (unrelated)
  std::size_t len = 0;
  ASSERT_NE(cache.best_prefix({0, 1, 2, 0}, &len), nullptr);
  EXPECT_EQ(len, 4u) << "exact match wins while it lives";

  // Refresh {7} then {0}: the LRU order is now {0,1,2,0} < {7} < {0}, so
  // the batch eviction (which drops the two coldest here) takes the deep
  // entry and {7} while the short ancestor survives.
  ASSERT_NE(cache.best_prefix({7}, &len), nullptr);
  ASSERT_NE(cache.best_prefix({0}, &len), nullptr);

  // Overflow: the deep entry goes; the probe must *fall back* to the
  // surviving 1-long ancestor — shorter match, never a stale deep hit.
  ASSERT_TRUE(cache.insert({8}, snap));
  EXPECT_FALSE(cache.contains({0, 1, 2, 0}));
  const auto hit = cache.best_prefix({0, 1, 2, 0}, &len);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(len, 1u);
}

TEST(SnapshotCacheEviction, BudgetSmallerThanOneSnapshotRefusesInserts) {
  const auto snap = some_snapshot();
  SnapshotCache cache({.stride = 1, .max_bytes = 1});

  EXPECT_FALSE(cache.insert({0}, snap)) << "snapshot alone exceeds the budget";
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.bytes(), 0u);
  EXPECT_EQ(cache.evictions(), 0u) << "refusal is not an eviction";
  std::size_t len = 99;
  EXPECT_EQ(cache.best_prefix({0}, &len), nullptr);
  EXPECT_EQ(len, 0u);
}

TEST(SnapshotCacheEviction, StarvedCacheExplorationStillMatchesReplayMode) {
  // End to end: snapshot mode with a 1-byte budget degenerates into replay
  // mode (every insert refused, every probe a miss) — slower, but verdicts,
  // schedules, and node counts must not move. Workers 1 and 2, because the
  // parallel search gives each work item its own starved private cache.
  const auto build = signaling_explore_builder(
      "dsm", make_signal_factory_by_name("registration", 2), 2, 1);
  const auto check = polling_spec_checker();

  DporOptions ref_opt;
  ref_opt.max_depth = 14;
  ref_opt.snapshot.mode = SnapshotMode::kReplay;
  const ExploreResult ref = explore_dpor(build, check, ref_opt);
  ASSERT_TRUE(ref.exhausted);

  for (const int workers : {1, 2}) {
    DporOptions opt = ref_opt;
    opt.workers = workers;
    opt.snapshot.mode = SnapshotMode::kSnapshot;
    opt.snapshot.max_bytes = 1;
    const ExploreResult starved = explore_dpor(build, check, opt);
    EXPECT_EQ(starved.nodes_visited, ref.nodes_visited);
    EXPECT_EQ(starved.complete_schedules, ref.complete_schedules);
    EXPECT_EQ(starved.truncated_schedules, ref.truncated_schedules);
    EXPECT_EQ(starved.exhausted, ref.exhausted);
    EXPECT_EQ(starved.violation, ref.violation);
    EXPECT_EQ(starved.violating_schedule, ref.violating_schedule);
    EXPECT_EQ(starved.stats.snapshot_hits, 0u) << "nothing fit, nothing hit";
  }
}

TEST(SnapshotCacheEviction, TinyButUsableBudgetStaysCorrectUnderChurn) {
  // A budget of ~2 snapshots forces constant eviction churn through a real
  // exploration. Results must match replay mode exactly; the cache must
  // actually evict (proving the churn happened, not a silent fallback).
  const auto build = signaling_explore_builder(
      "dsm", make_signal_factory_by_name("registration", 2), 2, 1);
  const auto check = polling_spec_checker();

  DporOptions ref_opt;
  ref_opt.max_depth = 14;
  ref_opt.snapshot.mode = SnapshotMode::kReplay;
  const ExploreResult ref = explore_dpor(build, check, ref_opt);

  const ExploreInstance probe = build();
  probe.sim->enable_fork_log();
  const auto snap = take_snapshot(probe);
  DporOptions opt = ref_opt;
  opt.snapshot.mode = SnapshotMode::kSnapshot;
  opt.snapshot.stride = 2;
  opt.snapshot.max_bytes = snap->approx_bytes() * 2;
  const ExploreResult churned = explore_dpor(build, check, opt);
  EXPECT_EQ(churned.nodes_visited, ref.nodes_visited);
  EXPECT_EQ(churned.complete_schedules, ref.complete_schedules);
  EXPECT_EQ(churned.exhausted, ref.exhausted);
  EXPECT_EQ(churned.violation, ref.violation);
  EXPECT_EQ(churned.violating_schedule, ref.violating_schedule);
  EXPECT_GT(churned.stats.snapshot_evictions, 0u)
      << "the budget was supposed to be tight enough to churn";
}

// ---- restored worlds ------------------------------------------------------

/// Every observable the parity contract covers, comparable across worlds.
void expect_worlds_identical(const ExploreInstance& a,
                             const ExploreInstance& b) {
  EXPECT_EQ(a.sim->schedule(), b.sim->schedule());
  EXPECT_EQ(a.sim->now(), b.sim->now());
  EXPECT_EQ(a.sim->history().size(), b.sim->history().size());
  EXPECT_EQ(a.sim->history().total_rmrs(), b.sim->history().total_rmrs());
  EXPECT_EQ(a.mem->ledger().total_ops(), b.mem->ledger().total_ops());
  EXPECT_EQ(a.mem->ledger().total_rmrs(), b.mem->ledger().total_rmrs());
  for (ProcId p = 0; p < static_cast<ProcId>(a.sim->nprocs()); ++p) {
    EXPECT_EQ(a.sim->history().rmrs(p), b.sim->history().rmrs(p)) << "p=" << p;
    EXPECT_EQ(a.mem->ledger().rmrs(p), b.mem->ledger().rmrs(p)) << "p=" << p;
    EXPECT_EQ(a.sim->terminated(p), b.sim->terminated(p)) << "p=" << p;
  }
}

TEST(SnapshotParity, RestoredWorldMatchesReplayBuiltWorld) {
  // Materialize the same prefix twice through one cache: the first call
  // builds from scratch (miss) and captures stride-aligned snapshots; the
  // second restores the deepest one and replays only the suffix. The two
  // worlds must agree on everything — including their entire future.
  const auto build = signaling_explore_builder(
      "dsm", make_signal_factory_by_name("registration", 2), 2, 1);
  const std::vector<ProcId> prefix{0, 1, 2, 0, 1, 2, 0, 1};

  SnapshotCache cache({.stride = 3, .max_bytes = std::size_t{8} << 20});
  ExploreStats cold, warm;
  ExploreInstance a = materialize_schedule(build, prefix, ReplayUnit::kMacro,
                                           /*counters_only=*/false, &cache,
                                           &cold);
  ExploreInstance b = materialize_schedule(build, prefix, ReplayUnit::kMacro,
                                           /*counters_only=*/false, &cache,
                                           &warm);
  EXPECT_EQ(cold.snapshot_hits, 0u);
  EXPECT_EQ(cold.snapshot_misses, 1u);
  EXPECT_GT(cold.snapshots_taken, 0u);
  EXPECT_EQ(warm.snapshot_hits, 1u);
  EXPECT_LT(warm.replayed_steps, cold.replayed_steps)
      << "the restored rebuild must replay only the suffix";
  expect_worlds_identical(a, b);

  // Same future: drive both restored-vs-rebuilt worlds to completion.
  fair_drive(*a.sim, 100'000);
  fair_drive(*b.sim, 100'000);
  expect_worlds_identical(a, b);
  EXPECT_TRUE(a.sim->all_terminated());
}

ProcTask ll_then_reads(ProcCtx& ctx, VarId x) {
  co_await ctx.ll(x);
  co_await ctx.read(x);
  co_await ctx.read(x);
}

ProcTask read_twice(ProcCtx& ctx, VarId x) {
  co_await ctx.read(x);
  co_await ctx.read(x);
}

TEST(SnapshotParity, CrashThenForkKeepsReservationsCleared) {
  // A crash destroys the victim's link register (its LL reservation). The
  // snapshot must capture the post-crash truth — the clone may not
  // resurrect the reservation by replaying the victim's pre-crash LL.
  auto mem = make_dsm(2);
  const VarId x = mem->allocate_global(0, "x");
  std::vector<Program> programs;
  programs.emplace_back([x](ProcCtx& ctx) { return ll_then_reads(ctx, x); });
  programs.emplace_back([x](ProcCtx& ctx) { return read_twice(ctx, x); });
  Simulation sim(*mem, std::move(programs));
  sim.enable_fork_log();

  sim.step(0);  // applies the LL
  ASSERT_TRUE(mem->store().has_reservation(0, x));

  // A fork of the live world preserves the reservation...
  Simulation::ForkedWorld live = sim.fork();
  EXPECT_TRUE(live.mem->store().has_reservation(0, x));

  // ...and a fork taken after the crash preserves the *cleared* state.
  sim.crash(0);
  ASSERT_FALSE(mem->store().has_reservation(0, x));
  Simulation::ForkedWorld crashed = sim.fork();
  EXPECT_FALSE(crashed.mem->store().has_reservation(0, x));
  EXPECT_TRUE(crashed.sim->crashed(0));
  ASSERT_EQ(sim.fault_trace().size(), 1u);
  EXPECT_EQ(crashed.sim->fault_trace().size(), 1u)
      << "the clone keeps the crash on record";

  // Recovery in the clone restarts the program; the reservation only comes
  // back once the re-executed LL is applied — never for free.
  crashed.sim->recover(0);
  EXPECT_FALSE(crashed.mem->store().has_reservation(0, x));
  crashed.sim->step(0);
  EXPECT_TRUE(crashed.mem->store().has_reservation(0, x));

  // The clone's activity never leaks back into the original world.
  EXPECT_FALSE(mem->store().has_reservation(0, x));
}

TEST(SnapshotParity, ReplayedStepsCountSimulatorStepsNotScheduleEntries) {
  // Regression pin: replayed_steps used to count macro-schedule ENTRIES.
  // Each macro step also flushes the process's local events, so the honest
  // count — the simulator's own schedule growth — is strictly larger.
  const auto build = signaling_explore_builder(
      "dsm", make_signal_factory_by_name("registration", 2), 2, 1);

  // Record a complete macro schedule and the real step count it costs.
  ExploreInstance probe = build();
  std::vector<ProcId> macro;
  while (!probe.sim->all_terminated()) {
    for (ProcId p = 0; p < static_cast<ProcId>(probe.sim->nprocs()); ++p) {
      if (probe.sim->runnable(p)) {
        macro.push_back(p);
        probe.sim->macro_step(p);
        break;
      }
    }
  }
  const std::uint64_t real_steps = probe.sim->schedule().size();
  ASSERT_GT(real_steps, macro.size())
      << "macro entries must undercount (each flushes events too)";

  ExploreStats stats;
  const ExploreInstance rebuilt =
      materialize_schedule(build, macro, ReplayUnit::kMacro,
                           /*counters_only=*/false, /*cache=*/nullptr, &stats);
  EXPECT_EQ(stats.replayed_steps, real_steps);
  EXPECT_EQ(rebuilt.sim->schedule().size(), real_steps);
  EXPECT_EQ(stats.snapshot_delta_steps, 0u) << "nothing was restored";
}

}  // namespace
}  // namespace rmrsim
