// Fork-vs-replay parity: the contract behind SnapshotMode::kSnapshot is
// that a world restored from a WorldSnapshot is behaviorally
// indistinguishable from one rebuilt by replaying its schedule from
// scratch. These tests enforce it end to end:
//
//   - a restored world matches the replay-built world step for step —
//     schedule, history, RMR ledger totals, and all future behavior;
//   - the explorer, the DPOR engine (workers 1 and 2), the crash-point
//     sweep, the crash x schedule product, and the shrinker produce
//     identical verdicts, schedules, and witnesses in both modes, in both
//     history modes;
//   - crash side effects survive the fork: a crashed process's cleared LL
//     reservation stays cleared in the clone;
//   - ExploreStats::replayed_steps counts simulator steps actually
//     executed, not macro-schedule entries (the historical undercount).
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "explore_fixtures.h"
#include "memory/shared_memory.h"
#include "sched/schedulers.h"
#include "signaling/broken.h"
#include "verify/dpor.h"
#include "verify/explorer.h"
#include "verify/shrink.h"
#include "verify/snapshot_cache.h"

namespace rmrsim {
namespace {

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

void expect_results_identical(const ExploreResult& replay,
                              const ExploreResult& snapshot) {
  EXPECT_EQ(replay.nodes_visited, snapshot.nodes_visited);
  EXPECT_EQ(replay.complete_schedules, snapshot.complete_schedules);
  EXPECT_EQ(replay.truncated_schedules, snapshot.truncated_schedules);
  EXPECT_EQ(replay.exhausted, snapshot.exhausted);
  EXPECT_EQ(replay.violation, snapshot.violation);
  EXPECT_EQ(replay.violating_schedule, snapshot.violating_schedule);
}

TEST(SnapshotParity, ExplorerVerdictsMatchAcrossModes) {
  // Passing and violating configurations, full and counters-only history.
  // (check_polling_spec reads records, so counters-only runs only on a
  // record-free checker — use a never-fires one for that leg.)
  const auto correct = signaling_explore_builder(
      "dsm", make_signal_factory_by_name("registration", 1), 1, 2);
  const auto broken = signaling_explore_builder(
      "dsm", signal_factory<LateFlagSignal>(ProcId{2}), 2, 2);
  const auto check = polling_spec_checker();

  for (const auto* build : {&correct, &broken}) {
    ExploreOptions opt;
    opt.max_depth = 12;
    opt.snapshot_mode = SnapshotMode::kReplay;
    const ExploreResult replay = explore_all_schedules(*build, check, opt);
    opt.snapshot_mode = SnapshotMode::kSnapshot;
    opt.snapshot_stride = 2;
    const ExploreResult snap = explore_all_schedules(*build, check, opt);
    expect_results_identical(replay, snap);
    EXPECT_GT(snap.stats.snapshot_hits, 0u);
    EXPECT_GT(snap.stats.snapshot_peak_bytes, 0u);
  }
  // The violating leg really does violate (and both modes agree it does).
  ExploreOptions vopt;
  vopt.max_depth = 12;
  vopt.snapshot_mode = SnapshotMode::kReplay;
  ASSERT_TRUE(explore_all_schedules(broken, check, vopt).violation.has_value());
}

TEST(SnapshotParity, ExplorerCountersOnlyHistoryMatchesAcrossModes) {
  const auto build = signaling_explore_builder(
      "dsm", make_signal_factory_by_name("registration", 1), 1, 1);
  // Counters-only worlds refuse record reads; a ledger-grade checker.
  const ExploreChecker check = [](const History& h) -> std::optional<std::string> {
    if (h.total_rmrs() > 1'000'000) return "absurd RMR count";
    return std::nullopt;
  };
  ExploreOptions opt;
  opt.max_depth = 12;
  opt.counters_only_history = true;
  opt.snapshot_mode = SnapshotMode::kReplay;
  const ExploreResult replay = explore_all_schedules(build, check, opt);
  opt.snapshot_mode = SnapshotMode::kSnapshot;
  opt.snapshot_stride = 3;
  const ExploreResult snap = explore_all_schedules(build, check, opt);
  expect_results_identical(replay, snap);
  EXPECT_GT(replay.complete_schedules, 0u);
}

TEST(SnapshotParity, DporVerdictsMatchAcrossModesAndWorkers) {
  const auto correct = signaling_explore_builder(
      "dsm", make_signal_factory_by_name("registration", 2), 2, 1);
  const auto broken = signaling_explore_builder(
      "dsm", signal_factory<LateFlagSignal>(ProcId{2}), 2, 2);
  const auto check = polling_spec_checker();

  for (const auto* build : {&correct, &broken}) {
    DporOptions opt;
    opt.max_depth = 20;
    opt.snapshot_mode = SnapshotMode::kReplay;
    const ExploreResult replay = explore_dpor(*build, check, opt);
    ASSERT_TRUE(replay.exhausted);

    for (const int workers : {1, 2}) {
      DporOptions sopt = opt;
      sopt.workers = workers;
      sopt.snapshot_mode = SnapshotMode::kSnapshot;
      sopt.snapshot_stride = 3;
      const ExploreResult snap = explore_dpor(*build, check, sopt);
      expect_results_identical(replay, snap);
      EXPECT_EQ(replay.stats.sleep_set_prunes, snap.stats.sleep_set_prunes);
      EXPECT_EQ(replay.stats.backtrack_points, snap.stats.backtrack_points);
    }
  }
}

TEST(SnapshotParity, CrashSweepMatchesAcrossModes) {
  const auto build =
      mutex_explore_builder("dsm", lock_factory_by_name("recoverable"), 3, 2);
  const auto check = mutual_exclusion_checker();

  CrashSweepOptions opt;
  opt.snapshot_mode = SnapshotMode::kReplay;
  const CrashSweepResult replay = sweep_crash_points(build, check, 0, opt);
  opt.snapshot_mode = SnapshotMode::kSnapshot;
  opt.snapshot_stride = 8;
  const CrashSweepResult snap = sweep_crash_points(build, check, 0, opt);

  EXPECT_EQ(replay.crash_points, snap.crash_points);
  EXPECT_EQ(replay.completed, snap.completed);
  EXPECT_EQ(replay.stuck, snap.stuck);
  EXPECT_EQ(replay.wedged, snap.wedged);
  EXPECT_EQ(replay.violation, snap.violation);
  EXPECT_EQ(replay.violating_crash_point, snap.violating_crash_point);
  EXPECT_GT(snap.stats.snapshot_hits, 0u)
      << "successive crash points share prefixes; the cache must serve them";
  EXPECT_LT(snap.stats.replayed_steps, replay.stats.replayed_steps);
}

TEST(SnapshotParity, CrashProductMatchesAcrossModes) {
  const auto build =
      mutex_explore_builder("dsm", lock_factory_by_name("recoverable"), 2, 2);
  const auto check = mutual_exclusion_checker();

  CrashProductOptions opt;
  opt.explore.max_depth = 40;
  opt.max_schedules = 8;
  opt.explore.snapshot_mode = SnapshotMode::kReplay;
  const CrashProductResult replay = sweep_crash_product(build, check, 0, opt);
  opt.explore.snapshot_mode = SnapshotMode::kSnapshot;
  opt.explore.snapshot_stride = 4;
  const CrashProductResult snap = sweep_crash_product(build, check, 0, opt);

  EXPECT_EQ(replay.schedules_swept, snap.schedules_swept);
  EXPECT_EQ(replay.schedule_violation, snap.schedule_violation);
  EXPECT_EQ(replay.violating_schedule, snap.violating_schedule);
  EXPECT_EQ(replay.sweep.crash_points, snap.sweep.crash_points);
  EXPECT_EQ(replay.sweep.completed, snap.sweep.completed);
  EXPECT_EQ(replay.sweep.stuck, snap.sweep.stuck);
  EXPECT_EQ(replay.sweep.wedged, snap.sweep.wedged);
  EXPECT_EQ(replay.sweep.violation, snap.sweep.violation);
  EXPECT_EQ(replay.sweep.violating_crash_point,
            snap.sweep.violating_crash_point);
  EXPECT_GT(replay.schedules_swept, 0);
}

TEST(SnapshotParity, ShrinkWitnessMatchesAcrossModes) {
  const auto build = signaling_explore_builder(
      "dsm", make_signal_factory_by_name("broken", 1), 1, 2);
  const auto check = polling_spec_checker();
  const ExploreResult found =
      explore_dpor(build, check, {.max_depth = 20, .max_nodes = 200'000});
  ASSERT_TRUE(found.violation.has_value());

  ShrinkOptions opt;
  opt.snapshot_mode = SnapshotMode::kReplay;
  const auto replay =
      shrink_counterexample(build, check, found.violating_schedule, opt);
  opt.snapshot_mode = SnapshotMode::kSnapshot;
  opt.snapshot_stride = 1;
  const auto snap =
      shrink_counterexample(build, check, found.violating_schedule, opt);

  ASSERT_TRUE(replay.has_value());
  ASSERT_TRUE(snap.has_value());
  EXPECT_EQ(replay->schedule, snap->schedule);
  EXPECT_EQ(replay->message, snap->message);
  EXPECT_EQ(replay->candidates_tried, snap->candidates_tried);
  EXPECT_EQ(replay->candidates_reproduced, snap->candidates_reproduced);
  EXPECT_EQ(replay->message, *found.violation);
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
