// SnapshotCache under tiny byte budgets: eviction order, post-eviction
// probes, and budgets too small to hold even one snapshot. The cache is the
// state-reconstruction engine behind SnapshotMode::kSnapshot, so "cache
// behaves badly when memory is scarce" would silently translate into
// "exploration slows down or — worse — diverges"; these tests pin the
// starved-cache contract directly and end-to-end.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "harness/drive.h"
#include "memory/shared_memory.h"
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
  ref_opt.snapshot_mode = SnapshotMode::kReplay;
  const ExploreResult ref = explore_dpor(build, check, ref_opt);
  ASSERT_TRUE(ref.exhausted);

  for (const int workers : {1, 2}) {
    DporOptions opt = ref_opt;
    opt.workers = workers;
    opt.snapshot_mode = SnapshotMode::kSnapshot;
    opt.snapshot_max_bytes = 1;
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
  ref_opt.snapshot_mode = SnapshotMode::kReplay;
  const ExploreResult ref = explore_dpor(build, check, ref_opt);

  const ExploreInstance probe = build();
  probe.sim->enable_fork_log();
  const auto snap = take_snapshot(probe);
  DporOptions opt = ref_opt;
  opt.snapshot_mode = SnapshotMode::kSnapshot;
  opt.snapshot_stride = 2;
  opt.snapshot_max_bytes = snap->approx_bytes() * 2;
  const ExploreResult churned = explore_dpor(build, check, opt);
  EXPECT_EQ(churned.nodes_visited, ref.nodes_visited);
  EXPECT_EQ(churned.complete_schedules, ref.complete_schedules);
  EXPECT_EQ(churned.exhausted, ref.exhausted);
  EXPECT_EQ(churned.violation, ref.violation);
  EXPECT_EQ(churned.violating_schedule, ref.violating_schedule);
  EXPECT_GT(churned.stats.snapshot_evictions, 0u)
      << "the budget was supposed to be tight enough to churn";
}

}  // namespace
}  // namespace rmrsim
