// The oracle matrix: explore is trusted because independent engines agree
// with DPOR on every world of one corpus (explore_corpus() in
// explore_fixtures.h). Each oracle pair is one test that runs on every row
// it applies to, except the naive explorer against DPOR, which is one test
// per world: a naive tree is the expensive search, so only the trees of
// `small` rows are searched by a second test (the naive-modes pair).
//
//   naive vs DPOR   per world: same verdict and message (the witnesses may
//                   differ: both are lex-least, of different trees), the
//                   exhaustion the row expects and the row's minimum node
//                   ratio. Named by kNaiveTests, or NaiveVsDpor.<row>.
//   naive modes     small rows: the naive explorer in replay mode against
//                   snapshot mode; clean small rows also in counters-only
//                   history in both modes.
//   DPOR workers    workers 1, 2 and 4, on clean and on violating rows.
//   trunk depths    trunk depth 0 (one work item), 2, 6 and the row's depth
//                   (all trunk), at workers 2: same verdict and witness.
//   DPOR modes      replay mode at workers 1 and 2 against snapshot mode;
//                   on small rows, snapshot stride 0 against stride 1, in
//                   DPOR and in the naive explorer (the one stride rule).
//   loopback        the loopback executor (the dist wire codec and
//                   run_dist_item in-process) against the in-process
//                   search, in both snapshot modes; an executor's failed
//                   result without a reason still quarantines its item.
//   counters-only   DPOR in counters-only history against full history.
//   crash / shrink  tagged rows: the crash-point sweep, the crash x schedule
//                   product and the shrinker in both snapshot modes.
//
// Results must be identical apart from mode-specific counters. A new world
// is one corpus row; it gets every pair.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <iterator>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/check.h"
#include "explore_fixtures.h"
#include "runtime/snapshot_codec.h"
#include "verify/dist/protocol.h"
#include "verify/dpor.h"
#include "verify/explorer.h"
#include "verify/shrink.h"
#include "verify/snapshot_cache.h"

namespace rmrsim {

namespace {

DporOptions dpor_options(const ExploreWorld& w) {
  DporOptions opt;
  opt.max_depth = w.depth;
  opt.max_nodes = w.max_nodes;
  return opt;
}

/// What two searches of the same tree must agree on.
void expect_same_search(const ExploreResult& a, const ExploreResult& b) {
  EXPECT_EQ(a.nodes_visited, b.nodes_visited);
  EXPECT_EQ(a.complete_schedules, b.complete_schedules);
  EXPECT_EQ(a.truncated_schedules, b.truncated_schedules);
  EXPECT_EQ(a.exhausted, b.exhausted);
  EXPECT_EQ(a.violation, b.violation);
  EXPECT_EQ(a.violating_schedule, b.violating_schedule);
}

/// Two DPOR searches also agree on the reduction's accounting. The steps
/// replayed to rebuild nodes depend on what the snapshot cache holds, so
/// they are compared only between searches whose caches match.
void expect_same_dpor(const ExploreResult& a, const ExploreResult& b,
                      bool same_cache) {
  expect_same_search(a, b);
  EXPECT_EQ(a.quarantined_items.size(), b.quarantined_items.size());
  if (same_cache) {
    EXPECT_EQ(a.stats.replayed_steps, b.stats.replayed_steps);
  }
  EXPECT_EQ(a.stats.sleep_set_prunes, b.stats.sleep_set_prunes);
  EXPECT_EQ(a.stats.backtrack_points, b.stats.backtrack_points);
  EXPECT_EQ(a.stats.sleep_blocked_paths, b.stats.sleep_blocked_paths);
  EXPECT_EQ(a.stats.naive_tree_estimate, b.stats.naive_tree_estimate);
  EXPECT_EQ(a.stats.rounds, b.stats.rounds);
  EXPECT_EQ(a.stats.work_items, b.stats.work_items);
}

/// Two searches whose caches follow the same rebuild policy agree on every
/// replay and snapshot counter too.
void expect_same_rebuilds(const ExploreStats& a, const ExploreStats& b) {
  EXPECT_EQ(a.replayed_steps, b.replayed_steps);
  EXPECT_EQ(a.snapshot_hits, b.snapshot_hits);
  EXPECT_EQ(a.snapshot_misses, b.snapshot_misses);
  EXPECT_EQ(a.snapshots_taken, b.snapshots_taken);
  EXPECT_EQ(a.snapshot_evictions, b.snapshot_evictions);
  EXPECT_EQ(a.snapshot_delta_steps, b.snapshot_delta_steps);
  EXPECT_EQ(a.snapshot_peak_bytes, b.snapshot_peak_bytes);
}

/// The verdict DPOR gives on the world: the row's, unless the row pins a
/// known miss.
bool dpor_violates(const ExploreWorld& w) {
  return w.violates && !w.dpor_misses;
}

/// How the depth bound cut a clean world's search.
void expect_cut(const ExploreWorld& w, const ExploreResult& r) {
  if (w.violates) return;
  EXPECT_EQ(r.complete_schedules > 0, w.cut != DepthCut::kAll)
      << r.complete_schedules << " complete schedules";
  EXPECT_EQ(r.truncated_schedules > 0, w.cut != DepthCut::kNone)
      << r.truncated_schedules << " truncated schedules";
}

// ---- the loopback executor: the dist stack minus fork --------------------

/// Runs every item through the complete wire path — encode the item and
/// its snapshot, decode both (grafting immutables from a locally built
/// proto, exactly like a worker), execute via run_dist_item, then encode
/// and decode the outcome — all in-process. Any divergence the codec or
/// run_dist_item introduces shows up as a merge difference.
class LoopbackExecutor : public DistItemExecutor {
 public:
  LoopbackExecutor(ExploreBuilder build, ExploreChecker check,
                   DporOptions options)
      : build_(std::move(build)),
        check_(std::move(check)),
        options_(std::move(options)) {
    if (options_.snapshot.mode == SnapshotMode::kSnapshot) {
      proto_ = take_snapshot(fresh_world(
          build_, options_.counters_only_history, /*snapshots=*/true));
    }
  }

  void run_round(
      const std::vector<DporWorkItem>& items,
      const std::vector<std::size_t>& live,
      const std::function<std::uint64_t()>& committed_nodes,
      const std::function<void(std::size_t, DistItemResult&&)>& done)
      override {
    for (const std::size_t idx : live) {
      dist::ItemMsg msg;
      msg.index = idx;
      msg.base_nodes = committed_nodes();
      msg.item.schedule = items[idx].schedule;
      msg.item.path = items[idx].path;
      msg.item.sleep = items[idx].sleep;
      msg.item.naive_product = items[idx].naive_product;
      msg.item.naive_sum = items[idx].naive_sum;
      if (items[idx].root_snap != nullptr) {
        msg.snapshot = encode_world_snapshot(*items[idx].root_snap);
      }

      dist::ItemMsg got = dist::decode_item(dist::encode_item(msg));
      if (!got.snapshot.empty()) {
        got.item.root_snap = std::make_shared<const WorldSnapshot>(
            decode_world_snapshot(got.snapshot, *proto_));
      }
      dist::OutcomeMsg out;
      out.index = got.index;
      out.result =
          run_dist_item(build_, check_, options_, got.item, got.base_nodes);
      dist::OutcomeMsg final_out =
          dist::decode_outcome(dist::encode_outcome(out));
      done(static_cast<std::size_t>(final_out.index),
           std::move(final_out.result));
    }
  }

 private:
  ExploreBuilder build_;
  ExploreChecker check_;
  DporOptions options_;
  std::shared_ptr<const WorldSnapshot> proto_;
};

// ---- naive vs DPOR: one test per world ------------------------------------

/// The test that carries a world's naive-vs-DPOR check, where the world had
/// its own model-checking test before the corpus existed. Rows not listed
/// here run as NaiveVsDpor.<row>.
constexpr std::pair<std::string_view, std::string_view> kNaiveTests[] = {
    {"flag_cc_2w2p", "ExhaustiveSignaling.CcFlagAllSchedules"},
    {"flag_dsm_2w2p", "ExplorerEquivalence.CcFlagBothModels"},
    {"registration_1w2p", "ExplorerEquivalence.RegistrationOneWaiter"},
    {"registration_1w2p_cc",
     "ExhaustiveSignaling.RegistrationOneWaiterAllSchedules"},
    {"registration_2w1p", "ExplorerEquivalence.DporVisitsTenfoldFewerNodes"},
    {"registration_3w1p", "ExplorerEquivalence.DporExhaustsWhereNaiveCannot"},
    {"single_waiter_1w3p", "ExplorerEquivalence.SingleWaiter"},
    {"single_waiter_1w3p_cc", "ExhaustiveSignaling.SingleWaiterAllSchedules"},
    {"broken_1w1p", "ExplorerEquivalence.BrokenLocalViolationAgrees"},
    {"broken_1w2p", "ExhaustiveSignaling.BrokenAlgorithmHasAViolatingSchedule"},
    {"tas_2p1", "ExplorerEquivalence.TasLockMutex"},
    {"tas_2p1_cc", "ExhaustiveMutex.TasLockTwoProcsAllSchedulesToDepth"},
    {"mcs_2p1", "ExplorerEquivalence.McsLockMutex"},
    {"mcs_2p1_cc", "ExhaustiveMutex.McsTwoProcsAllSchedulesToDepth"},
    {"ya_2p1", "ExhaustiveMutex.YangAndersonTwoProcsAllSchedulesToDepth"},
    {"nolock_2p1", "ExplorerEquivalence.NoLockViolationAgrees"},
    {"nolock_3p1", "ExhaustiveMutex.NoLockViolationFound"},
    {"session_gme_2p", "ExhaustiveGme.SessionGmeTwoProcsAllSchedulesToDepth"},
};

void expect_naive_agrees(const ExploreWorld& w) {
  const ExploreResult naive = explore_all_schedules(
      w.build, w.check, {.max_depth = w.depth, .max_nodes = w.max_nodes});
  const ExploreResult dpor = explore_dpor(w.build, w.check, dpor_options(w));

  ASSERT_TRUE(dpor.exhausted) << "DPOR tripped the node budget at "
                              << dpor.nodes_visited;
  EXPECT_EQ(naive.violation.has_value(), w.violates)
      << naive.violation.value_or("clean");
  EXPECT_EQ(naive.violating_schedule.empty(), !w.violates);
  if (w.dpor_misses) {
    EXPECT_FALSE(dpor.violation.has_value());
  } else {
    EXPECT_EQ(naive.violation, dpor.violation);
  }
  EXPECT_EQ(naive.exhausted, w.naive == NaiveReach::kExhausts)
      << "naive explorer visited " << naive.nodes_visited << " nodes";
  if (naive.exhausted) expect_cut(w, naive);
  if (w.naive == NaiveReach::kBudget) {
    EXPECT_LT(dpor.nodes_visited, naive.nodes_visited);
  }
  if (w.min_ratio > 0) {
    EXPECT_GE(naive.nodes_visited, w.min_ratio * dpor.nodes_visited)
        << "naive " << naive.nodes_visited << " vs dpor "
        << dpor.nodes_visited;
    EXPECT_GT(dpor.stats.sleep_set_prunes, 0u);
  }
}

class NaiveVsDpor : public ::testing::Test {
 public:
  explicit NaiveVsDpor(ExploreWorld w) : w_(std::move(w)) {}
  void TestBody() override {
    SCOPED_TRACE(w_.name);
    expect_naive_agrees(w_);
  }

 private:
  ExploreWorld w_;
};

/// Registers one naive-vs-DPOR test per corpus row the naive explorer runs
/// on. The factory returns ::testing::Test* so that these tests share their
/// suites with plain TESTs.
void register_naive_tests() {
  std::size_t named = 0;
  for (const ExploreWorld& w : explore_corpus()) {
    if (w.naive == NaiveReach::kSkipped) continue;
    std::string suite = "NaiveVsDpor";
    std::string name = w.name;
    for (const auto& [row, test] : kNaiveTests) {
      if (row != w.name) continue;
      const std::size_t dot = test.find('.');
      suite = test.substr(0, dot);
      name = test.substr(dot + 1);
      ++named;
    }
    ::testing::RegisterTest(
        suite.c_str(), name.c_str(), nullptr, nullptr, __FILE__, __LINE__,
        [w]() -> ::testing::Test* { return new NaiveVsDpor(w); });
  }
  ensure(named == std::size(kNaiveTests),
         "every kNaiveTests row is a corpus row the naive explorer runs on");
}

// ---- naive modes: small rows ------------------------------------------------

TEST(SnapshotParity, ExplorerVerdictsMatchAcrossModes) {
  for (const ExploreWorld& w : explore_corpus()) {
    if (!w.small) continue;
    SCOPED_TRACE(w.name);
    ExploreOptions opt{.max_depth = w.depth, .max_nodes = w.max_nodes};
    opt.snapshot.mode = SnapshotMode::kReplay;
    const ExploreResult replay = explore_all_schedules(w.build, w.check, opt);
    // A short stride makes the snapshot search restore even when it ends
    // after a few nodes.
    opt.snapshot.mode = SnapshotMode::kSnapshot;
    opt.snapshot.stride = 2;
    const ExploreResult snap = explore_all_schedules(w.build, w.check, opt);
    expect_same_search(replay, snap);
    EXPECT_EQ(snap.violation.has_value(), w.violates);
    EXPECT_GT(snap.stats.snapshot_hits, 0u);
    EXPECT_GT(snap.stats.snapshot_peak_bytes, 0u);
  }
}

TEST(SnapshotParity, ExplorerCountersOnlyHistoryMatchesAcrossModes) {
  // On a clean world a counter-grade checker never fires either, so the
  // counters-only searches walk the world's whole tree in both modes.
  const ExploreChecker counters_check = counter_grade_checker();
  for (const ExploreWorld& w : explore_corpus()) {
    if (!w.small || w.violates) continue;
    SCOPED_TRACE(w.name);
    ExploreOptions opt{.max_depth = w.depth, .max_nodes = w.max_nodes};
    opt.counters_only_history = true;
    opt.snapshot.mode = SnapshotMode::kReplay;
    const ExploreResult replay =
        explore_all_schedules(w.build, counters_check, opt);
    opt.snapshot.mode = SnapshotMode::kSnapshot;
    opt.snapshot.stride = 3;
    const ExploreResult snap =
        explore_all_schedules(w.build, counters_check, opt);
    expect_same_search(replay, snap);
    EXPECT_FALSE(snap.violation.has_value()) << *snap.violation;
    EXPECT_TRUE(snap.exhausted);
    expect_cut(w, snap);
  }
}

// ---- DPOR workers ---------------------------------------------------------

/// DPOR at workers 1, 2 and 4 on every row whose DPOR verdict is
/// `violating`. Workers 1 is also checked against the row here.
void expect_workers_agree(bool violating) {
  for (const ExploreWorld& w : explore_corpus()) {
    if (dpor_violates(w) != violating) continue;
    SCOPED_TRACE(w.name);
    const DporOptions opt = dpor_options(w);
    const ExploreResult one = explore_dpor(w.build, w.check, opt);
    ASSERT_TRUE(one.exhausted)
        << "a corpus world must fit its node budget: results are "
           "deterministic across engines only then";
    EXPECT_EQ(one.violation.has_value(), violating)
        << one.violation.value_or("clean");
    EXPECT_EQ(one.violating_schedule.empty(), !violating);
    EXPECT_GT(one.stats.naive_tree_estimate, 0.0);
    expect_cut(w, one);
    for (const int workers : {2, 4}) {
      SCOPED_TRACE("workers=" + std::to_string(workers));
      DporOptions many = opt;
      many.workers = workers;
      expect_same_dpor(one, explore_dpor(w.build, w.check, many), true);
    }
  }
}

TEST(ExplorerEquivalence, WorkersAgreeOnCleanConfig) {
  expect_workers_agree(false);
}

TEST(ExplorerEquivalence, WorkersAgreeOnViolatingConfig) {
  expect_workers_agree(true);
}

// ---- DPOR trunk depths ------------------------------------------------------

TEST(ExplorerEquivalence, TrunkDepthsAgree) {
  // The trunk and the work items run one node engine, so where the search
  // splits between them must not change what it finds. Node counts may
  // differ: the trunk expands in canonical order round by round, an item
  // depth-first, and the sleep sets that prune depend on that order.
  for (const ExploreWorld& w : explore_corpus()) {
    SCOPED_TRACE(w.name);
    DporOptions opt = dpor_options(w);
    opt.workers = 2;
    opt.trunk_depth = 0;  // the whole search is one work item
    const ExploreResult item = explore_dpor(w.build, w.check, opt);
    ASSERT_TRUE(item.exhausted);
    EXPECT_EQ(item.violation.has_value(), dpor_violates(w))
        << item.violation.value_or("clean");
    expect_cut(w, item);
    // At the row's depth the whole search is trunk.
    for (const int trunk : {2, 6, w.depth}) {
      SCOPED_TRACE("trunk_depth=" + std::to_string(trunk));
      opt.trunk_depth = trunk;
      const ExploreResult r = explore_dpor(w.build, w.check, opt);
      EXPECT_EQ(r.exhausted, item.exhausted);
      EXPECT_EQ(r.violation, item.violation);
      EXPECT_EQ(r.violating_schedule, item.violating_schedule);
      expect_cut(w, r);
    }
  }
}

// ---- DPOR modes -------------------------------------------------------------

// The last input, on small rows, is the stride rule, which every engine
// takes from its snapshot cache: a stride below 1 reads as 1, in DPOR and
// in the naive explorer alike.
TEST(SnapshotParity, DporVerdictsMatchAcrossModesAndWorkers) {
  for (const ExploreWorld& w : explore_corpus()) {
    SCOPED_TRACE(w.name);
    const DporOptions opt = dpor_options(w);
    const ExploreResult snap = explore_dpor(w.build, w.check, opt);
    for (const int workers : {1, 2}) {
      SCOPED_TRACE("replay mode, workers=" + std::to_string(workers));
      DporOptions replay_opt = opt;
      replay_opt.snapshot.mode = SnapshotMode::kReplay;
      replay_opt.workers = workers;
      expect_same_dpor(snap, explore_dpor(w.build, w.check, replay_opt),
                       false);
    }

    if (!w.small) continue;
    SCOPED_TRACE("snapshot stride 0 against stride 1");
    DporOptions one = opt;
    one.snapshot.stride = 1;
    DporOptions zero = opt;
    zero.snapshot.stride = 0;
    const ExploreResult dpor_one = explore_dpor(w.build, w.check, one);
    const ExploreResult dpor_zero = explore_dpor(w.build, w.check, zero);
    expect_same_dpor(dpor_one, dpor_zero, true);
    expect_same_rebuilds(dpor_one.stats, dpor_zero.stats);
    const ExploreResult naive_one = explore_all_schedules(w.build, w.check, one);
    const ExploreResult naive_zero =
        explore_all_schedules(w.build, w.check, zero);
    expect_same_search(naive_one, naive_zero);
    expect_same_rebuilds(naive_one.stats, naive_zero.stats);
    EXPECT_GT(naive_zero.stats.snapshots_taken, 0u);
  }
}

// ---- loopback -------------------------------------------------------------

/// The loopback executor against the in-process search in `mode`.
void expect_loopback_agrees(SnapshotMode mode) {
  for (const ExploreWorld& w : explore_corpus()) {
    SCOPED_TRACE(w.name);
    DporOptions opt = dpor_options(w);
    opt.snapshot.mode = mode;
    const ExploreResult in_process = explore_dpor(w.build, w.check, opt);
    LoopbackExecutor exec(w.build, w.check, opt);
    opt.dist = &exec;
    const ExploreResult dist = explore_dpor(w.build, w.check, opt);
    expect_same_dpor(in_process, dist, true);
    if (!w.violates) {  // a violating search may end inside the trunk
      EXPECT_GT(dist.stats.work_items, 0u)
          << "the world must actually exercise the executor";
    }
  }
}

TEST(DistExecutor, LoopbackMergesByteIdenticalToInProcess) {
  expect_loopback_agrees(SnapshotMode::kSnapshot);
}

TEST(DistExecutor, LoopbackMatchesInReplayModeToo) {
  expect_loopback_agrees(SnapshotMode::kReplay);
}

TEST(DistExecutor, RefusesCompleteScheduleCallback) {
  // Complete schedules never travel over the dist wire, so a search that
  // asks for them must fail by name rather than silently collect nothing.
  const ExploreWorld w = explore_corpus().front();
  DporOptions opt = dpor_options(w);
  LoopbackExecutor exec(w.build, w.check, opt);
  opt.dist = &exec;
  opt.on_complete_schedule = [](const std::vector<ProcId>&) {};
  try {
    explore_dpor(w.build, w.check, opt);
    FAIL() << "explore_dpor accepted on_complete_schedule with a dist executor";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("on_complete_schedule"),
              std::string::npos)
        << e.what();
  }
}

TEST(DistExecutor, FailureWithoutReasonIsQuarantined) {
  // A result can arrive failed and without a reason (the wire decodes any
  // string, and any executor may send one). It must still quarantine its
  // item: merged as an empty healthy outcome, the item's subtree would go
  // missing from a search that still claims to be exhausted.
  class ReasonlessFailures : public DistItemExecutor {
   public:
    void run_round(
        const std::vector<DporWorkItem>&, const std::vector<std::size_t>& live,
        const std::function<std::uint64_t()>&,
        const std::function<void(std::size_t, DistItemResult&&)>& done)
        override {
      for (const std::size_t idx : live) {
        dist::OutcomeMsg out;
        out.index = idx;
        out.result.ok = false;  // and no quarantine_reason
        dist::OutcomeMsg got = dist::decode_outcome(dist::encode_outcome(out));
        done(static_cast<std::size_t>(got.index), std::move(got.result));
      }
    }
  };
  // A clean row: its search runs work items.
  const std::vector<ExploreWorld> corpus = explore_corpus();
  const auto w = std::find_if(corpus.begin(), corpus.end(),
                              [](const ExploreWorld& x) { return !x.violates; });
  ASSERT_NE(w, corpus.end());
  SCOPED_TRACE(w->name);
  ReasonlessFailures exec;
  DporOptions opt = dpor_options(*w);
  opt.dist = &exec;
  const ExploreResult r = explore_dpor(w->build, w->check, opt);
  EXPECT_FALSE(r.exhausted);
  ASSERT_FALSE(r.quarantined_items.empty());
  for (const auto& q : r.quarantined_items) {
    EXPECT_EQ(q.reason, "worker process failed");
  }
}

// ---- counters-only history ------------------------------------------------

TEST(HistoryMode, DporVerdictIdenticalWithCountersOnly) {
  const ExploreChecker counters_check = counter_grade_checker();
  for (const ExploreWorld& w : explore_corpus()) {
    SCOPED_TRACE(w.name);
    const DporOptions opt = dpor_options(w);
    const ExploreResult full = explore_dpor(w.build, counters_check, opt);
    DporOptions counters_opt = opt;
    counters_opt.counters_only_history = true;
    // Counters-only snapshots are smaller, so the cache evicts differently.
    expect_same_dpor(full, explore_dpor(w.build, counters_check, counters_opt),
                     false);
  }
}

// ---- crash sweep, crash product, shrinker: tagged rows ----------------------

TEST(SnapshotParity, CrashSweepMatchesAcrossModes) {
  for (const ExploreWorld& w : explore_corpus()) {
    if (!w.crash_sweep) continue;
    SCOPED_TRACE(w.name);
    CrashSweepOptions opt;
    opt.snapshot.mode = SnapshotMode::kReplay;
    const CrashSweepResult replay =
        sweep_crash_points(w.build, w.check, 0, opt);
    opt.snapshot.mode = SnapshotMode::kSnapshot;
    opt.snapshot.stride = 8;
    const CrashSweepResult snap = sweep_crash_points(w.build, w.check, 0, opt);

    EXPECT_EQ(replay.crash_points, snap.crash_points);
    EXPECT_EQ(replay.completed, snap.completed);
    EXPECT_EQ(replay.stuck, snap.stuck);
    EXPECT_EQ(replay.wedged, snap.wedged);
    EXPECT_EQ(replay.violation, snap.violation);
    EXPECT_EQ(replay.violating_crash_point, snap.violating_crash_point);
    EXPECT_GT(snap.stats.snapshot_hits, 0u)
        << "successive crash points share prefixes; the cache must serve "
           "them";
    EXPECT_LT(snap.stats.replayed_steps, replay.stats.replayed_steps);
  }
}

TEST(SnapshotParity, CrashProductMatchesAcrossModes) {
  for (const ExploreWorld& w : explore_corpus()) {
    if (!w.crash_product) continue;
    SCOPED_TRACE(w.name);
    CrashProductOptions opt;
    opt.explore = dpor_options(w);
    opt.max_schedules = 8;
    opt.explore.snapshot.mode = SnapshotMode::kReplay;
    const CrashProductResult replay =
        sweep_crash_product(w.build, w.check, 0, opt);
    opt.explore.snapshot.mode = SnapshotMode::kSnapshot;
    opt.explore.snapshot.stride = 4;
    const CrashProductResult snap =
        sweep_crash_product(w.build, w.check, 0, opt);

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
}

TEST(SnapshotParity, ShrinkWitnessMatchesAcrossModes) {
  for (const ExploreWorld& w : explore_corpus()) {
    if (!w.shrink) continue;
    SCOPED_TRACE(w.name);
    const ExploreResult found = explore_dpor(w.build, w.check, dpor_options(w));
    ASSERT_TRUE(found.violation.has_value());
    ShrinkOptions opt;
    opt.snapshot.mode = SnapshotMode::kReplay;
    const auto replay =
        shrink_counterexample(w.build, w.check, found.violating_schedule, opt);
    opt.snapshot.mode = SnapshotMode::kSnapshot;
    opt.snapshot.stride = 1;  // witnesses are a few steps long
    const auto snap =
        shrink_counterexample(w.build, w.check, found.violating_schedule, opt);

    ASSERT_TRUE(replay.has_value());
    ASSERT_TRUE(snap.has_value());
    EXPECT_EQ(replay->schedule, snap->schedule);
    EXPECT_EQ(replay->message, snap->message);
    EXPECT_EQ(replay->candidates_tried, snap->candidates_tried);
    EXPECT_EQ(replay->candidates_reproduced, snap->candidates_reproduced);
    EXPECT_EQ(replay->message, *found.violation);
  }
}

}  // namespace
}  // namespace rmrsim

// Its own main: the naive tests are registered from the corpus at run time,
// after static initialisation of the library they call into.
int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  rmrsim::register_naive_tests();
  return RUN_ALL_TESTS();
}
