// Crash-tolerant exploration: the persistent frontier (verify/checkpoint.h)
// and the worker-failure discipline (DporOptions retry/quarantine).
//
// The contract under test: a search that is killed, corrupted, retried, or
// resumed must produce results byte-identical to an uninterrupted run —
// same verdict, same lex-least violating schedule, same statistics — with
// only the recovery-accounting counters (checkpoint_item_hits,
// checkpoint_epochs, worker_failures, item_retries) free to differ.
#include <gtest/gtest.h>

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/codec.h"
#include "common/crc32.h"
#include "common/fsio.h"
#include "harness/drive.h"
#include "verify/checkpoint.h"
#include "verify/dpor.h"
#include "verify/explorer.h"

namespace rmrsim {
namespace {

namespace fs = std::filesystem;

/// Everything the determinism contract covers. The four recovery counters
/// are deliberately absent: they describe how the run was executed, not
/// what it found.
void expect_results_identical(const ExploreResult& a, const ExploreResult& b) {
  EXPECT_EQ(a.nodes_visited, b.nodes_visited);
  EXPECT_EQ(a.complete_schedules, b.complete_schedules);
  EXPECT_EQ(a.truncated_schedules, b.truncated_schedules);
  EXPECT_EQ(a.exhausted, b.exhausted);
  EXPECT_EQ(a.violation, b.violation);
  EXPECT_EQ(a.violating_schedule, b.violating_schedule);
  EXPECT_EQ(a.stats.sleep_set_prunes, b.stats.sleep_set_prunes);
  EXPECT_EQ(a.stats.backtrack_points, b.stats.backtrack_points);
  EXPECT_EQ(a.stats.sleep_blocked_paths, b.stats.sleep_blocked_paths);
  EXPECT_EQ(a.stats.replayed_steps, b.stats.replayed_steps);
  EXPECT_EQ(a.stats.rounds, b.stats.rounds);
  EXPECT_EQ(a.stats.work_items, b.stats.work_items);
  EXPECT_DOUBLE_EQ(a.stats.naive_tree_estimate, b.stats.naive_tree_estimate);
}

/// A scratch checkpoint directory, removed on destruction.
struct TempDir {
  std::string path;
  explicit TempDir(const std::string& tag) {
    path = (fs::temp_directory_path() /
            ("rmrsim-ckpt-" + tag + "-" + std::to_string(getpid())))
               .string();
    fs::remove_all(path);
  }
  ~TempDir() { fs::remove_all(path); }
};

ItemOutcome sample_outcome() {
  ItemOutcome out;
  out.schedule = {0, 2, 1};
  out.charged = 7;
  out.complete = 2;
  out.truncated = 1;
  out.sleep_prunes = 3;
  out.sleep_blocked = 1;
  out.backtracks = 4;
  out.replay.replayed_steps = 99;
  out.replay.snapshot_hits = 5;
  out.replay.snapshot_misses = 2;
  out.replay.snapshots_taken = 4;
  out.replay.snapshot_evictions = 1;
  out.replay.snapshot_delta_steps = 42;
  out.replay.snapshot_peak_bytes = 4096;
  out.estimate_sum = 123.5;
  out.leaves = 3;
  out.violations.push_back({{0, 2, 1, 1}, "property violated"});
  out.completes.push_back({0, 2, 1, 2});
  out.completes.push_back({0, 2, 1, 0, 2});
  out.externals.push_back({{0, 2}, 1});
  return out;
}

TEST(CheckpointFormat, EncodeDecodeRoundTrip) {
  const ItemOutcome out = sample_outcome();
  const ItemOutcome back = decode_item_outcome(encode_item_outcome(out));
  EXPECT_EQ(back.schedule, out.schedule);
  EXPECT_EQ(back.charged, out.charged);
  EXPECT_EQ(back.complete, out.complete);
  EXPECT_EQ(back.truncated, out.truncated);
  EXPECT_EQ(back.sleep_prunes, out.sleep_prunes);
  EXPECT_EQ(back.sleep_blocked, out.sleep_blocked);
  EXPECT_EQ(back.backtracks, out.backtracks);
  EXPECT_EQ(back.replay.replayed_steps, out.replay.replayed_steps);
  EXPECT_EQ(back.replay.snapshot_peak_bytes, out.replay.snapshot_peak_bytes);
  EXPECT_DOUBLE_EQ(back.estimate_sum, out.estimate_sum);
  EXPECT_EQ(back.leaves, out.leaves);
  ASSERT_EQ(back.violations.size(), 1u);
  EXPECT_EQ(back.violations[0].schedule, out.violations[0].schedule);
  EXPECT_EQ(back.violations[0].message, out.violations[0].message);
  EXPECT_EQ(back.completes, out.completes);
  ASSERT_EQ(back.externals.size(), 1u);
  EXPECT_EQ(back.externals[0].node_path, out.externals[0].node_path);
  EXPECT_EQ(back.externals[0].proc, out.externals[0].proc);
  EXPECT_FALSE(back.budget_hit) << "budget_hit is never serialized";
}

TEST(CheckpointFormat, DecodeRejectsTruncationAndJunk) {
  const std::string bytes = encode_item_outcome(sample_outcome());
  // Every proper prefix must be rejected, not misread: the decoder is the
  // last line of defense against a torn record that slipped past the CRC.
  for (const std::size_t cut : {std::size_t{0}, std::size_t{1},
                                bytes.size() / 2, bytes.size() - 1}) {
    EXPECT_THROW(decode_item_outcome(std::string_view(bytes).substr(0, cut)),
                 std::runtime_error)
        << "prefix of " << cut << " bytes";
  }
  // Trailing garbage is equally fatal — a record must consume its payload
  // exactly.
  EXPECT_THROW(decode_item_outcome(bytes + "x"), std::runtime_error);
}

TEST(Checkpoint, PersistsAcrossInstancesAndPrunesOldEpochs) {
  TempDir dir("persist");
  ExploreCheckpoint::Config cfg;
  cfg.dir = dir.path;
  cfg.fingerprint = 0xF00D;
  cfg.flush_interval = 1;  // one epoch per record
  cfg.keep_epochs = 2;
  {
    ExploreCheckpoint ck(cfg);
    ck.reset();
    for (int i = 0; i < 5; ++i) {
      ItemOutcome out = sample_outcome();
      out.schedule = {0, static_cast<ProcId>(i)};
      ck.record_outcome(out);
    }
    ck.record_quarantine({9, 9}, "injected worker failure");
    ck.flush();
    EXPECT_EQ(ck.outcome_count(), 5u);
  }
  // Pruning: only keep_epochs files remain on disk.
  std::size_t files = 0;
  for (const auto& e : fs::directory_iterator(dir.path)) {
    (void)e;
    ++files;
  }
  EXPECT_EQ(files, 2u);

  ExploreCheckpoint again(cfg);
  const auto rep = again.load_latest();
  EXPECT_EQ(rep.outcomes, 5u);
  EXPECT_EQ(rep.quarantined, 1u);
  EXPECT_TRUE(rep.discarded.empty());
  ItemOutcome got;
  ASSERT_TRUE(again.lookup({0, 3}, &got));
  EXPECT_EQ(got.charged, sample_outcome().charged);
  std::string why;
  ASSERT_TRUE(again.is_quarantined({9, 9}, &why));
  EXPECT_EQ(why, "injected worker failure");
  EXPECT_FALSE(again.is_quarantined({0, 3}));
}

TEST(Checkpoint, CorruptNewestEpochFallsBackToPrevious) {
  TempDir dir("torn");
  ExploreCheckpoint::Config cfg;
  cfg.dir = dir.path;
  cfg.fingerprint = 1;
  cfg.flush_interval = 1;
  {
    ExploreCheckpoint ck(cfg);
    ck.reset();
    for (int i = 0; i < 3; ++i) {
      ItemOutcome out = sample_outcome();
      out.schedule = {static_cast<ProcId>(i)};
      ck.record_outcome(out);
    }
  }
  // Tear the newest epoch mid-file, as a crash during a non-atomic write
  // (or a bad disk) would. The loader must reject it on CRC/truncation and
  // install the previous epoch — 2 outcomes, not 3, and never garbage.
  std::string newest;
  for (const auto& e : fs::directory_iterator(dir.path)) {
    const std::string p = e.path().string();
    if (newest.empty() || p > newest) newest = p;
  }
  ASSERT_FALSE(newest.empty());
  fs::resize_file(newest, 40);

  ExploreCheckpoint ck(cfg);
  const auto rep = ck.load_latest();
  EXPECT_EQ(rep.outcomes, 2u);
  ASSERT_EQ(rep.discarded.size(), 1u);
  EXPECT_NE(rep.discarded[0].find(newest), std::string::npos)
      << "the discarded line names the torn file";
  ItemOutcome got;
  EXPECT_TRUE(ck.lookup({0}, &got));
  EXPECT_TRUE(ck.lookup({1}, &got));
  EXPECT_FALSE(ck.lookup({2}, &got)) << "the torn epoch's extra record is gone";
}

TEST(Checkpoint, FingerprintMismatchIsAHardError) {
  TempDir dir("fp");
  ExploreCheckpoint::Config cfg;
  cfg.dir = dir.path;
  cfg.fingerprint = 0xAAAA;
  {
    ExploreCheckpoint ck(cfg);
    ck.reset();
    ck.record_outcome(sample_outcome());
    ck.flush();
  }
  cfg.fingerprint = 0xBBBB;  // "the user changed --depth"
  ExploreCheckpoint other(cfg);
  EXPECT_THROW(other.load_latest(), std::exception)
      << "outcomes from a different search must never be silently reused";
}

TEST(Checkpoint, EpochOfAnotherFormatVersionIsDiscarded) {
  TempDir dir("version");
  ExploreCheckpoint::Config cfg;
  cfg.dir = dir.path;
  cfg.fingerprint = 0xC0DE;
  {
    ExploreCheckpoint ck(cfg);
    ck.reset();
    ck.record_outcome(sample_outcome());
    ck.flush();
  }
  const std::string path = dir.path + "/epoch-000001.ckpt";
  // Header: magic (8 bytes), version (u32), fingerprint, epoch and the two
  // record counts (u64 each), then the CRC-32 of those 44 bytes. Rewrite
  // the version to an older layout — 2 still carried footprint summaries,
  // 3 a per-item node count — and re-seal the header so only the version
  // is wrong.
  const std::optional<std::string> bytes = read_file(path);
  ASSERT_TRUE(bytes.has_value());
  constexpr std::size_t kHeaderLen = 44;
  ASSERT_GT(bytes->size(), kHeaderLen + 4);
  for (const std::uint32_t version : {2u, 3u}) {
    SCOPED_TRACE(version);
    std::string header = bytes->substr(0, 8);
    put_u32(header, version);
    header.append(*bytes, 12, kHeaderLen - 12);
    put_u32(header, crc32(header));
    write_file_atomic(path, header + bytes->substr(kHeaderLen + 4));

    ExploreCheckpoint ck(cfg);
    const auto rep = ck.load_latest();
    EXPECT_EQ(rep.epoch, 0u) << "no epoch of another version is installed";
    EXPECT_EQ(rep.outcomes, 0u);
    ASSERT_EQ(rep.discarded.size(), 1u);
    EXPECT_NE(rep.discarded[0].find("unsupported version " +
                                    std::to_string(version)),
              std::string::npos)
        << rep.discarded[0];
  }
}

// ---------------------------------------------------------------------------
// End-to-end: checkpointed searches vs the plain in-memory search.

struct SearchCase {
  const char* name;
  ExploreBuilder build;
  ExploreChecker check;
  DporOptions opt;
};

std::vector<SearchCase> search_cases() {
  std::vector<SearchCase> cases;
  for (const int workers : {1, 2}) {
    for (const SnapshotMode mode :
         {SnapshotMode::kReplay, SnapshotMode::kSnapshot}) {
      DporOptions opt;
      opt.max_depth = 14;
      opt.workers = workers;
      opt.trunk_depth = 4;
      opt.snapshot.mode = mode;
      SearchCase healthy{
          "healthy",
          signaling_explore_builder(
              "dsm", make_signal_factory_by_name("registration", 2), 2, 1),
          polling_spec_checker(), opt};
      SearchCase broken{
          "broken",
          signaling_explore_builder(
              "dsm", make_signal_factory_by_name("broken", 1), 1, 2),
          polling_spec_checker(), opt};
      broken.opt.max_depth = 16;
      cases.push_back(std::move(healthy));
      cases.push_back(std::move(broken));
    }
  }
  return cases;
}

TEST(CheckpointSearch, ResumedSearchReproducesUninterruptedRun) {
  for (const SearchCase& sc : search_cases()) {
    SCOPED_TRACE(std::string(sc.name) + " workers=" +
                 std::to_string(sc.opt.workers));
    const ExploreResult ref = explore_dpor(sc.build, sc.check, sc.opt);
    ASSERT_TRUE(ref.exhausted);

    TempDir dir(std::string("e2e-") + sc.name);
    ExploreCheckpoint::Config cfg;
    cfg.dir = dir.path;
    cfg.fingerprint = 42;
    cfg.flush_interval = 2;

    // First leg: full run with checkpointing on. Same results, epochs on
    // disk, nothing served from the (empty) checkpoint.
    ExploreCheckpoint ck(cfg);
    ck.reset();
    DporOptions opt = sc.opt;
    opt.checkpoint = &ck;
    const ExploreResult first = explore_dpor(sc.build, sc.check, opt);
    expect_results_identical(ref, first);
    EXPECT_EQ(first.stats.checkpoint_item_hits, 0u);
    if (first.stats.work_items > 0) {
      EXPECT_GT(first.stats.checkpoint_epochs, 0u);
    }

    // Second leg: resume from disk. Every item is a checkpoint hit; the
    // result is still identical.
    ExploreCheckpoint resumed(cfg);
    const auto rep = resumed.load_latest();
    EXPECT_EQ(rep.outcomes, first.stats.work_items);
    opt.checkpoint = &resumed;
    const ExploreResult second = explore_dpor(sc.build, sc.check, opt);
    expect_results_identical(ref, second);
    EXPECT_EQ(second.stats.checkpoint_item_hits, first.stats.work_items);
  }
}

TEST(CheckpointSearch, SigkillMidSearchThenResumeMatchesReference) {
  // The real crash: fork a child that runs the checkpointed search and
  // SIGKILLs itself the moment the first epoch is durable. The parent then
  // resumes from whatever the dead child left on disk and must reproduce
  // the uninterrupted reference exactly — in both reconstruction modes.
  const auto build = signaling_explore_builder(
      "dsm", make_signal_factory_by_name("registration", 2), 2, 1);
  const auto check = polling_spec_checker();
  for (const SnapshotMode mode :
       {SnapshotMode::kReplay, SnapshotMode::kSnapshot}) {
    const std::string mode_name =
        mode == SnapshotMode::kReplay ? "replay" : "snapshot";
    SCOPED_TRACE(mode_name);
    DporOptions base;
    base.max_depth = 14;
    base.trunk_depth = 4;
    base.snapshot.mode = mode;
    const ExploreResult ref = explore_dpor(build, check, base);
    ASSERT_TRUE(ref.exhausted);
    ASSERT_GT(ref.stats.work_items, 4u) << "need enough items to die mid-run";

    TempDir dir("sigkill-" + mode_name);
    ExploreCheckpoint::Config cfg;
    cfg.dir = dir.path;
    cfg.fingerprint = 7;
    cfg.flush_interval = 2;

    const pid_t pid = fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      // Child: die by SIGKILL — not exit() — once epoch 2 is on disk, so
      // the search is genuinely cut off mid-flight with no destructors run.
      ExploreCheckpoint::Config child_cfg = cfg;
      child_cfg.on_epoch_written = [](std::uint64_t epoch) {
        if (epoch >= 2) raise(SIGKILL);
      };
      ExploreCheckpoint ck(child_cfg);
      ck.reset();
      DporOptions opt = base;
      opt.checkpoint = &ck;
      (void)explore_dpor(build, check, opt);
      _exit(0);  // only reached if the search somehow finished early
    }
    int status = 0;
    ASSERT_EQ(waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL)
        << "child was supposed to die mid-search";

    ExploreCheckpoint ck(cfg);
    const auto rep = ck.load_latest();
    EXPECT_GT(rep.outcomes, 0u) << "the dead child left durable progress";
    EXPECT_LT(rep.outcomes, ref.stats.work_items) << "...but not all of it";
    DporOptions opt = base;
    opt.checkpoint = &ck;
    const ExploreResult resumed = explore_dpor(build, check, opt);
    expect_results_identical(ref, resumed);
    EXPECT_EQ(resumed.stats.checkpoint_item_hits, rep.outcomes);
  }
}

TEST(CheckpointSearch, BudgetTruncatedItemsAreNeverCheckpointed) {
  // A search cut short by max_nodes writes no partial item outcomes: a
  // resume with the full budget re-explores from scratch and matches a
  // fresh unlimited run (a recorded partial outcome would poison it).
  const auto build = signaling_explore_builder(
      "dsm", make_signal_factory_by_name("registration", 2), 2, 1);
  const auto check = polling_spec_checker();
  DporOptions base;
  base.max_depth = 14;
  base.trunk_depth = 4;
  const ExploreResult ref = explore_dpor(build, check, base);
  ASSERT_TRUE(ref.exhausted);

  TempDir dir("budget");
  ExploreCheckpoint::Config cfg;
  cfg.dir = dir.path;
  cfg.fingerprint = 3;
  cfg.flush_interval = 1;

  ExploreCheckpoint ck(cfg);
  ck.reset();
  DporOptions tiny = base;
  tiny.checkpoint = &ck;
  tiny.max_nodes = ref.nodes_visited / 2;
  const ExploreResult cut = explore_dpor(build, check, tiny);
  ASSERT_FALSE(cut.exhausted);

  // Only complete outcomes may be on disk; resuming with the real budget
  // must land exactly on the reference.
  ExploreCheckpoint resumed(cfg);
  const auto rep = resumed.load_latest();
  DporOptions full = base;
  full.checkpoint = &resumed;
  const ExploreResult after = explore_dpor(build, check, full);
  expect_results_identical(ref, after);
  EXPECT_EQ(after.stats.checkpoint_item_hits, rep.outcomes);
}

TEST(WorkerFailure, TransientFailuresRetryWithoutChangingTheVerdict) {
  const auto build = signaling_explore_builder(
      "dsm", make_signal_factory_by_name("registration", 2), 2, 1);
  const auto check = polling_spec_checker();
  DporOptions base;
  base.max_depth = 14;
  base.trunk_depth = 4;
  const ExploreResult ref = explore_dpor(build, check, base);
  ASSERT_TRUE(ref.exhausted);

  for (const int workers : {1, 2}) {
    DporOptions opt = base;
    opt.workers = workers;
    opt.retry_backoff_ms = 0;
    // Every item's first attempt dies; the retry succeeds.
    opt.inject_item_failure = [](const std::vector<ProcId>&, int attempt) {
      return attempt == 1;
    };
    const ExploreResult r = explore_dpor(build, check, opt);
    expect_results_identical(ref, r);
    EXPECT_TRUE(r.quarantined_items.empty());
    EXPECT_EQ(r.stats.worker_failures, ref.stats.work_items);
    EXPECT_EQ(r.stats.item_retries, ref.stats.work_items);
  }
}

TEST(WorkerFailure, PermanentFailureQuarantinesAndPersistsAcrossResume) {
  const auto build = signaling_explore_builder(
      "dsm", make_signal_factory_by_name("registration", 2), 2, 1);
  const auto check = polling_spec_checker();
  DporOptions base;
  base.max_depth = 14;
  base.trunk_depth = 4;
  const ExploreResult ref = explore_dpor(build, check, base);
  ASSERT_GT(ref.stats.work_items, 0u);

  TempDir dir("quar");
  ExploreCheckpoint::Config cfg;
  cfg.dir = dir.path;
  cfg.fingerprint = 11;
  ExploreCheckpoint ck(cfg);
  ck.reset();

  // One item is cursed: every attempt fails. Identify it deterministically
  // as "the first item the failure hook ever sees".
  std::mutex mu;
  std::vector<ProcId> cursed;
  DporOptions opt = base;
  opt.checkpoint = &ck;
  opt.item_max_attempts = 2;
  opt.retry_backoff_ms = 0;
  opt.inject_item_failure = [&](const std::vector<ProcId>& sched, int) {
    std::lock_guard<std::mutex> g(mu);
    if (cursed.empty()) cursed = sched;
    return sched == cursed;
  };
  const ExploreResult r = explore_dpor(build, check, opt);
  EXPECT_FALSE(r.exhausted) << "a quarantined item means incomplete coverage";
  ASSERT_EQ(r.quarantined_items.size(), 1u);
  EXPECT_EQ(r.quarantined_items[0].schedule, cursed);
  EXPECT_EQ(r.stats.worker_failures, 2u) << "both attempts died";
  EXPECT_EQ(r.stats.item_retries, 1u) << "one retry before quarantine";

  // The quarantine is durable: a resume that injects no failures at all
  // still reports the item as quarantined (and does not silently re-run
  // it), because the checkpoint remembers the permanent failure.
  ExploreCheckpoint again(cfg);
  const auto rep = again.load_latest();
  EXPECT_EQ(rep.quarantined, 1u);
  DporOptions clean = base;
  clean.checkpoint = &again;
  const ExploreResult resumed = explore_dpor(build, check, clean);
  EXPECT_FALSE(resumed.exhausted);
  ASSERT_EQ(resumed.quarantined_items.size(), 1u);
  EXPECT_EQ(resumed.quarantined_items[0].schedule, cursed);
  EXPECT_EQ(resumed.stats.worker_failures, 0u);
}

TEST(WorkerFailure, PerAttemptNodeDeadlineQuarantinesRunawayItems) {
  // item_node_limit models a worker that wedges: an item that cannot finish
  // within the per-attempt budget fails every attempt and is quarantined —
  // the search survives, reports it, and completes everything else.
  const auto build = signaling_explore_builder(
      "dsm", make_signal_factory_by_name("registration", 2), 2, 1);
  const auto check = polling_spec_checker();
  DporOptions opt;
  opt.max_depth = 14;
  opt.trunk_depth = 4;
  opt.item_node_limit = 1;  // nothing real finishes in one node
  opt.item_max_attempts = 2;
  opt.retry_backoff_ms = 0;
  const ExploreResult r = explore_dpor(build, check, opt);
  EXPECT_FALSE(r.exhausted);
  EXPECT_FALSE(r.quarantined_items.empty());
  for (const auto& q : r.quarantined_items) {
    EXPECT_NE(q.reason.find("deadline"), std::string::npos) << q.reason;
  }
}

}  // namespace
}  // namespace rmrsim
