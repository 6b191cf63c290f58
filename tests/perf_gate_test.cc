// Perf gates: throughput floors and search-cost ratios on pinned reference
// configurations. The build picks the bound, never a flag: an optimised
// build (NDEBUG, no sanitizer) enforces the full floors; any other build
// enforces the floors that hold under instrumentation and skips the gates
// that only mean something optimised. Deterministic checks hold in every
// build. perfbench/ measures the per-layer figures behind these gates.
#include <gtest/gtest.h>

#include <unistd.h>
#ifdef __GLIBC__
#include <malloc.h>
#endif

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "common/fsio.h"
#include "harness/drive.h"
#include "lowerbound/adversary.h"
#include "memory/shared_memory.h"
#include "signaling/cc_flag.h"
#include "signaling/workload.h"
#include "verify/explorer.h"
#include "workload/generators.h"
#include "workload/replay.h"

namespace rmrsim {
namespace {

#if defined(NDEBUG) && !defined(__SANITIZE_ADDRESS__) && \
    !defined(__SANITIZE_THREAD__)
constexpr bool kOptimised = true;
#else
constexpr bool kOptimised = false;
#endif

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Runs `body` (which returns items processed) once to warm up, then
/// repeatedly until 0.2 s of wall clock accumulate; returns items/second.
template <typename Body>
double items_per_sec(Body&& body) {
  body();
  std::uint64_t items = 0;
  double seconds = 0;
  while (seconds < 0.2) {
    const auto t0 = std::chrono::steady_clock::now();
    items += body();
    seconds += seconds_since(t0);
  }
  return static_cast<double>(items) / seconds;
}

TEST(PerfGate, StepLoopFloor) {
  if (!kOptimised) GTEST_SKIP() << "step-loop floor is for optimised builds";
  // Counters-only signaling at 64 waiters: the simulator's hot step loop.
  SignalingWorkloadOptions opt;
  opt.n_waiters = 64;
  opt.signaler_idle_polls = 8;
  opt.history_mode = HistoryMode::kCountersOnly;
  const double steps_per_sec = items_per_sec([&]() -> std::uint64_t {
    const SignalingRun run = run_signaling_workload(
        make_dsm(opt.n_waiters + 1),
        [](SharedMemory& m) { return std::make_unique<CcFlagSignal>(m); },
        opt);
    return run.sim->history().size();
  });
  EXPECT_GE(steps_per_sec, 2'000'000) << "steps/s";
}

TEST(PerfGate, TraceReplayFloor) {
  // Bare cc replay (no protocol fleet) of a pinned 50k-op zipf trace.
  GenSpec g;
  g.kind = "zipf";
  g.procs = 32;
  g.ops = 50'000;
  g.seed = 1;
  const Trace trace = generate_trace(g);
  const double ops_per_sec = items_per_sec([&]() -> std::uint64_t {
    replay_trace(trace, *make_cc(trace.nprocs));
    return trace.ops.size();
  });
  EXPECT_GE(ops_per_sec, kOptimised ? 500'000 : 10'000) << "ops/s";
}

// ---- Theorem 6.2 adversary: erasure queries independent of N ----------

/// Host ns per simulated step of the strict registration adversary at N,
/// the fastest of 4 runs. Steps are counted as they are taken
/// (Simulation::steps_taken), so the erased ones count too.
double adversary_ns_per_step(int n) {
  double best = 0;
  for (int run = 0; run < 4; ++run) {
    AdversaryConfig c;
    c.nprocs = n;
    SignalingAdversary adv(make_signal_factory_by_name("registration", n - 2),
                           c);
    const auto t0 = std::chrono::steady_clock::now();
    adv.run();
    const double seconds = seconds_since(t0);
    std::uint64_t steps = 0;
    for (ProcId p = 0; p < n; ++p) steps += adv.simulation().steps_taken(p);
    const double ns = seconds * 1e9 / static_cast<double>(steps);
    best = run == 0 ? ns : std::min(best, ns);
  }
  return best;
}

TEST(PerfGate, AdversaryFlatInN) {
  // Every erasure query comes from the store or the history's erasure
  // index, so a step costs the same at N = 2187 as at N = 243; a scan of
  // the history per query made it ~25x dearer. The ratio is taken inside
  // one process, which resists time lent to other tenants. Each N keeps
  // its fastest run. A run's first touch of fresh memory costs the same per
  // step at either N, but glibc hands the big N's blocks back to the kernel
  // on free (they pass its mmap threshold) and the small N's not, so only
  // the big N would pay page faults on every run: keep freed memory here.
#ifdef __GLIBC__
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
#endif
  const double large = adversary_ns_per_step(2187);
  const double small = adversary_ns_per_step(243);
  EXPECT_LE(large / small, kOptimised ? 2.0 : 4.0)
      << small << " ns/step at N=243, " << large << " ns/step at N=2187";
}

// ---- explore reference: snapshot mode vs from-scratch replay ----------

struct TimedExplore {
  ExploreResult result;
  double seconds = 0;
};

/// Registration signaling, 3 waiters x 2 polls, depth 32: deep enough that
/// replay pays the full O(depth) cost per node, and capped so both modes
/// visit exactly the same 500k-node tree.
TimedExplore explore_reference(SnapshotMode mode) {
  ExploreOptions opt;
  opt.max_depth = 32;
  opt.max_nodes = 500'000;
  opt.snapshot.mode = mode;
  const ExploreBuilder build = signaling_explore_builder(
      "dsm", make_signal_factory_by_name("registration", 3), 3, 2);
  const auto t0 = std::chrono::steady_clock::now();
  TimedExplore out;
  out.result = explore_all_schedules(build, polling_spec_checker(), opt);
  out.seconds = seconds_since(t0);
  return out;
}

TEST(PerfGate, SnapshotEqualsReplay) {
  const ExploreResult replay = explore_reference(SnapshotMode::kReplay).result;
  const ExploreResult snap = explore_reference(SnapshotMode::kSnapshot).result;
  EXPECT_EQ(snap.nodes_visited, replay.nodes_visited);
  EXPECT_EQ(snap.complete_schedules, replay.complete_schedules);
  EXPECT_EQ(snap.exhausted, replay.exhausted);
  EXPECT_EQ(snap.violation, replay.violation);
  EXPECT_EQ(snap.violating_schedule, replay.violating_schedule);
}

TEST(PerfGate, SnapshotCutsStepsAndWall) {
  // Snapshot mode runs first, cold: warm-up favours the replay run, so the
  // measured wall ratio can only understate the cut.
  const TimedExplore snap = explore_reference(SnapshotMode::kSnapshot);
  const TimedExplore replay = explore_reference(SnapshotMode::kReplay);
  const double step_cut =
      static_cast<double>(replay.result.stats.replayed_steps) /
      static_cast<double>(snap.result.stats.replayed_steps);
  EXPECT_GE(step_cut, 3.0) << "replayed-step cut";
  EXPECT_GE(replay.seconds / snap.seconds, kOptimised ? 2.0 : 1.2)
      << "wall-clock cut (replay " << replay.seconds << " s, snapshot "
      << snap.seconds << " s)";
}

TEST(PerfGate, DeterministicSnapshotCounters) {
  const auto counters = [](const ExploreStats& s) {
    return std::make_tuple(s.replayed_steps, s.snapshot_hits,
                           s.snapshot_misses, s.snapshots_taken,
                           s.snapshot_evictions, s.snapshot_delta_steps,
                           s.snapshot_peak_bytes);
  };
  const ExploreStats first =
      explore_reference(SnapshotMode::kSnapshot).result.stats;
  const ExploreStats second =
      explore_reference(SnapshotMode::kSnapshot).result.stats;
  EXPECT_EQ(counters(first), counters(second));
}

// ---- sharded explore through the real CLI ------------------------------

TEST(PerfGate, ShardSeries) {
  if (!kOptimised) GTEST_SKIP() << "shard series is for optimised builds";
  // ~2M nodes, exhausted well under the cap: per-item subtree work
  // dominates process plumbing, and the merge is byte-identical only when
  // the node budget does not trip mid-round.
  const std::string base =
      std::string("'") + RMRSIM_CLI +
      "' explore --target signal --alg registration --waiters 3 --polls 2"
      " --depth 32 --max-nodes 3000000";
  // 1 and 4 shards run first and again last, and each keeps its faster
  // run: on a shared host the minimum filters out time lent to other
  // tenants, and the mirrored order cancels drift between the two.
  std::string first_report;
  std::map<int, double> best_seconds;
  for (const int shards : {1, 2, 4, 8, 4, 1}) {
    const std::string report = ::testing::TempDir() + "perf_gate_shards_" +
                               std::to_string(::getpid()) + "_" +
                               std::to_string(shards) + ".txt";
    const std::string cmd = base + " --shards " + std::to_string(shards) +
                            " --report '" + report + "' > /dev/null 2>&1";
    const auto t0 = std::chrono::steady_clock::now();
    ASSERT_EQ(std::system(cmd.c_str()), 0) << cmd;
    const double seconds = seconds_since(t0);
    const std::optional<std::string> bytes = read_file(report);
    std::remove(report.c_str());
    ASSERT_TRUE(bytes.has_value() && !bytes->empty()) << report;
    if (first_report.empty()) {
      first_report = *bytes;
    } else {
      EXPECT_EQ(*bytes, first_report)
          << "--shards " << shards << " report diverged from --shards 1";
    }
    const auto [it, fresh] = best_seconds.try_emplace(shards, seconds);
    if (!fresh) it->second = std::min(it->second, seconds);
  }
  const double one_shard_s = best_seconds[1];
  const double four_shard_s = best_seconds[4];
  const double speedup = one_shard_s / four_shard_s;
  const unsigned cpus = std::thread::hardware_concurrency();
  if (cpus < 4) {
    GTEST_SKIP() << cpus << " CPUs < 4: a 2.5x 4-shard speedup is "
                 << "unreachable (measured " << speedup << "x)";
  }
  EXPECT_GE(speedup, 2.5) << "4-shard wall-clock speedup (1 shard "
                          << one_shard_s << " s, 4 shards " << four_shard_s
                          << " s)";
}

}  // namespace
}  // namespace rmrsim
