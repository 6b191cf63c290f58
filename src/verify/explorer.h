// Exhaustive interleaving exploration for small configurations.
//
// Random-seed sweeps sample the schedule space; for the safety claims the
// paper's algorithms make (Specification 4.1, mutual exclusion, GME session
// safety), small configurations can instead be checked against EVERY
// schedule up to a depth bound — Section 2's "process steps can be
// scheduled arbitrarily", taken literally.
//
// The explorer enumerates schedules depth-first. Because rmrsim executions
// are deterministic functions of the schedule (the property the lower-bound
// adversary also rests on), a tree node is a schedule prefix, and its world
// is rebuilt from it: by default (SnapshotMode::kSnapshot) by restoring the
// deepest cached snapshot of an ancestor and replaying only the rest of the
// prefix, or (kReplay, the oracle) by replaying the whole prefix on a fresh
// instance, at O(nodes x depth) simulated steps. No undo either way. The
// rebuild path is shared by every verify engine (verify/snapshot_cache.h);
// each engine's options hold one SnapshotSettings that configures it.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "memory/shared_memory.h"
#include "runtime/simulation.h"

namespace rmrsim {

/// One disposable world: the explorer calls `build` for every node visit.
/// `keepalive` owns whatever the programs reference (algorithm objects);
/// destroyed after `sim`.
struct ExploreInstance {
  std::shared_ptr<void> keepalive;
  std::unique_ptr<SharedMemory> mem;
  std::unique_ptr<Simulation> sim;
};

/// How an engine rebuilds the world at a tree node (DESIGN.md, "Snapshot
/// exploration"):
///  - kReplay: call build() and re-execute the schedule prefix from scratch
///    — the original O(nodes x depth) strategy, kept as the oracle.
///  - kSnapshot: restore the deepest cached WorldSnapshot whose schedule is
///    a prefix of the target and replay only the remaining suffix. Identical
///    results (forking is behaviorally lossless; the parity suite enforces
///    it), much cheaper on deep trees.
enum class SnapshotMode {
  kReplay,
  kSnapshot,
};

/// The rebuild policy, declared once: every verify engine (the naive
/// explorer, DPOR's trunk and items, the dist worker, the shrinker and the
/// crash sweeps) holds one of these and hands it to make_snapshot_cache
/// (verify/snapshot_cache.h), which owns what the settings mean.
struct SnapshotSettings {
  /// kSnapshot is the default; kReplay is the oracle the parity tests
  /// compare against.
  SnapshotMode mode = SnapshotMode::kSnapshot;
  /// Capture a snapshot every `stride` tree levels along each replay (1 =
  /// every node; values below 1 read as 1). Larger strides trade replay
  /// work for memory.
  int stride = 6;
  /// Byte budget per cache (LRU eviction beyond it). Every engine budgets
  /// each of its caches independently: DPOR's trunk cache and each work
  /// item's private cache get one budget each.
  std::size_t max_bytes = std::size_t{8} << 20;
};

struct ExploreOptions {
  /// Abandon a schedule past this many steps (spinning processes make the
  /// tree infinite; such paths are reported as truncated, not failures).
  int max_depth = 64;
  /// Stop after visiting this many nodes (safety valve).
  std::uint64_t max_nodes = 2'000'000;
  /// Run every built instance with HistoryMode::kCountersOnly: per-step
  /// records are dropped, so replays stop paying record growth. Opt-in —
  /// only sound when the checker reads aggregate counters (size, rmrs,
  /// participants, ...), not records; record-backed queries throw.
  bool counters_only_history = false;
  /// Node reconstruction.
  SnapshotSettings snapshot = {};
};

/// Reduction statistics. The naive explorer leaves everything but
/// `replayed_steps` zero; explore_dpor (verify/dpor.h) fills the rest.
/// `naive_tree_estimate` is the mean over maximal explored paths of the
/// product of enabled-set sizes — an *estimate* of the naive tree, labelled
/// as such; the exact naive count for configurations both explorers can
/// finish is measured by running explore_all_schedules itself.
struct ExploreStats {
  /// Simulator steps actually executed to rebuild states (every step() and
  /// tick() applied during prefix replays, counted from the simulator's own
  /// schedule — NOT the number of macro-schedule entries, which undercounts
  /// by the events/ticks each macro step flushes).
  std::uint64_t replayed_steps = 0;
  std::uint64_t sleep_set_prunes = 0;    ///< children skipped via sleep sets
  std::uint64_t backtrack_points = 0;    ///< race-driven backtrack insertions
  std::uint64_t sleep_blocked_paths = 0; ///< nodes where every child slept
  double naive_tree_estimate = 0.0;      ///< est. nodes a naive DFS visits
  int rounds = 0;                        ///< parallel fixpoint rounds
  std::uint64_t work_items = 0;          ///< parallel work items executed
  // Snapshot-mode counters (zero in kReplay mode).
  std::uint64_t snapshot_hits = 0;       ///< rebuilds served from a snapshot
  std::uint64_t snapshot_misses = 0;     ///< rebuilds that fell back to build()
  std::uint64_t snapshots_taken = 0;     ///< snapshots captured into caches
  std::uint64_t snapshot_evictions = 0;  ///< snapshots LRU-evicted (budget)
  /// Of `replayed_steps`, the steps executed after restoring a snapshot
  /// (the delta suffix). replayed_steps - snapshot_delta_steps = steps spent
  /// on from-scratch replays.
  std::uint64_t snapshot_delta_steps = 0;
  /// Peak retained snapshot bytes — max over caches for parallel searches
  /// (each worker item owns a private cache), not a global sum.
  std::uint64_t snapshot_peak_bytes = 0;
  // Crash-tolerance counters (verify/checkpoint.h; all zero without a
  // checkpoint or injected failures). Runtime accounting of the recovery
  // machinery — everything above stays identical whether a search ran
  // uninterrupted or was resumed from a checkpoint.
  std::uint64_t checkpoint_item_hits = 0; ///< work items served from a checkpoint
  std::uint64_t checkpoint_epochs = 0;    ///< checkpoint epochs written
  std::uint64_t worker_failures = 0;      ///< item attempts that died or timed out
  std::uint64_t item_retries = 0;         ///< failed attempts that were re-run
};

struct ExploreResult {
  std::uint64_t nodes_visited = 0;
  std::uint64_t complete_schedules = 0;  ///< all processes terminated
  std::uint64_t truncated_schedules = 0; ///< hit max_depth
  bool exhausted = true;                 ///< false if max_nodes tripped
  /// First safety violation found, with the offending schedule. The naive
  /// explorer and explore_dpor both report the lexicographically least
  /// violating schedule of their search, so verdicts are comparable and
  /// deterministic (explore_dpor: across worker counts too).
  std::optional<std::string> violation;
  std::vector<ProcId> violating_schedule;
  /// A work item whose every execution attempt failed (worker death or
  /// per-item deadline; see DporOptions::item_max_attempts). Its subtree is
  /// unexplored, so any search that quarantines items reports
  /// exhausted == false.
  struct QuarantinedItem {
    std::vector<ProcId> schedule;  ///< macro schedule of the item's root
    std::string reason;            ///< why the last attempt failed
  };
  std::vector<QuarantinedItem> quarantined_items;
  ExploreStats stats;
};

using ExploreBuilder = std::function<ExploreInstance()>;

/// Checks a (possibly partial) history; returns a message on violation.
/// Called at every node, so prefix-closed properties fail as early as
/// possible.
using ExploreChecker =
    std::function<std::optional<std::string>(const History&)>;

/// Explores every schedule of the instance up to the bounds, checking each
/// visited state. Stops at the first violation. Branches on *memory
/// operations* only: each transition is one Simulation::macro_step, which
/// flushes a process's pending events and applies its next memory op (or
/// runs it to termination). Every explored schedule is a real schedule, so
/// reported violations are genuine; checkers should be phrased over
/// memory-op records, not event positions, for completeness.
ExploreResult explore_all_schedules(const ExploreBuilder& build,
                                    const ExploreChecker& check,
                                    const ExploreOptions& options = {});

/// How each crash point of a sweep runs; shared by sweep_crash_points and
/// sweep_crash_product.
struct CrashPointOptions {
  /// Fair steps between the injected crash and the victim's recovery.
  std::uint64_t recover_after = 20;
  /// Step budget for driving each crashed run to completion; runs that
  /// exhaust it count as `stuck` (a progress failure, not a safety one).
  std::uint64_t max_steps = 200'000;
  /// Safety valve on the number of crash points tried.
  int max_crash_points = 10'000;
  /// Recover the victim `recover_after` fair steps after the crash. With
  /// false the victim stays crashed forever — the crash-stop model — and
  /// runs whose survivors wait on it end up wedged, not budget-exhausted.
  bool recover_victim = true;
};

struct CrashSweepOptions : CrashPointOptions {
  /// Prefix reconstruction for the per-crash-point replays: pre-crash
  /// worlds only, post-crash execution is never cached.
  SnapshotSettings snapshot = {};
};

struct CrashSweepResult {
  int crash_points = 0;  ///< crash positions actually injected
  int completed = 0;     ///< runs where every process terminated
  /// Runs that exhausted the step budget with ready processes left —
  /// typically spinners that a larger budget might finish.
  int stuck = 0;
  /// Runs that can never take another step no matter the budget: every
  /// non-terminated process is crashed (DriveOutcome::kWedged). Distinct
  /// from `stuck` because no budget increase can un-wedge them.
  int wedged = 0;
  /// First safety violation found, and the crash point that produced it
  /// (the number of baseline steps replayed before the crash).
  std::optional<std::string> violation;
  int violating_crash_point = -1;
  /// Replay/snapshot accounting for the per-crash-point prefix rebuilds
  /// (only the replay-related and snapshot_* fields are meaningful here).
  ExploreStats stats;
};

/// The deterministic analogue of explore_all_schedules for the crash axis:
/// runs the instance once crash-free under a fair schedule to record a
/// baseline, then for every step of `victim` in that baseline rebuilds the
/// world, replays the prefix, crashes the victim at that exact point, runs
/// `recover_after` further fair steps, recovers it, and drives the run to
/// completion — checking `check` against each final history. Exhaustive over
/// crash positions of one victim along one schedule; combine with seeds or
/// explore_all_schedules for breadth across schedules.
CrashSweepResult sweep_crash_points(const ExploreBuilder& build,
                                    const ExploreChecker& check,
                                    ProcId victim,
                                    const CrashSweepOptions& options = {});

}  // namespace rmrsim
