// Dynamic partial-order reduction over macro-step schedules.
//
// explore_all_schedules (explorer.h) enumerates the full schedule tree;
// most of that tree is redundant, because macro steps of different
// processes that touch different variables (or only read a shared one)
// commute — swapping them yields the same memory contents, the same op
// outcomes, and the same cross-process order of observable events, hence
// the same verdict from any checker phrased over those. explore_dpor
// explores one representative per such equivalence class, plus the
// schedules needed to cover every reachable class:
//
//   Soundness   — every schedule the reduced search executes is a real
//                 schedule of the instance (transitions are executed, never
//                 synthesized), so any reported violation is genuine.
//   Completeness — backtrack points are inserted at every race discovered
//                 between executed macro steps (persistent-set style, with
//                 a conservative "add all enabled" fallback when the racing
//                 process took intermediate steps), aiming at an explored
//                 representative for every equivalence class of schedules
//                 within the depth bound. That aim is not met yet: on the
//                 oracle corpus row late_flag_2w2p_d12 (`dpor_misses` in
//                 tests/explore_fixtures.h) the naive explorer finds a
//                 violation at depth 12 that this search reports clean,
//                 plausibly because a race with a step past the bound is
//                 never seen (ROADMAP, DPOR completeness). Sleep sets only
//                 skip transitions whose subtree is provably covered by an
//                 already-explored sibling. Checkers must be phrased over
//                 memory-op records and observable-event order (see
//                 observable_event()); checkers that key on the positions
//                 of process-local bookkeeping events can distinguish
//                 members of a class and are outside the reduction's
//                 contract. Completeness is bounded: a clean verdict
//                 proves the instance only when the search is exhausted
//                 and truncated_schedules == 0. A truncated schedule was
//                 cut at max_depth with processes still running, so what
//                 follows the cut was never checked (`explore` then
//                 reports "clean within depth D, N truncated schedules");
//                 a search stopped by max_nodes or quarantined items
//                 reports "no violation found, search incomplete".
//
// Two macro steps are dependent iff they touch the same variable with at
// least one mutation, or both flush observable events
// (Simulation::dependent). Races are detected retroactively with vector
// clocks over the executed path; the search is stateless — each backtrack
// rebuilds a disposable world through the rebuild path every engine shares
// (materialize_schedule, verify/snapshot_cache.h): by replaying the schedule
// prefix from scratch (SnapshotMode::kReplay) or by restoring the deepest
// cached WorldSnapshot and replaying only the suffix (SnapshotMode::kSnapshot,
// the default — identical results, no O(depth) replay per node). The trunk,
// every work item and the dist worker configure their caches from the one
// SnapshotSettings in DporOptions.
//
// Parallel exploration is deterministic by construction: a sequential
// coordinator owns the top of the tree (the "trunk", up to trunk_depth),
// subtrees hanging off trunk leaves become self-contained work items
// executed by a work-stealing pool, and race insertions that target trunk
// nodes are drained at round barriers in canonical (path, process) order.
// The trunk and the items run one node engine — node entry, child
// expansion, leaf tallies — and differ only in where nodes live (the trunk's
// map and pending set, an item's DFS stack), where a race's backtrack point
// goes, and how the node budget is charged (live for the trunk, item-local
// until the item's outcome commits).
// The set of explored nodes — and therefore the verdict, the violating
// schedule, and every statistic — is a function of the instance and the
// options alone, not of thread timing, whenever the search completes
// (exhausted == true). On a max_nodes trip the verdict is best-effort.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "verify/checkpoint.h"
#include "verify/explorer.h"

namespace rmrsim {

/// One executed macro step on the path from the search root to a work-item
/// root: the process stepped, its footprint, and the vector clock *after*
/// the step. Public because sharded exploration ships work items to worker
/// processes (verify/dist/).
struct DporPathStep {
  ProcId proc = kNoProc;
  Simulation::MacroFootprint fp;
  std::vector<std::int32_t> clock;
};

/// Sleep-set entry: process `proc` was already explored from this node with
/// footprint `fp`, so re-exploring it here is redundant.
struct DporSleepEntry {
  ProcId proc = kNoProc;
  Simulation::MacroFootprint fp;
};

/// A self-contained unit of parallel work: the subtree rooted at `schedule`,
/// explored under sleep set `sleep`, with the path metadata race_scan needs
/// to classify races against the trunk. `root_snap` is the world at the
/// root (snapshot mode only; null in replay mode, where the worker rebuilds
/// by replaying `schedule`). The naive seeds carry the running naive-DFS
/// size estimate into the subtree.
struct DporWorkItem {
  std::vector<ProcId> schedule;
  std::vector<DporPathStep> path;
  std::vector<DporSleepEntry> sleep;
  double naive_product = 1.0;
  double naive_sum = 1.0;
  std::shared_ptr<const WorldSnapshot> root_snap;
};

/// Result of executing one work item, in-process or out-of-process. The
/// coordinator commits it (retry counts, quarantine, node charges,
/// checkpoint record) the same way wherever the item ran.
struct DistItemResult {
  bool ok = false;                 ///< false => the item is quarantined
  /// Why, when !ok; the coordinator reads an empty one as "worker process
  /// failed".
  std::string quarantine_reason;
  ItemOutcome outcome;             ///< valid when ok
  std::uint64_t worker_failures = 0;  ///< attempts that died or timed out
  std::uint64_t item_retries = 0;     ///< failed attempts that were re-run
};

/// Executes one round's work items somewhere other than the in-process
/// pool — the sharded coordinator (verify/dist/pool.h) implements this over
/// a fork/exec worker fleet. Contract: `run_round` is called on the
/// coordinator thread once per round with the round's item array and the
/// indices to execute; it must invoke `done(index, result)` exactly once
/// per live index, on the calling thread, and may do so in any order.
/// `committed_nodes()` returns the node budget consumed by all previously
/// merged items — sample it immediately before dispatching an item and ship
/// the value as that item's budget base.
class DistItemExecutor {
 public:
  virtual ~DistItemExecutor() = default;
  virtual void run_round(
      const std::vector<DporWorkItem>& items,
      const std::vector<std::size_t>& live,
      const std::function<std::uint64_t()>& committed_nodes,
      const std::function<void(std::size_t, DistItemResult&&)>& done) = 0;
};

/// The naive explorer's options (max_depth, counted in macro steps;
/// max_nodes; counters-only history; the snapshot settings) plus the
/// parallel search's own. Verdicts are deterministic across worker counts
/// only when the search finishes under max_nodes. In snapshot mode the
/// coordinator rebuilds trunk expansions through a trunk-level cache, and
/// every work item carries a snapshot of its root — stolen frames ship
/// their world with them — plus a private cache for its subtree, each with
/// its own byte budget. Verdicts, schedules, and statistics stay
/// deterministic across worker counts in both modes.
struct DporOptions : ExploreOptions {
  /// Worker threads for subtree exploration. 1 = run everything on the
  /// calling thread (same code path, bit-identical results). Builders and
  /// checkers are called concurrently when workers > 1 and must be
  /// thread-safe (build fresh worlds, write no shared state).
  int workers = 1;
  /// Depth of the sequentially-owned trunk. Subtrees rooted at this depth
  /// become parallel work items; smaller values make bigger items.
  int trunk_depth = 6;
  /// Called once per complete schedule (every process terminated), in the
  /// canonical deterministic order, with the macro schedule that reaches
  /// it. Used by sweep_crash_product to enumerate crash-injection bases.
  /// In-process only: explore_dpor refuses it together with `dist`.
  std::function<void(const std::vector<ProcId>&)> on_complete_schedule = {};
  /// Persistent frontier (verify/checkpoint.h), or null for an in-memory
  /// search. Non-null: completed work-item outcomes are recorded as they
  /// finish (epochs written atomically every flush_interval records and at
  /// every round barrier), and items already present in the checkpoint are
  /// merged from it instead of re-explored — so a killed search resumed
  /// with the loaded checkpoint reproduces the uninterrupted run's results
  /// byte-for-byte. The caller owns loading (load_latest / reset) and
  /// fingerprinting; checkpoints only make sense across runs with
  /// identical (instance, options).
  ExploreCheckpoint* checkpoint = nullptr;
  /// Worker-failure discipline. An item execution attempt that throws (a
  /// worker "dying" mid-item) or exceeds `item_node_limit` node expansions
  /// is retried in place with exponential backoff (base `retry_backoff_ms`,
  /// doubled per attempt, capped at 1s) up to `item_max_attempts` total
  /// attempts. A failed attempt commits nothing — node charges stay
  /// item-local until success — so retries re-execute the subtree
  /// identically and verdicts are unchanged by any transient failure
  /// pattern. An item whose every attempt fails is
  /// quarantined: reported in ExploreResult::quarantined_items, recorded in
  /// the checkpoint (if any), and the search ends with exhausted == false.
  int item_max_attempts = 3;
  std::uint64_t retry_backoff_ms = 1;
  std::uint64_t item_node_limit = 0;   ///< per-attempt node deadline (0 = off)
  /// Test hook: called before each attempt with (item root schedule,
  /// attempt number, 1-based); returning true makes the attempt fail as if
  /// the worker died. Must be thread-safe.
  std::function<bool(const std::vector<ProcId>&, int)> inject_item_failure = {};
  /// Non-null: work items are executed by this executor (sharded
  /// multi-process exploration, verify/dist/) instead of the in-process
  /// pool; `workers` is then ignored. Checkpointing, retry accounting, and
  /// the deterministic merge are unchanged — the executor only moves where
  /// run_dist_item runs. Not owned.
  DistItemExecutor* dist = nullptr;
};

/// Explores a persistent-set-reduced schedule tree of the instance.
/// Violations are collected over the whole reduced tree and the
/// lexicographically least violating macro schedule is reported, so the
/// verdict matches explore_all_schedules (which explores children in
/// ascending process order and stops at the first violation — the lex
/// least one of the full tree).
ExploreResult explore_dpor(const ExploreBuilder& build,
                           const ExploreChecker& check,
                           const DporOptions& options = {});

/// Executes one work item with the normal retry/quarantine discipline and
/// returns the outcome — the worker-process half of sharded exploration
/// (verify/dist/worker.cc), sharing the exact subtree-exploration code the
/// in-process pool runs so an S-shard search merges byte-identically.
/// `base_nodes` is the coordinator's committed node count at dispatch; the
/// item's budget check is `base_nodes + charged > options.max_nodes`, which
/// matches the in-process pool whenever the budget does not trip.
/// `options.checkpoint`, `options.dist`, and `options.workers` are ignored.
/// `options.on_complete_schedule` is left empty: complete schedules are
/// collected in-process only, and explore_dpor refuses a dist executor
/// together with the callback.
DistItemResult run_dist_item(const ExploreBuilder& build,
                             const ExploreChecker& check,
                             const DporOptions& options,
                             const DporWorkItem& item,
                             std::uint64_t base_nodes);

/// The crash half runs each crash point as sweep_crash_points does; its
/// snapshot cache follows `explore`'s snapshot settings.
struct CrashProductOptions : CrashPointOptions {
  /// Bounds for the schedule-exploration half of the product.
  DporOptions explore;
  /// Lex-least complete schedules to sweep crash points along.
  int max_schedules = 32;
};

struct CrashProductResult {
  /// Complete schedules enumerated by the reduced exploration and swept.
  int schedules_swept = 0;
  /// Aggregated crash-point outcomes across all swept schedules; the
  /// violation fields report the first (lex-least schedule, earliest crash
  /// point) violation.
  CrashSweepResult sweep;
  /// The macro schedule whose sweep produced the violation (empty if none).
  std::vector<ProcId> violating_schedule;
  /// A crash-free violation found during exploration itself, if any (the
  /// product then reports it without sweeping).
  std::optional<std::string> schedule_violation;
};

/// The crash x schedule product: explores the (reduced) schedule space,
/// then for each of the lexicographically least `max_schedules` complete
/// schedules sweeps every crash point of `victim` along it — rebuild,
/// replay the macro prefix, crash, run `recover_after` fair steps, recover
/// (optionally), drive to completion, check the final history. Generalizes
/// sweep_crash_points, which sweeps along the single fair schedule.
CrashProductResult sweep_crash_product(const ExploreBuilder& build,
                                       const ExploreChecker& check,
                                       ProcId victim,
                                       const CrashProductOptions& options = {});

}  // namespace rmrsim
