#include "verify/explorer.h"

#include <optional>

#include "common/check.h"
#include "sched/schedulers.h"
#include "verify/snapshot_cache.h"

namespace rmrsim {

namespace {

/// Recursive DFS over schedule prefixes, visiting nodes in the same
/// preorder as the historical iterative explorer (low process ids first),
/// so violation choices are schedule-for-schedule identical across modes.
///
/// Each visited node needs the world at its prefix. In replay mode every
/// node is rebuilt from scratch (the oracle the parity suite compares
/// against). In snapshot mode the *first* child inherits the parent's live
/// world — one extend_in_place unit, zero copies — and later siblings
/// restore the deepest cached ancestor; determinism makes all three routes
/// produce the identical world.
struct NaiveDfs {
  const ExploreBuilder& build;
  const ExploreChecker& check;
  const ExploreOptions& options;
  SnapshotCache* cache;
  ExploreResult& result;
  std::vector<ProcId> prefix;

  /// Visits the node at `prefix`, whose world is `instance`. Returns false
  /// to abort the whole search (violation found or node cap hit).
  bool visit(ExploreInstance instance) {
    ensure(instance.sim != nullptr, "explore builder returned no simulation");
    ++result.nodes_visited;
    Simulation& sim = *instance.sim;

    if (const auto v = check(sim.history()); v.has_value()) {
      result.violation = v;
      result.violating_schedule = prefix;
      return false;
    }
    if (sim.all_terminated()) {
      ++result.complete_schedules;
      return true;
    }
    if (static_cast<int>(prefix.size()) >= options.max_depth) {
      ++result.truncated_schedules;
      return true;
    }

    std::vector<ProcId> children;
    children.reserve(static_cast<std::size_t>(sim.nprocs()));
    for (ProcId p = 0; p < static_cast<ProcId>(sim.nprocs()); ++p) {
      if (sim.runnable(p)) children.push_back(p);
    }
    for (std::size_t i = 0; i < children.size(); ++i) {
      if (result.nodes_visited >= options.max_nodes) {
        result.exhausted = false;
        return false;
      }
      prefix.push_back(children[i]);
      bool keep_going;
      if (i == 0 && cache != nullptr) {
        // `instance` is the parent's world and nobody needs it afterwards:
        // advance it one unit and hand it down.
        extend_in_place(instance, children[i], ReplayUnit::kMacro, prefix,
                        cache, &result.stats);
        keep_going = visit(std::move(instance));
      } else {
        keep_going = visit(materialize_schedule(
            build, prefix, ReplayUnit::kMacro, options.counters_only_history,
            cache, &result.stats));
      }
      prefix.pop_back();
      if (!keep_going) return false;
    }
    return true;
  }
};

}  // namespace

ExploreResult explore_all_schedules(const ExploreBuilder& build,
                                    const ExploreChecker& check,
                                    const ExploreOptions& options) {
  ExploreResult result;
  std::optional<SnapshotCache> cache;
  if (options.snapshot_mode == SnapshotMode::kSnapshot) {
    cache.emplace(SnapshotCache::Config{options.snapshot_stride,
                                        options.snapshot_max_bytes});
  }
  SnapshotCache* cache_ptr = cache.has_value() ? &*cache : nullptr;

  if (options.max_nodes > 0) {
    NaiveDfs dfs{build, check, options, cache_ptr, result, {}};
    dfs.visit(materialize_schedule(build, {}, ReplayUnit::kMacro,
                                   options.counters_only_history, cache_ptr,
                                   &result.stats));
  } else {
    result.exhausted = false;
  }
  if (cache.has_value()) fold_cache_stats(*cache, result.stats);
  return result;
}

CrashSweepResult sweep_crash_points(const ExploreBuilder& build,
                                    const ExploreChecker& check,
                                    ProcId victim,
                                    const CrashSweepOptions& options) {
  CrashSweepResult result;
  std::optional<SnapshotCache> cache;
  if (options.snapshot_mode == SnapshotMode::kSnapshot) {
    cache.emplace(SnapshotCache::Config{options.snapshot_stride,
                                        options.snapshot_max_bytes});
  }
  SnapshotCache* cache_ptr = cache.has_value() ? &*cache : nullptr;

  // Baseline crash-free run: its schedule enumerates the victim's steps,
  // each of which is a crash point to try.
  std::vector<ProcId> baseline;
  {
    ExploreInstance base = build();
    ensure(base.sim != nullptr, "sweep builder returned no simulation");
    fair_drive(*base.sim, options.max_steps);
    baseline = base.sim->schedule();
  }

  // Crash before the victim's first step, then after each of its steps.
  std::vector<std::size_t> points{0};
  for (std::size_t i = 0; i < baseline.size(); ++i) {
    if (baseline[i] == victim) points.push_back(i + 1);
  }

  for (const std::size_t cut : points) {
    if (result.crash_points >= options.max_crash_points) break;
    // Successive cuts extend each other along the one baseline, so in
    // snapshot mode each rebuild restores the previous cut's world and
    // replays only the delta. Only the pre-crash world is ever cached; the
    // crash and everything after it run on the materialized instance.
    const std::vector<ProcId> cut_schedule(
        baseline.begin(), baseline.begin() + static_cast<std::ptrdiff_t>(cut));
    ExploreInstance instance =
        materialize_schedule(build, cut_schedule, ReplayUnit::kStep,
                             /*counters_only=*/false, cache_ptr,
                             &result.stats);
    ensure(instance.sim != nullptr, "sweep builder returned no simulation");
    Simulation& sim = *instance.sim;
    if (sim.terminated(victim)) continue;  // nothing left to crash
    ++result.crash_points;
    sim.crash(victim);
    fair_drive(sim, options.recover_after);
    if (options.recover_victim) sim.recover(victim);
    const DriveOutcome done = fair_drive(sim, options.max_steps);
    if (const auto v = check(sim.history()); v.has_value()) {
      result.violation = v;
      result.violating_crash_point = static_cast<int>(cut);
      break;
    }
    switch (done) {
      case DriveOutcome::kAllTerminated: ++result.completed; break;
      case DriveOutcome::kBudget: ++result.stuck; break;
      case DriveOutcome::kWedged: ++result.wedged; break;
    }
  }
  if (cache.has_value()) fold_cache_stats(*cache, result.stats);
  return result;
}

}  // namespace rmrsim
