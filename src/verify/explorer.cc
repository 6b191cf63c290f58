#include "verify/explorer.h"

#include <iterator>
#include <memory>
#include <set>

#include "sched/schedulers.h"
#include "verify/dpor.h"
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

/// The crash-point loop of both crash sweeps. For each base in order, and
/// along it for every crash point of `victim` — before its first step, then
/// after each of its steps — rebuilds the pre-crash world by replaying the
/// base's prefix in `unit`s, crashes the victim, runs `recover_after` fair
/// steps, recovers it (optionally), drives the run to completion and checks
/// the final history, tallying into `result`. Stops at the first violation
/// or at max_crash_points. Returns the number of bases it started; after a
/// violation the last of them is the violating base.
int sweep_crash_bases(const ExploreBuilder& build, const ExploreChecker& check,
                      ProcId victim,
                      const std::vector<std::vector<ProcId>>& bases,
                      ReplayUnit unit, const CrashPointOptions& options,
                      const SnapshotSettings& snapshot,
                      CrashSweepResult& result) {
  // Successive cuts extend each other along one base, and lex-ordered bases
  // share long prefixes, so in snapshot mode each rebuild restores an
  // earlier cut's world and replays only the delta. Only pre-crash worlds
  // are cached; the crash and everything after it run on the materialized
  // instance.
  const std::unique_ptr<SnapshotCache> cache = make_snapshot_cache(snapshot);

  // Sweeps one base; false once the sweep must stop.
  const auto sweep_base = [&](const std::vector<ProcId>& base) {
    std::vector<std::size_t> points{0};
    for (std::size_t i = 0; i < base.size(); ++i) {
      if (base[i] == victim) points.push_back(i + 1);
    }
    for (const std::size_t cut : points) {
      if (result.crash_points >= options.max_crash_points) return false;
      ExploreInstance instance = materialize_schedule(
          build,
          std::vector<ProcId>(base.begin(),
                              base.begin() + static_cast<std::ptrdiff_t>(cut)),
          unit, /*counters_only=*/false, cache.get(), &result.stats);
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
        return false;
      }
      switch (done) {
        case DriveOutcome::kAllTerminated: ++result.completed; break;
        case DriveOutcome::kBudget: ++result.stuck; break;
        case DriveOutcome::kWedged: ++result.wedged; break;
      }
    }
    return true;
  };

  int started = 0;
  for (const std::vector<ProcId>& base : bases) {
    ++started;
    if (!sweep_base(base)) break;
  }
  fold_cache_stats(cache.get(), result.stats);
  return started;
}

}  // namespace

ExploreResult explore_all_schedules(const ExploreBuilder& build,
                                    const ExploreChecker& check,
                                    const ExploreOptions& options) {
  ExploreResult result;
  const std::unique_ptr<SnapshotCache> cache =
      make_snapshot_cache(options.snapshot);
  if (options.max_nodes > 0) {
    NaiveDfs dfs{build, check, options, cache.get(), result, {}};
    dfs.visit(materialize_schedule(build, {}, ReplayUnit::kMacro,
                                   options.counters_only_history, cache.get(),
                                   &result.stats));
  } else {
    result.exhausted = false;
  }
  fold_cache_stats(cache.get(), result.stats);
  return result;
}

CrashSweepResult sweep_crash_points(const ExploreBuilder& build,
                                    const ExploreChecker& check,
                                    ProcId victim,
                                    const CrashSweepOptions& options) {
  // Baseline crash-free run: its schedule enumerates the victim's steps,
  // each of which is a crash point to try.
  std::vector<std::vector<ProcId>> baseline;
  {
    ExploreInstance base = fresh_world(build, /*counters_only=*/false,
                                       /*snapshots=*/false);
    fair_drive(*base.sim, options.max_steps);
    baseline.push_back(base.sim->schedule());
  }
  CrashSweepResult result;
  sweep_crash_bases(build, check, victim, baseline, ReplayUnit::kStep,
                    options, options.snapshot, result);
  return result;
}

CrashProductResult sweep_crash_product(const ExploreBuilder& build,
                                       const ExploreChecker& check,
                                       ProcId victim,
                                       const CrashProductOptions& options) {
  CrashProductResult result;

  // Enumerate complete schedules with the reduced exploration, keeping the
  // lexicographically least max_schedules of them as crash bases.
  std::set<std::vector<ProcId>> bases;
  DporOptions ex = options.explore;
  ex.on_complete_schedule = [&](const std::vector<ProcId>& s) {
    bases.insert(s);
    if (static_cast<int>(bases.size()) > options.max_schedules) {
      bases.erase(std::prev(bases.end()));
    }
  };
  const ExploreResult er = explore_dpor(build, check, ex);
  if (er.violation.has_value()) {
    result.schedule_violation = er.violation;
    result.violating_schedule = er.violating_schedule;
    return result;
  }

  // The crash half caches pre-crash worlds as the explore half is told to.
  const std::vector<std::vector<ProcId>> swept(bases.begin(), bases.end());
  result.schedules_swept =
      sweep_crash_bases(build, check, victim, swept, ReplayUnit::kMacro,
                        options, options.explore.snapshot, result.sweep);
  if (result.sweep.violation.has_value()) {
    result.violating_schedule =
        swept[static_cast<std::size_t>(result.schedules_swept - 1)];
  }
  return result;
}

}  // namespace rmrsim
