#include "verify/shrink.h"

#include <memory>
#include <optional>
#include <set>
#include <utility>

#include "verify/snapshot_cache.h"

namespace rmrsim {

namespace {

/// reproduce_violation with an optional snapshot cache shared across
/// candidates. The world starts at the shared restore head; this loop is
/// the shrinker's own: it checks after every step, refuses a non-runnable
/// entry, and captures only depths the checker has already passed, so
/// restoring one and skipping its prefix checks cannot hide an earlier
/// violation (same prefix => same world => same check outcomes, by
/// determinism).
std::optional<std::pair<std::string, std::size_t>> reproduce_cached(
    const ExploreBuilder& build, const ExploreChecker& check,
    const std::vector<ProcId>& schedule, SnapshotCache* cache,
    ExploreStats* stats) {
  Rebuild r = begin_rebuild(build, schedule, /*counters_only=*/false, cache,
                            stats);
  Simulation& sim = *r.inst.sim;
  if (!r.restored) {
    if (const auto v = check(sim.history()); v.has_value()) {
      return std::make_pair(*v, std::size_t{0});
    }
  }
  for (std::size_t i = r.start; i < schedule.size(); ++i) {
    const ProcId p = schedule[i];
    if (p < 0 || p >= sim.nprocs() || !sim.runnable(p)) {
      r.account(stats);
      return std::nullopt;  // invalid candidate: a dropped step was needed
    }
    sim.macro_step(p);
    if (const auto v = check(sim.history()); v.has_value()) {
      r.account(stats);
      return std::make_pair(*v, i + 1);
    }
    // Check passed at depth i+1: this prefix world is safe to restore into
    // later candidates.
    if (cache != nullptr && i + 1 < schedule.size()) {
      cache->capture(schedule, i + 1, r.inst, stats);
    }
  }
  r.account(stats);
  return std::nullopt;
}

}  // namespace

std::optional<std::pair<std::string, std::size_t>> reproduce_violation(
    const ExploreBuilder& build, const ExploreChecker& check,
    const std::vector<ProcId>& schedule) {
  return reproduce_cached(build, check, schedule, nullptr, nullptr);
}

std::optional<ShrinkResult> shrink_counterexample(
    const ExploreBuilder& build, const ExploreChecker& check,
    const std::vector<ProcId>& schedule, const ShrinkOptions& options) {
  const std::unique_ptr<SnapshotCache> cache =
      make_snapshot_cache(options.snapshot);

  ShrinkResult result;
  const auto base =
      reproduce_cached(build, check, schedule, cache.get(), &result.stats);
  if (!base.has_value()) return std::nullopt;

  result.message = base->first;
  result.schedule.assign(schedule.begin(),
                         schedule.begin() +
                             static_cast<std::ptrdiff_t>(base->second));

  // Accepts the candidate iff it reproduces the same violation; truncates
  // at the reproduction point so trailing noise never survives an edit.
  const auto attempt = [&](const std::vector<ProcId>& cand) {
    ++result.candidates_tried;
    const auto r =
        reproduce_cached(build, check, cand, cache.get(), &result.stats);
    if (!r.has_value() || r->first != result.message) return false;
    ++result.candidates_reproduced;
    result.schedule.assign(cand.begin(),
                           cand.begin() +
                               static_cast<std::ptrdiff_t>(r->second));
    return true;
  };

  for (int pass = 0; pass < options.max_passes; ++pass) {
    bool changed = false;

    // 1. Drop every step of one process at a time (non-participants vanish
    // wholesale instead of one step per round).
    const std::set<ProcId> procs(result.schedule.begin(),
                                 result.schedule.end());
    for (const ProcId p : procs) {
      std::vector<ProcId> cand;
      cand.reserve(result.schedule.size());
      for (const ProcId q : result.schedule) {
        if (q != p) cand.push_back(q);
      }
      if (cand.size() < result.schedule.size() && attempt(cand)) {
        changed = true;
      }
    }

    // 2. Drop single steps, to a fixpoint within the pass.
    for (std::size_t i = 0; i < result.schedule.size();) {
      std::vector<ProcId> cand = result.schedule;
      cand.erase(cand.begin() + static_cast<std::ptrdiff_t>(i));
      if (attempt(cand)) {
        changed = true;  // the element now at i is new: retry the same slot
      } else {
        ++i;
      }
    }

    // 3. Canonicalize: adjacent swaps that make the schedule smaller
    // lexicographically (closest to ascending round-robin order).
    for (std::size_t i = 0; i + 1 < result.schedule.size(); ++i) {
      if (result.schedule[i + 1] >= result.schedule[i]) continue;
      std::vector<ProcId> cand = result.schedule;
      std::swap(cand[i], cand[i + 1]);
      if (attempt(cand)) changed = true;
    }

    if (!changed) break;
  }
  fold_cache_stats(cache.get(), result.stats);
  return result;
}

std::optional<ShrinkResult> shrink_counterexample(
    const ExploreBuilder& build, const ExploreChecker& check,
    const std::vector<ProcId>& schedule, int max_passes) {
  ShrinkOptions options;
  options.max_passes = max_passes;
  return shrink_counterexample(build, check, schedule, options);
}

}  // namespace rmrsim
