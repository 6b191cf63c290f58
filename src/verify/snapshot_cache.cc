#include "verify/snapshot_cache.h"

#include <algorithm>
#include <utility>

#include "common/check.h"

namespace rmrsim {

bool SnapshotCache::insert(std::vector<ProcId> prefix,
                           std::shared_ptr<const WorldSnapshot> snap) {
  ensure(snap != nullptr, "SnapshotCache::insert: null snapshot");
  const std::size_t snap_bytes = snap->approx_bytes();
  if (snap_bytes > max_bytes_) return false;
  const std::size_t len = prefix.size();
  auto [it, inserted] = entries_.try_emplace(std::move(prefix));
  Entry& e = it->second;
  if (inserted) {
    ++length_count_[len];
  } else {
    bytes_ -= e.bytes;  // replacing an existing entry
  }
  e.snap = std::move(snap);
  e.bytes = snap_bytes;
  e.last_used = ++tick_;
  bytes_ += snap_bytes;
  if (bytes_ > peak_bytes_) peak_bytes_ = bytes_;
  evict_to_budget();
  return true;
}

std::shared_ptr<const WorldSnapshot> SnapshotCache::best_prefix(
    const std::vector<ProcId>& target, std::size_t* matched_len) {
  // Longest-prefix match, probing only prefix lengths that exist in the
  // cache (descending). Snapshots cluster at stride-aligned depths, so this
  // is a handful of hash lookups instead of |target| ordered-map lookups.
  std::vector<ProcId> key;
  key.reserve(target.size());
  for (auto lit = length_count_.upper_bound(target.size());
       lit != length_count_.begin();) {
    --lit;
    const std::size_t len = lit->first;
    key.assign(target.begin(),
               target.begin() + static_cast<std::ptrdiff_t>(len));
    auto it = entries_.find(key);
    if (it != entries_.end()) {
      it->second.last_used = ++tick_;
      if (matched_len != nullptr) *matched_len = len;
      return it->second.snap;
    }
  }
  if (matched_len != nullptr) *matched_len = 0;
  return nullptr;
}

void SnapshotCache::erase_entry(const std::vector<ProcId>& key) {
  auto it = entries_.find(key);
  ensure(it != entries_.end(), "SnapshotCache: eviction key vanished");
  bytes_ -= it->second.bytes;
  auto lit = length_count_.find(key.size());
  if (--lit->second == 0) length_count_.erase(lit);
  entries_.erase(it);
  ++evictions_;
}

void SnapshotCache::evict_to_budget() {
  if (bytes_ <= max_bytes_) return;
  // Batch eviction: drop the least-recently-used entries down to 3/4 of the
  // budget, so the O(n log n) scan amortizes over the ~n/4 inserts it buys.
  // Deterministic despite the unordered container — last_used ticks are
  // unique and monotone, so the sorted order is total.
  std::vector<std::pair<std::uint64_t, const std::vector<ProcId>*>> order;
  order.reserve(entries_.size());
  for (const auto& [key, e] : entries_) order.emplace_back(e.last_used, &key);
  std::sort(order.begin(), order.end());
  const std::size_t target = max_bytes_ - max_bytes_ / 4;
  for (const auto& [used, key] : order) {
    if (bytes_ <= target || entries_.size() <= 1) break;
    erase_entry(*key);
  }
}

std::shared_ptr<const WorldSnapshot> take_snapshot(
    const ExploreInstance& inst) {
  WorldSnapshot s = inst.sim->snapshot();
  s.keepalive = inst.keepalive;
  return std::make_shared<const WorldSnapshot>(std::move(s));
}

ExploreInstance restore_instance(const WorldSnapshot& snap) {
  Simulation::ForkedWorld world = Simulation::restore(snap);
  return ExploreInstance{snap.keepalive, std::move(world.mem),
                         std::move(world.sim)};
}

namespace {

/// Applies one replay unit of `p`; mirrors the explorers' branch semantics.
void apply_unit(Simulation& sim, ProcId p, ReplayUnit unit) {
  switch (unit) {
    case ReplayUnit::kMacro:
      if (sim.runnable(p)) sim.macro_step(p);
      break;
    case ReplayUnit::kStep:
      if (p == kNoProc) {
        sim.tick();
      } else if (sim.runnable(p)) {
        sim.step(p);
      }
      break;
  }
}

}  // namespace

std::unique_ptr<SnapshotCache> make_snapshot_cache(
    const SnapshotSettings& settings) {
  if (settings.mode != SnapshotMode::kSnapshot) return nullptr;
  return std::make_unique<SnapshotCache>(settings);
}

void SnapshotCache::capture(const std::vector<ProcId>& schedule,
                            std::size_t len, const ExploreInstance& inst,
                            ExploreStats* stats) {
  if (len % stride_ != 0) return;
  std::vector<ProcId> prefix(
      schedule.begin(), schedule.begin() + static_cast<std::ptrdiff_t>(len));
  if (contains(prefix)) return;
  if (insert(std::move(prefix), take_snapshot(inst)) && stats != nullptr) {
    ++stats->snapshots_taken;
  }
}

ExploreInstance fresh_world(const ExploreBuilder& build, bool counters_only,
                            bool snapshots) {
  ExploreInstance inst = build();
  ensure(inst.sim != nullptr, "explore builder returned no simulation");
  if (counters_only) inst.sim->set_history_mode(HistoryMode::kCountersOnly);
  if (snapshots) inst.sim->enable_fork_log();
  return inst;
}

void Rebuild::account(ExploreStats* stats) const {
  if (stats == nullptr) return;
  const std::uint64_t executed = inst.sim->schedule().size() - base_steps;
  stats->replayed_steps += executed;
  if (restored) stats->snapshot_delta_steps += executed;
}

Rebuild begin_rebuild(const ExploreBuilder& build,
                      const std::vector<ProcId>& schedule, bool counters_only,
                      SnapshotCache* cache, ExploreStats* stats) {
  Rebuild r;
  if (cache != nullptr) {
    if (const std::shared_ptr<const WorldSnapshot> snap =
            cache->best_prefix(schedule, &r.start)) {
      r.inst = restore_instance(*snap);
      r.restored = true;
    }
    if (stats != nullptr) {
      ++(r.restored ? stats->snapshot_hits : stats->snapshot_misses);
    }
  }
  if (!r.restored) r.inst = fresh_world(build, counters_only, cache != nullptr);
  r.base_steps = r.inst.sim->schedule().size();
  return r;
}

ExploreInstance materialize_schedule(const ExploreBuilder& build,
                                     const std::vector<ProcId>& schedule,
                                     ReplayUnit unit, bool counters_only,
                                     SnapshotCache* cache,
                                     ExploreStats* stats) {
  Rebuild r = begin_rebuild(build, schedule, counters_only, cache, stats);
  for (std::size_t i = r.start; i < schedule.size(); ++i) {
    apply_unit(*r.inst.sim, schedule[i], unit);
    if (cache != nullptr) cache->capture(schedule, i + 1, r.inst, stats);
  }
  r.account(stats);
  return std::move(r.inst);
}

void extend_in_place(ExploreInstance& inst, ProcId p, ReplayUnit unit,
                     const std::vector<ProcId>& prefix, SnapshotCache* cache,
                     ExploreStats* stats) {
  Simulation& sim = *inst.sim;
  const std::size_t base = sim.schedule().size();
  apply_unit(sim, p, unit);
  if (stats != nullptr) stats->replayed_steps += sim.schedule().size() - base;
  if (cache != nullptr) cache->capture(prefix, prefix.size(), inst, stats);
}

void fold_cache_stats(const SnapshotCache* cache, ExploreStats& stats) {
  if (cache == nullptr) return;
  stats.snapshot_evictions += cache->evictions();
  if (cache->peak_bytes() > stats.snapshot_peak_bytes) {
    stats.snapshot_peak_bytes = cache->peak_bytes();
  }
}

}  // namespace rmrsim
