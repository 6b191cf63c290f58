// Depth-stratified snapshot cache: the state-reconstruction engine behind
// SnapshotMode::kSnapshot (DESIGN.md, "Snapshot exploration"), and the one
// place that turns SnapshotSettings into a rebuild policy.
//
// Exploration trees address nodes by schedule prefixes, and rmrsim worlds
// are deterministic functions of their prefix — so a WorldSnapshot captured
// after replaying a prefix stands for that tree node forever. The cache maps
// prefixes to snapshots; rebuilding a node restores the deepest cached
// ancestor and replays only the remaining suffix. Replay cost per node drops
// from O(depth) to O(stride), killing the O(nodes x depth) replay tax.
//
// Every verify engine rebuilds its worlds through this file: it gets its
// cache from make_snapshot_cache (null in replay mode), starts each rebuild
// at begin_rebuild (restore the deepest cached ancestor, or build a fresh
// world), and captures along the way through SnapshotCache::capture. The
// engines decide only *when* to rebuild and capture.
//
// Memory is bounded: snapshots are taken only at stride-aligned depths and
// the cache LRU-evicts past a byte budget (WorldSnapshot::approx_bytes).
// Caches are single-threaded by design; the parallel DPOR search gives each
// work item a private cache seeded with the snapshot shipped alongside the
// stolen frame.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <unordered_map>
#include <vector>

#include "verify/explorer.h"

namespace rmrsim {

class SnapshotCache {
 public:
  /// Reads the stride and byte budget of `settings` (not the mode: a cache
  /// exists only in snapshot mode). A stride below 1 reads as 1.
  explicit SnapshotCache(const SnapshotSettings& settings)
      : stride_(static_cast<std::size_t>(std::max(1, settings.stride))),
        max_bytes_(settings.max_bytes) {}

  /// True iff a snapshot for exactly this prefix is cached (cheap; used to
  /// avoid re-capturing a prefix every time a replay passes through it).
  bool contains(const std::vector<ProcId>& prefix) const {
    return entries_.find(prefix) != entries_.end();
  }

  /// FNV-1a over the schedule entries. Prefix keys live in a hash map: the
  /// longest-prefix probe runs hundreds of thousands of times per
  /// exploration, and ordered-map lookups (O(log n) full vector
  /// comparisons each) were the single hottest profile entry.
  struct PrefixHash {
    std::size_t operator()(const std::vector<ProcId>& v) const {
      std::size_t h = 14695981039346656037ull;
      for (const ProcId p : v) {
        h ^= static_cast<std::size_t>(static_cast<std::uint32_t>(p));
        h *= 1099511628211ull;
      }
      return h;
    }
  };

  /// Caches `snap` as the world at `prefix`, evicting least-recently-used
  /// entries if the byte budget overflows. A snapshot alone bigger than the
  /// whole budget is refused (returns false).
  bool insert(std::vector<ProcId> prefix,
              std::shared_ptr<const WorldSnapshot> snap);

  /// The capture rule of every rebuild: caches the world `inst` at the
  /// first `len` entries of `schedule` iff `len` is stride-aligned and not
  /// cached yet, counting a snapshot taken into stats->snapshots_taken.
  /// Capturing every node would make the snapshots themselves the new
  /// O(nodes) tax; at stride k a rebuild replays at most k units past its
  /// nearest aligned ancestor. Callers decide when a depth may be captured
  /// at all (the shrinker, only after its check there passed).
  void capture(const std::vector<ProcId>& schedule, std::size_t len,
               const ExploreInstance& inst, ExploreStats* stats);

  /// The deepest cached snapshot whose prefix is a prefix of `target`
  /// (including `target` itself), or nullptr. Refreshes the entry's LRU
  /// position. On return, `*matched_len` (if non-null) holds the prefix
  /// length of the match.
  std::shared_ptr<const WorldSnapshot> best_prefix(
      const std::vector<ProcId>& target, std::size_t* matched_len = nullptr);

  std::size_t size() const { return entries_.size(); }
  std::size_t bytes() const { return bytes_; }
  std::size_t peak_bytes() const { return peak_bytes_; }
  std::uint64_t evictions() const { return evictions_; }

 private:
  struct Entry {
    std::shared_ptr<const WorldSnapshot> snap;
    std::size_t bytes = 0;
    std::uint64_t last_used = 0;
  };

  void evict_to_budget();
  void erase_entry(const std::vector<ProcId>& key);

  std::size_t stride_;
  std::size_t max_bytes_;
  std::unordered_map<std::vector<ProcId>, Entry, PrefixHash> entries_;
  // Distinct prefix lengths present -> entry count. best_prefix probes only
  // lengths that actually exist (descending), not every length L..0.
  std::map<std::size_t, std::size_t> length_count_;
  std::size_t bytes_ = 0;
  std::size_t peak_bytes_ = 0;
  std::uint64_t evictions_ = 0;
  std::uint64_t tick_ = 0;  // monotonic LRU clock (deterministic)
};

/// The schedule entry granularity of a replay. Explorers and the DPOR engine
/// branch on macro steps; the crash-point sweep replays raw simulator
/// schedules (where kNoProc entries are clock ticks).
enum class ReplayUnit {
  kMacro,
  kStep,
};

/// Captures the current world of `inst` (carrying its keepalive so restored
/// clones keep the algorithm objects alive).
std::shared_ptr<const WorldSnapshot> take_snapshot(const ExploreInstance& inst);

/// Rehydrates a live instance from a snapshot.
ExploreInstance restore_instance(const WorldSnapshot& snap);

/// The one way an engine gets its cache: a cache of `settings` in snapshot
/// mode, null in replay mode.
std::unique_ptr<SnapshotCache> make_snapshot_cache(
    const SnapshotSettings& settings);

/// A fresh world from build(), the start of every rebuild that no snapshot
/// serves: counters-only history if asked, and the fork log armed when the
/// world may be snapshotted (`snapshots`; before its first step, as
/// take_snapshot requires).
ExploreInstance fresh_world(const ExploreBuilder& build, bool counters_only,
                            bool snapshots);

/// A rebuild of the world at some target schedule, at its start.
struct Rebuild {
  ExploreInstance inst;
  std::size_t start = 0;  ///< entries of the target the world already has
  bool restored = false;  ///< served from a snapshot (a cache hit)
  std::size_t base_steps = 0;  ///< inst's simulator schedule length at start
  /// Counts the simulator steps executed since the start into `stats`:
  /// replayed_steps always, snapshot_delta_steps after a restore.
  void account(ExploreStats* stats) const;
};

/// The restore head every rebuild starts at: restores the deepest cached
/// ancestor of `schedule` if `cache` is non-null and holds one (a hit),
/// else builds a fresh world (a miss in snapshot mode). Hits and misses
/// count into `stats` (optional).
Rebuild begin_rebuild(const ExploreBuilder& build,
                      const std::vector<ProcId>& schedule, bool counters_only,
                      SnapshotCache* cache, ExploreStats* stats);

/// Builds the world at `schedule`: begin_rebuild, then replays the
/// remaining suffix one `unit` at a time, capturing into the cache along
/// the way, which bounds any later rebuild's replay to at most `stride`
/// units past its deepest cached ancestor.
///
/// `stats` (optional) receives the honest accounting: replayed_steps counts
/// every simulator step and tick actually executed — measured from the
/// simulator's own schedule growth, not the entry count of `schedule` — and
/// the snapshot hit/miss/delta counters.
ExploreInstance materialize_schedule(const ExploreBuilder& build,
                                     const std::vector<ProcId>& schedule,
                                     ReplayUnit unit, bool counters_only,
                                     SnapshotCache* cache,
                                     ExploreStats* stats = nullptr);

/// Advances a live instance by one replay unit of `p` — the zero-copy way
/// to descend into a DFS child when the parent world is already in hand.
/// `prefix` must be the child node's full schedule (parent prefix + p); it
/// is captured into `cache` exactly as a replay through it would be. Steps
/// executed are counted into stats->replayed_steps (they are real simulator
/// work) but not into snapshot_delta_steps (nothing was restored).
void extend_in_place(ExploreInstance& inst, ProcId p, ReplayUnit unit,
                     const std::vector<ProcId>& prefix, SnapshotCache* cache,
                     ExploreStats* stats = nullptr);

/// Folds a cache's end-of-life counters into `stats` (evictions and peak
/// bytes are cache-lifetime aggregates, collected once per cache). A null
/// cache (replay mode) folds nothing.
void fold_cache_stats(const SnapshotCache* cache, ExploreStats& stats);

}  // namespace rmrsim
