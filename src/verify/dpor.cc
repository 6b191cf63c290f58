#include "verify/dpor.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <deque>
#include <limits>
#include <map>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>

#include "common/check.h"
#include "verify/checkpoint.h"
#include "verify/snapshot_cache.h"

namespace rmrsim {

namespace {

using MacroFootprint = Simulation::MacroFootprint;

// The path-step / sleep-entry / work-item types are public now (dpor.h):
// sharded exploration ships work items to worker processes. Clock meaning:
// clock[q] = index of the last q-step that happens-before this step (its
// own entry is its own index), -1 if none. Happens-before is program order
// plus the dependence relation over executed steps. A sleep entry's
// footprint stays exact while the process sleeps: it is woken (dropped
// from the set) by exactly the dependent steps that could change its op's
// outcome.
using PathStep = DporPathStep;
using SleepEntry = DporSleepEntry;
using WorkItem = DporWorkItem;

bool asleep(const std::vector<SleepEntry>& sleep, ProcId p) {
  for (const SleepEntry& e : sleep) {
    if (e.proc == p) return true;
  }
  return false;
}

/// Child sleep set: inherited entries plus previously executed siblings,
/// keeping only those independent of the step taken (dependent entries are
/// woken — their subtrees are no longer covered).
std::vector<SleepEntry> child_sleep(const std::vector<SleepEntry>& inherited,
                                    const std::vector<SleepEntry>& siblings,
                                    const MacroFootprint& fp) {
  std::vector<SleepEntry> out;
  out.reserve(inherited.size() + siblings.size());
  for (const SleepEntry& e : inherited) {
    if (!Simulation::dependent(e.fp, fp)) out.push_back(e);
  }
  for (const SleepEntry& e : siblings) {
    if (!Simulation::dependent(e.fp, fp)) out.push_back(e);
  }
  return out;
}

/// Retroactive race detection: computes the clock of a newly executed step
/// (proc `p`, footprint `fp`, appended after `path`) and collects the
/// indices of earlier steps racing with it — dependent steps not already
/// ordered before it by happens-before. Scans descending with an
/// accumulated clock so only the maximal concurrent step of each dependence
/// chain is flagged.
std::vector<std::int32_t> race_scan(const std::vector<PathStep>& path,
                                    ProcId p, const MacroFootprint& fp,
                                    int nprocs,
                                    std::vector<std::size_t>* races) {
  std::vector<std::int32_t> acc(static_cast<std::size_t>(nprocs), -1);
  for (std::size_t j = path.size(); j-- > 0;) {
    if (path[j].proc == p) {
      acc = path[j].clock;  // program-order predecessor
      break;
    }
  }
  for (std::size_t j = path.size(); j-- > 0;) {
    const PathStep& e = path[j];
    if (!Simulation::dependent(e.fp, fp)) continue;
    if (e.proc != p &&
        static_cast<std::int32_t>(j) > acc[static_cast<std::size_t>(e.proc)]) {
      races->push_back(j);
    }
    for (std::size_t q = 0; q < acc.size(); ++q) {
      acc[q] = std::max(acc[q], e.clock[q]);
    }
  }
  acc[static_cast<std::size_t>(p)] = static_cast<std::int32_t>(path.size());
  return acc;
}

// Violations, external race insertions, and item outcomes are public types
// now (verify/checkpoint.h): an ItemOutcome is exactly the unit the
// persistent frontier records and replays.
using Violation = ExploreViolation;

/// A failed item execution attempt: a worker "dying" (injected failure, an
/// exception escaping the item) or a per-item node-deadline trip. Caught by
/// the retry wrapper; never escapes to the caller.
struct ItemFailure : std::runtime_error {
  using std::runtime_error::runtime_error;
};

struct Shared {
  const ExploreBuilder* build = nullptr;
  const ExploreChecker* check = nullptr;
  int max_depth = 0;
  std::uint64_t max_nodes = 0;
  bool collect_completes = false;
  bool counters_only = false;
  SnapshotSettings snapshot;
  // Worker-failure discipline (DporOptions). The injection hook is a
  // pointer into the options object, which outlives the search.
  int item_max_attempts = 1;
  std::uint64_t retry_backoff_ms = 0;
  std::uint64_t item_node_limit = 0;
  const std::function<bool(const std::vector<ProcId>&, int)>* inject = nullptr;
  std::atomic<std::uint64_t> nodes{0};
  std::atomic<bool> budget_hit{false};
  std::atomic<std::uint64_t> worker_failures{0};
  std::atomic<std::uint64_t> item_retries{0};
};

/// Commits `n` node charges to the shared budget; false (and budget_hit set)
/// once the count passes max_nodes.
bool charge(Shared& sh, std::uint64_t n) {
  const std::uint64_t before = sh.nodes.fetch_add(n, std::memory_order_relaxed);
  if (before + n > sh.max_nodes) {
    sh.budget_hit.store(true, std::memory_order_relaxed);
    return false;
  }
  return true;
}

/// A node of the reduced tree, trunk or item. The trunk keeps its nodes in
/// a map keyed by schedule, so that races arriving from later rounds can
/// still open branches near the root; an item keeps its nodes on its DFS
/// stack.
struct Node {
  std::vector<ProcId> enabled;
  std::vector<SleepEntry> sleep;
  /// Processes to expand from here. Node entry puts the seed here; an
  /// item node keeps its expansions here, a trunk node in the trunk's
  /// `pending` set.
  std::set<ProcId> backtrack;
  std::set<ProcId> done;             ///< processes expanded or pruned here
  std::vector<SleepEntry> siblings;  ///< expanded processes, with footprints
  double naive_product = 1.0;
  double naive_sum = 1.0;
  /// The executed path to the node. Trunk nodes own theirs; an item's
  /// nodes share its DFS's one path vector and leave this empty.
  std::vector<PathStep> path;
};

/// Marks `q` expanded at the node; false if it needs no expansion (already
/// done, or asleep: its subtree is covered by an explored sibling).
bool claim(Node& node, ProcId q, ItemOutcome& tally) {
  if (!node.done.insert(q).second) return false;
  if (asleep(node.sleep, q)) {
    ++tally.sleep_prunes;
    return false;
  }
  return true;
}

void tally_leaf(ItemOutcome& tally, double naive_sum) {
  tally.estimate_sum += naive_sum;
  ++tally.leaves;
}

/// Where a reached state goes: a leaf (tallied), a work-item root at the
/// trunk boundary, or a node to expand.
enum class Entry { kLeaf, kBoundary, kNode };

/// Items have no boundary: their whole subtree is theirs.
constexpr int kNoBoundary = std::numeric_limits<int>::max();

/// Node entry, for the trunk and the items alike: classifies the state the
/// search reached by `schedule` (world `sim`, violation already checked).
/// `node` arrives with its sleep set and naive seeds. Complete, truncated
/// and sleep-blocked states are leaves tallied into `tally`; the boundary
/// test sits between the truncation and sleep-blocked tests; any other
/// state gets its enabled set and its first awake process as backtrack seed.
Entry enter_node(const Shared& sh, const Simulation& sim,
                 const std::vector<ProcId>& schedule, int boundary, Node& node,
                 ItemOutcome& tally) {
  for (ProcId p = 0; p < sim.nprocs(); ++p) {
    if (sim.runnable(p)) node.enabled.push_back(p);
  }
  const int depth = static_cast<int>(schedule.size());
  if (node.enabled.empty()) {
    ++tally.complete;
    if (sh.collect_completes) tally.completes.push_back(schedule);
    tally_leaf(tally, node.naive_sum);
    return Entry::kLeaf;
  }
  if (depth >= sh.max_depth) {
    ++tally.truncated;
    tally_leaf(tally, node.naive_sum);
    return Entry::kLeaf;
  }
  if (depth >= boundary) return Entry::kBoundary;
  for (const ProcId p : node.enabled) {
    if (!asleep(node.sleep, p)) {
      node.backtrack.insert(p);
      return Entry::kNode;
    }
  }
  ++tally.sleep_blocked;
  tally_leaf(tally, node.naive_sum);
  return Entry::kLeaf;
}

/// Child expansion, for the trunk and the items alike: steps `q` from
/// `node` on `sim` (the world at `schedule`), hands every earlier step the
/// new one races with to `route_race(j, q)` (j indexes `path`), extends
/// `schedule` and `path` by the step and enters the child into `child`. A
/// violation makes the child a leaf.
template <typename RouteRace>
Entry expand(const Shared& sh, Node& node, ProcId q, Simulation& sim,
             std::vector<ProcId>& schedule, std::vector<PathStep>& path,
             int boundary, Node& child, ItemOutcome& tally,
             const RouteRace& route_race) {
  const MacroFootprint fp = sim.macro_step(q);
  std::vector<std::size_t> races;
  std::vector<std::int32_t> clock =
      race_scan(path, q, fp, sim.nprocs(), &races);
  for (const std::size_t j : races) route_race(j, q);

  child.sleep = child_sleep(node.sleep, node.siblings, fp);
  node.siblings.push_back({q, fp});
  child.naive_product =
      node.naive_product * static_cast<double>(node.enabled.size());
  child.naive_sum = node.naive_sum + child.naive_product;
  schedule.push_back(q);
  path.push_back({q, fp, std::move(clock)});

  if (const auto v = (*sh.check)(sim.history()); v.has_value()) {
    tally.violations.push_back({schedule, *v});
    tally_leaf(tally, child.naive_sum);
    return Entry::kLeaf;
  }
  return enter_node(sh, sim, schedule, boundary, child, tally);
}

/// Stateless DFS over one item's subtree. Backtracking rebuilds the world
/// and replays the schedule prefix, like the naive explorer; races whose
/// reversal point lies inside the subtree grow local backtrack sets, races
/// targeting the trunk are emitted as externals.
///
/// Node-budget charges accumulate in out.charged and are committed to the
/// shared counter only with the item's outcome, when the attempt succeeds —
/// an attempt that fails (ItemFailure) leaves the global count untouched,
/// so the retried attempt re-executes an identical subtree and
/// nodes_visited stays deterministic under any failure pattern.
void run_item(const Shared& sh, const WorkItem& item, ItemOutcome& out) {
  std::vector<ProcId> schedule = item.schedule;
  std::vector<PathStep> path = item.path;
  const std::size_t root_depth = schedule.size();
  std::vector<Node> frames;

  // Private per-item cache, seeded with the shipped root snapshot: the
  // item's first rebuild is a pure restore, later ones restore the deepest
  // stride-aligned ancestor captured during descent. No cross-thread state.
  const std::unique_ptr<SnapshotCache> cache =
      make_snapshot_cache(sh.snapshot);
  if (cache != nullptr && item.root_snap != nullptr) {
    cache->insert(item.schedule, item.root_snap);
  }

  ExploreInstance inst = materialize_schedule(*sh.build, schedule,
                                              ReplayUnit::kMacro,
                                              sh.counters_only, cache.get(),
                                              &out.replay);
  bool sim_valid = true;

  const auto route_race = [&](std::size_t j, ProcId q) {
    if (j >= root_depth) {
      Node& target = frames[j - root_depth];
      if (!target.done.count(q) && target.backtrack.insert(q).second) {
        ++out.backtracks;
      }
    } else {
      out.externals.push_back(
          {std::vector<ProcId>(schedule.begin(),
                               schedule.begin() +
                                   static_cast<std::ptrdiff_t>(j)),
           q});
    }
  };

  Node root;
  root.sleep = item.sleep;
  root.naive_product = item.naive_product;
  root.naive_sum = item.naive_sum;
  if (enter_node(sh, *inst.sim, schedule, kNoBoundary, root, out) ==
      Entry::kNode) {
    frames.push_back(std::move(root));
  }

  while (!frames.empty()) {
    Node& f = frames.back();
    ProcId q = kNoProc;
    for (const ProcId c : f.backtrack) {
      if (!f.done.count(c)) {
        q = c;
        break;
      }
    }
    if (q == kNoProc) {
      frames.pop_back();
      if (!frames.empty()) {
        schedule.pop_back();
        path.pop_back();
      }
      sim_valid = false;
      continue;
    }
    if (!claim(f, q, out)) continue;
    ++out.charged;
    if (sh.nodes.load(std::memory_order_relaxed) + out.charged >
        sh.max_nodes) {
      // Global budget: abandon the item (best effort, partial outcome).
      out.budget_hit = true;
      break;
    }
    if (sh.item_node_limit > 0 && out.charged > sh.item_node_limit) {
      throw ItemFailure("work item exceeded its per-attempt step deadline (" +
                        std::to_string(sh.item_node_limit) + " nodes)");
    }
    if (!sim_valid) {
      inst = materialize_schedule(*sh.build, schedule, ReplayUnit::kMacro,
                                  sh.counters_only, cache.get(), &out.replay);
      sim_valid = true;
    }
    Node child;
    if (expand(sh, f, q, *inst.sim, schedule, path, kNoBoundary, child, out,
               route_race) != Entry::kNode) {
      schedule.pop_back();
      path.pop_back();
      sim_valid = false;
      continue;
    }
    frames.push_back(std::move(child));
    // Descent-time capture: later backtracks into this subtree restore here
    // instead of replaying from the item root.
    if (cache != nullptr) {
      cache->capture(schedule, schedule.size(), inst, &out.replay);
    }
  }
  fold_cache_stats(cache.get(), out.replay);
}

/// Runs one item under the worker-failure discipline: a failed attempt
/// (thrown exception — a "dead" worker — or a per-item node deadline) is
/// retried in the same slot with exponential backoff, up to item_max_attempts
/// total attempts. Retrying in place rather than re-enqueueing preserves
/// the pool's termination invariant (no new queue entries appear mid-round)
/// while giving the same bounded-retry semantics. Commits nothing: the
/// result carries the outcome (or the quarantine reason of a permanently
/// failing item) and the attempt counts, and the caller commits it — the
/// coordinator's commit for an in-process item, the wire for a worker
/// process's.
DistItemResult run_item_recovering(const Shared& sh, const WorkItem& item) {
  DistItemResult r;
  for (int attempt = 1;; ++attempt) {
    ItemOutcome out;
    out.schedule = item.schedule;
    try {
      if (sh.inject != nullptr && *sh.inject &&
          (*sh.inject)(item.schedule, attempt)) {
        throw ItemFailure("injected worker failure");
      }
      run_item(sh, item, out);
      r.ok = true;
      r.outcome = std::move(out);
      return r;
    } catch (const std::exception& e) {
      ++r.worker_failures;
      if (attempt >= sh.item_max_attempts) {
        r.quarantine_reason = e.what();
        return r;
      }
      ++r.item_retries;
      if (sh.retry_backoff_ms > 0) {
        const std::uint64_t shift =
            std::min<std::uint64_t>(static_cast<std::uint64_t>(attempt - 1),
                                    10);
        const std::uint64_t delay_ms =
            std::min<std::uint64_t>(sh.retry_backoff_ms << shift, 1000);
        std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms));
      }
    }
  }
}

/// Fills the per-search shared state from the options — the half of the
/// configuration run_item needs, shared between the in-process pool
/// (explore_dpor) and the out-of-process entry (run_dist_item) so both
/// execute subtrees identically.
void init_shared(Shared& sh, const ExploreBuilder& build,
                 const ExploreChecker& check, const DporOptions& options) {
  sh.build = &build;
  sh.check = &check;
  sh.max_depth = options.max_depth;
  sh.max_nodes = options.max_nodes;
  sh.collect_completes = static_cast<bool>(options.on_complete_schedule);
  sh.counters_only = options.counters_only_history;
  sh.snapshot = options.snapshot;
  sh.item_max_attempts = std::max(1, options.item_max_attempts);
  sh.retry_backoff_ms = options.retry_backoff_ms;
  sh.item_node_limit = options.item_node_limit;
  sh.inject = options.inject_item_failure ? &options.inject_item_failure
                                          : nullptr;
}

}  // namespace

ExploreResult explore_dpor(const ExploreBuilder& build,
                           const ExploreChecker& check,
                           const DporOptions& options) {
  ensure(options.dist == nullptr || !options.on_complete_schedule,
         "explore_dpor: on_complete_schedule cannot be combined with a dist "
         "executor (complete schedules are collected in-process only)");
  ExploreResult result;
  Shared sh;
  init_shared(sh, build, check, options);
  ExploreCheckpoint* const ck = options.checkpoint;

  // Trunk-level cache: the coordinator's expansions walk prefixes of each
  // other, so nearly every rebuild is a one-step delta from a cached node.
  const std::unique_ptr<SnapshotCache> trunk_cache =
      make_snapshot_cache(sh.snapshot);

  const int trunk_depth =
      std::max(0, std::min(options.trunk_depth, options.max_depth));

  // The trunk: its nodes, and their pending expansions in the canonical
  // (schedule, process) order the drain takes them in.
  std::map<std::vector<ProcId>, Node> trunk;
  std::set<std::pair<std::vector<ProcId>, ProcId>> pending;
  std::vector<WorkItem> items;  // this round's, in creation order
  // The trunk's leaves, tallied as an item tallies its own and merged the
  // same way, after each drain.
  ItemOutcome trunk_tally;
  std::vector<Violation> violations;
  double estimate_sum = 0.0;
  std::uint64_t leaves = 0;

  // A race that targets trunk node `sched` — from a trunk step, or from an
  // item through its outcome's externals.
  const auto trunk_backtrack = [&](const std::vector<ProcId>& sched,
                                   ProcId q) {
    const auto it = trunk.find(sched);
    ensure(it != trunk.end(), "dpor race targets unknown trunk node");
    if (!it->second.done.count(q) && pending.insert({sched, q}).second) {
      ++result.stats.backtrack_points;
    }
  };

  // Places a trunk state once entered: a node into the trunk with its seed
  // pending, a boundary state into this round's items.
  const auto place = [&](std::vector<ProcId> sched, Node& node, Entry entry,
                         const ExploreInstance& inst) {
    if (entry == Entry::kNode) {
      // The seed joins `pending`, where all of a trunk node's expansions
      // wait; trunk nodes keep no backtrack set.
      pending.insert({sched, *node.backtrack.begin()});
      node.backtrack.clear();
      trunk.emplace(std::move(sched), std::move(node));
    } else if (entry == Entry::kBoundary) {
      WorkItem item{std::move(sched), std::move(node.path),
                    std::move(node.sleep), node.naive_product,
                    node.naive_sum, nullptr};
      if (trunk_cache != nullptr) {
        // Ship the root world with the item: whichever worker steals it
        // starts from a restore, not a trunk-prefix replay.
        item.root_snap = take_snapshot(inst);
        ++result.stats.snapshots_taken;
      }
      items.push_back(std::move(item));
    }
  };

  // Merges a tally — the trunk's after the root and after each drain, then
  // the round's items' in item order — into the result.
  const auto merge = [&](const ItemOutcome& out) {
    result.complete_schedules += out.complete;
    result.truncated_schedules += out.truncated;
    result.stats.sleep_set_prunes += out.sleep_prunes;
    result.stats.sleep_blocked_paths += out.sleep_blocked;
    result.stats.backtrack_points += out.backtracks;
    result.stats.replayed_steps += out.replay.replayed_steps;
    result.stats.snapshot_hits += out.replay.snapshot_hits;
    result.stats.snapshot_misses += out.replay.snapshot_misses;
    result.stats.snapshots_taken += out.replay.snapshots_taken;
    result.stats.snapshot_evictions += out.replay.snapshot_evictions;
    result.stats.snapshot_delta_steps += out.replay.snapshot_delta_steps;
    result.stats.snapshot_peak_bytes = std::max(
        result.stats.snapshot_peak_bytes, out.replay.snapshot_peak_bytes);
    estimate_sum += out.estimate_sum;
    leaves += out.leaves;
    for (const Violation& v : out.violations) violations.push_back(v);
    if (options.on_complete_schedule) {
      for (const auto& s : out.completes) options.on_complete_schedule(s);
    }
    for (const ExternalAdd& add : out.externals) {
      trunk_backtrack(add.node_path, add.proc);
    }
  };

  // Root.
  {
    if (!charge(sh, 1)) {
      result.exhausted = false;
      return result;
    }
    ExploreInstance root =
        materialize_schedule(build, {}, ReplayUnit::kMacro, sh.counters_only,
                             trunk_cache.get(), &result.stats);
    if (const auto v = check(root.sim->history()); v.has_value()) {
      result.nodes_visited = sh.nodes.load();
      result.violation = v;
      return result;
    }
    Node node;
    const Entry entry =
        enter_node(sh, *root.sim, {}, trunk_depth, node, trunk_tally);
    place({}, node, entry, root);
    merge(std::exchange(trunk_tally, {}));
  }

  // Round fixpoint: drain trunk expansions in canonical order (spawning
  // items at the trunk boundary), run the items, integrate their external
  // race insertions, repeat until nothing new appears.
  while ((!pending.empty() || !items.empty()) &&
         !sh.budget_hit.load(std::memory_order_relaxed)) {
    ++result.stats.rounds;

    while (!pending.empty() &&
           !sh.budget_hit.load(std::memory_order_relaxed)) {
      const auto [sched, q] = *pending.begin();
      pending.erase(pending.begin());
      auto it = trunk.find(sched);
      ensure(it != trunk.end(), "dpor trunk expansion targets unknown node");
      Node& node = it->second;
      if (!claim(node, q, trunk_tally)) continue;
      if (!charge(sh, 1)) break;

      ExploreInstance inst =
          materialize_schedule(build, sched, ReplayUnit::kMacro,
                               sh.counters_only, trunk_cache.get(),
                               &result.stats);
      std::vector<ProcId> child_sched = sched;
      Node child;
      child.path = node.path;
      const Entry entry = expand(
          sh, node, q, *inst.sim, child_sched, child.path, trunk_depth, child,
          trunk_tally, [&](std::size_t j, ProcId p) {
            trunk_backtrack(
                std::vector<ProcId>(
                    sched.begin(),
                    sched.begin() + static_cast<std::ptrdiff_t>(j)),
                p);
          });
      place(std::move(child_sched), child, entry, inst);
    }
    merge(std::exchange(trunk_tally, {}));

    if (sh.budget_hit.load(std::memory_order_relaxed)) break;
    if (items.empty()) continue;  // new pending may have appeared; re-drain

    // Run this round's items — inline, or on a work-stealing pool. Each
    // item is self-contained, so results are independent of which worker
    // runs what; outcomes merge in item order (canonical).
    std::vector<ItemOutcome> outcomes(items.size());
    std::vector<std::string> quarantine(items.size());  // empty = healthy
    result.stats.work_items += items.size();

    // Checkpoint pre-pass: items already completed by a previous run (or an
    // earlier epoch of this one) merge their recorded outcome verbatim and
    // never re-execute; items quarantined there stay quarantined. Charges
    // commit exactly as a live run of the item would, so nodes_visited and
    // the budget check are unchanged by resuming.
    std::vector<char> resolved(items.size(), 0);
    if (ck != nullptr) {
      for (std::size_t i = 0; i < items.size(); ++i) {
        if (ck->is_quarantined(items[i].schedule, &quarantine[i])) {
          resolved[i] = 1;
        } else if (ck->lookup(items[i].schedule, &outcomes[i])) {
          resolved[i] = 1;
          ++result.stats.checkpoint_item_hits;
          charge(sh, outcomes[i].charged);
        }
      }
    }
    std::vector<std::size_t> live;
    live.reserve(items.size());
    for (std::size_t i = 0; i < items.size(); ++i) {
      if (!resolved[i]) live.push_back(i);
    }

    // The one commit of an executed item, wherever it ran (a pool thread
    // or a dist executor, on the coordinator thread): the retry
    // accounting, the quarantine or the node charges with the budget check
    // against the authoritative counter, and the checkpoint record.
    // Thread-safe: atomics, one slot per job, and the checkpoint's lock.
    const auto commit = [&](std::size_t job, DistItemResult&& r) {
      sh.worker_failures.fetch_add(r.worker_failures,
                                   std::memory_order_relaxed);
      sh.item_retries.fetch_add(r.item_retries, std::memory_order_relaxed);
      if (!r.ok) {
        // A failure without a reason (an exception with an empty message,
        // or any executor's result) must still quarantine: an empty slot
        // reads as healthy below.
        quarantine[job] = r.quarantine_reason.empty()
                              ? std::string("worker process failed")
                              : std::move(r.quarantine_reason);
        if (ck != nullptr) {
          ck->record_quarantine(items[job].schedule, quarantine[job]);
        }
        return;
      }
      outcomes[job] = std::move(r.outcome);
      charge(sh, outcomes[job].charged);
      if (ck != nullptr && !outcomes[job].budget_hit) {
        ck->record_outcome(outcomes[job]);
      }
    };
    const auto run_one = [&](std::size_t job) {
      commit(job, run_item_recovering(sh, items[job]));
    };

    // Runs the live items: on the external (multi-process) executor when
    // one is configured, inline when effectively sequential, on the
    // work-stealing thread pool otherwise.
    const auto run_jobs = [&](const std::vector<std::size_t>& jobs) {
      if (jobs.empty()) return;
      if (options.dist != nullptr) {
        options.dist->run_round(
            items, jobs,
            [&sh] { return sh.nodes.load(std::memory_order_relaxed); },
            commit);
        return;
      }
      const int workers = std::min<int>(std::max(1, options.workers),
                                        static_cast<int>(jobs.size()));
      if (workers <= 1) {
        for (const std::size_t job : jobs) run_one(job);
        return;
      }
      std::vector<std::deque<std::size_t>> queues(
          static_cast<std::size_t>(workers));
      std::vector<std::mutex> locks(static_cast<std::size_t>(workers));
      for (std::size_t i = 0; i < jobs.size(); ++i) {
        queues[i % static_cast<std::size_t>(workers)].push_back(jobs[i]);
      }
      const auto worker = [&](int w) {
        for (;;) {
          std::size_t job = items.size();
          {
            std::lock_guard<std::mutex> g(locks[static_cast<std::size_t>(w)]);
            auto& mine = queues[static_cast<std::size_t>(w)];
            if (!mine.empty()) {
              job = mine.back();
              mine.pop_back();
            }
          }
          if (job == items.size()) {
            // Steal from the front of the longest-suffering victim. No new
            // items appear mid-round (failed attempts retry in place, they
            // are not re-enqueued), so one empty sweep means done.
            for (int v = 0; v < workers && job == items.size(); ++v) {
              if (v == w) continue;
              std::lock_guard<std::mutex> g(
                  locks[static_cast<std::size_t>(v)]);
              auto& theirs = queues[static_cast<std::size_t>(v)];
              if (!theirs.empty()) {
                job = theirs.front();
                theirs.pop_front();
              }
            }
          }
          if (job == items.size()) return;
          run_one(job);
        }
      };
      std::vector<std::thread> pool;
      pool.reserve(static_cast<std::size_t>(workers));
      for (int w = 0; w < workers; ++w) pool.emplace_back(worker, w);
      for (std::thread& t : pool) t.join();
    };

    run_jobs(live);

    for (std::size_t i = 0; i < outcomes.size(); ++i) {
      if (!quarantine[i].empty()) {
        result.quarantined_items.push_back(
            {items[i].schedule, quarantine[i]});
        continue;  // unexplored subtree: contributes nothing else
      }
      merge(outcomes[i]);
    }
    items.clear();
    // Round barrier = checkpoint barrier: everything merged so far is
    // durable before the next round's trunk expansions begin.
    if (ck != nullptr) ck->flush();
  }

  fold_cache_stats(trunk_cache.get(), result.stats);
  result.nodes_visited = std::min<std::uint64_t>(sh.nodes.load(), sh.max_nodes);
  // Quarantined items leave their subtrees unexplored: like a budget trip,
  // the verdict is then best-effort, never reported as exhaustive.
  result.exhausted = !sh.budget_hit.load(std::memory_order_relaxed) &&
                     result.quarantined_items.empty();
  result.stats.worker_failures =
      sh.worker_failures.load(std::memory_order_relaxed);
  result.stats.item_retries = sh.item_retries.load(std::memory_order_relaxed);
  if (ck != nullptr) {
    ck->flush();
    result.stats.checkpoint_epochs = ck->epochs_written();
  }
  result.stats.naive_tree_estimate =
      leaves > 0 ? estimate_sum / static_cast<double>(leaves) : 1.0;
  if (!violations.empty()) {
    const Violation* best = &violations.front();
    for (const Violation& v : violations) {
      if (v.schedule < best->schedule) best = &v;
    }
    result.violation = best->message;
    result.violating_schedule = best->schedule;
  }
  return result;
}

DistItemResult run_dist_item(const ExploreBuilder& build,
                             const ExploreChecker& check,
                             const DporOptions& options,
                             const DporWorkItem& item,
                             std::uint64_t base_nodes) {
  Shared sh;
  init_shared(sh, build, check, options);
  // The worker sees the coordinator's committed count as of dispatch, so
  // its mid-item budget check `base + charged > max_nodes` can only be
  // more permissive than the live in-process check — and agrees with it
  // exactly whenever the budget does not trip.
  sh.nodes.store(base_nodes, std::memory_order_relaxed);
  return run_item_recovering(sh, item);
}

}  // namespace rmrsim
