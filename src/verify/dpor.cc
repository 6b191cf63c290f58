#include "verify/dpor.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <deque>
#include <map>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>

#include "common/check.h"
#include "sched/schedulers.h"
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
  bool snapshots = false;  // SnapshotMode::kSnapshot
  SnapshotCache::Config cache_config;
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

bool charge_node(Shared& sh) {
  const std::uint64_t n = sh.nodes.fetch_add(1, std::memory_order_relaxed);
  if (n >= sh.max_nodes) {
    sh.budget_hit.store(true, std::memory_order_relaxed);
    return false;
  }
  return true;
}

/// Stateless DFS over one item's subtree. Backtracking rebuilds the world
/// and replays the schedule prefix, like the naive explorer; races whose
/// reversal point lies inside the subtree grow local backtrack sets, races
/// targeting the trunk are emitted as externals.
///
/// Node-budget charges accumulate in out.charged and are committed to the
/// shared counter only by the retry wrapper, when the attempt succeeds —
/// an attempt that fails (ItemFailure) leaves the global count untouched,
/// so the retried attempt re-executes an identical subtree and
/// nodes_visited stays deterministic under any failure pattern.
void run_item(Shared& sh, const WorkItem& item, ItemOutcome& out) {
  struct Frame {
    std::vector<ProcId> enabled;
    std::vector<SleepEntry> sleep;
    std::set<ProcId> backtrack;
    std::set<ProcId> done;
    std::vector<SleepEntry> siblings;
    double naive_product = 1.0;
    double naive_sum = 1.0;
  };

  std::vector<ProcId> schedule = item.schedule;
  std::vector<PathStep> path = item.path;
  const std::size_t root_depth = schedule.size();
  std::vector<Frame> frames;

  // Private per-item cache, seeded with the shipped root snapshot: the
  // item's first rebuild is a pure restore, later ones restore the deepest
  // stride-aligned ancestor captured during descent. No cross-thread state.
  std::optional<SnapshotCache> cache;
  if (sh.snapshots) {
    cache.emplace(sh.cache_config);
    if (item.root_snap != nullptr) {
      cache->insert(item.schedule, item.root_snap);
    }
  }
  SnapshotCache* cache_ptr = cache.has_value() ? &*cache : nullptr;

  ExploreInstance inst = materialize_schedule(*sh.build, schedule,
                                              ReplayUnit::kMacro,
                                              sh.counters_only, cache_ptr,
                                              &out.replay);
  bool sim_valid = true;
  const int nprocs = inst.sim->nprocs();

  // Classifies the just-reached state: records leaves (complete, truncated,
  // sleep-blocked) and pushes a frame otherwise. The violation check for
  // non-root states happens before this, right after the step executes.
  const auto enter_node = [&](std::vector<SleepEntry> sleep, double product,
                              double sum) -> bool {
    Simulation& sim = *inst.sim;
    Frame f;
    f.sleep = std::move(sleep);
    f.naive_product = product;
    f.naive_sum = sum;
    for (ProcId p = 0; p < sim.nprocs(); ++p) {
      if (sim.runnable(p)) f.enabled.push_back(p);
    }
    if (f.enabled.empty()) {
      ++out.complete;
      if (sh.collect_completes) out.completes.push_back(schedule);
      out.estimate_sum += sum;
      ++out.leaves;
      return false;
    }
    if (static_cast<int>(schedule.size()) >= sh.max_depth) {
      ++out.truncated;
      out.estimate_sum += sum;
      ++out.leaves;
      return false;
    }
    ProcId seed = kNoProc;
    for (const ProcId p : f.enabled) {
      if (!asleep(f.sleep, p)) {
        seed = p;
        break;
      }
    }
    if (seed == kNoProc) {
      ++out.sleep_blocked;
      out.estimate_sum += sum;
      ++out.leaves;
      return false;
    }
    f.backtrack.insert(seed);
    frames.push_back(std::move(f));
    return true;
  };

  if (!enter_node(item.sleep, item.naive_product, item.naive_sum)) {
    if (cache.has_value()) fold_cache_stats(*cache, out.replay);
    return;
  }

  while (!frames.empty()) {
    Frame& f = frames.back();
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
    f.done.insert(q);
    if (asleep(f.sleep, q)) {
      ++out.sleep_prunes;
      continue;
    }
    ++out.charged;
    if (sh.nodes.load(std::memory_order_relaxed) + out.charged >
        sh.max_nodes) {
      // Global budget: abandon the item (best effort, partial outcome).
      out.budget_hit = true;
      if (cache.has_value()) fold_cache_stats(*cache, out.replay);
      return;
    }
    if (sh.item_node_limit > 0 && out.charged > sh.item_node_limit) {
      throw ItemFailure("work item exceeded its per-attempt step deadline (" +
                        std::to_string(sh.item_node_limit) + " nodes)");
    }
    if (!sim_valid) {
      inst = materialize_schedule(*sh.build, schedule, ReplayUnit::kMacro,
                                  sh.counters_only, cache_ptr, &out.replay);
      sim_valid = true;
    }
    const MacroFootprint fp = inst.sim->macro_step(q);

    std::vector<std::size_t> races;
    std::vector<std::int32_t> clock = race_scan(path, q, fp, nprocs, &races);
    for (const std::size_t j : races) {
      if (j >= root_depth) {
        Frame& tf = frames[j - root_depth];
        if (!tf.done.count(q) && tf.backtrack.insert(q).second) {
          ++out.backtracks;
        }
      } else {
        out.externals.push_back(
            {std::vector<ProcId>(schedule.begin(),
                                 schedule.begin() +
                                     static_cast<std::ptrdiff_t>(j)),
             q});
      }
    }

    std::vector<SleepEntry> sleep = child_sleep(f.sleep, f.siblings, fp);
    f.siblings.push_back({q, fp});
    const double product =
        f.naive_product * static_cast<double>(f.enabled.size());
    const double sum = f.naive_sum + product;

    schedule.push_back(q);
    path.push_back({q, fp, std::move(clock)});

    if (const auto v = (*sh.check)(inst.sim->history()); v.has_value()) {
      out.violations.push_back({schedule, *v});
      out.estimate_sum += sum;
      ++out.leaves;
      schedule.pop_back();
      path.pop_back();
      sim_valid = false;
      continue;
    }
    if (!enter_node(std::move(sleep), product, sum)) {
      schedule.pop_back();
      path.pop_back();
      sim_valid = false;
    } else if (cache_ptr != nullptr &&
               schedule.size() %
                       static_cast<std::size_t>(sh.cache_config.stride) ==
                   0 &&
               !cache_ptr->contains(schedule)) {
      // Descent-time capture at stride-aligned depths: later backtracks into
      // this subtree restore here instead of replaying from the item root.
      if (cache_ptr->insert(schedule, take_snapshot(inst))) {
        ++out.replay.snapshots_taken;
      }
    }
  }
  if (cache.has_value()) fold_cache_stats(*cache, out.replay);
}

/// Runs one item under the worker-failure discipline: a failed attempt
/// (thrown exception — a "dead" worker — or a per-item node deadline) is
/// retried in the same slot with exponential backoff, up to item_max_attempts
/// total attempts. Retrying in place rather than re-enqueueing preserves
/// the pool's termination invariant (no new queue entries appear mid-round)
/// while giving the same bounded-retry semantics. Node charges are
/// committed only on success, so the merged results are independent of how
/// many attempts any item needed. Returns false when the item is
/// permanently failing; `quarantine_reason` then says why and `out` is left
/// empty (the subtree contributed nothing).
bool run_item_recovering(Shared& sh, const WorkItem& item, ItemOutcome& out,
                         std::string* quarantine_reason) {
  for (int attempt = 1;; ++attempt) {
    ItemOutcome attempt_out;
    attempt_out.schedule = item.schedule;
    try {
      if (sh.inject != nullptr && *sh.inject &&
          (*sh.inject)(item.schedule, attempt)) {
        throw ItemFailure("injected worker failure");
      }
      run_item(sh, item, attempt_out);
    } catch (const std::exception& e) {
      sh.worker_failures.fetch_add(1, std::memory_order_relaxed);
      if (attempt >= sh.item_max_attempts) {
        *quarantine_reason = e.what();
        out = ItemOutcome{};
        out.schedule = item.schedule;
        return false;
      }
      sh.item_retries.fetch_add(1, std::memory_order_relaxed);
      if (sh.retry_backoff_ms > 0) {
        const std::uint64_t shift =
            std::min<std::uint64_t>(static_cast<std::uint64_t>(attempt - 1),
                                    10);
        const std::uint64_t delay_ms =
            std::min<std::uint64_t>(sh.retry_backoff_ms << shift, 1000);
        std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms));
      }
      continue;
    }
    out = std::move(attempt_out);
    const std::uint64_t before =
        sh.nodes.fetch_add(out.charged, std::memory_order_relaxed);
    if (before + out.charged > sh.max_nodes) {
      sh.budget_hit.store(true, std::memory_order_relaxed);
    }
    return true;
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
  sh.snapshots = options.snapshot_mode == SnapshotMode::kSnapshot;
  sh.cache_config = SnapshotCache::Config{std::max(1, options.snapshot_stride),
                                          options.snapshot_max_bytes};
  sh.item_max_attempts = std::max(1, options.item_max_attempts);
  sh.retry_backoff_ms = options.retry_backoff_ms;
  sh.item_node_limit = options.item_node_limit;
  sh.inject = options.inject_item_failure ? &options.inject_item_failure
                                          : nullptr;
}

/// A persistent node of the sequentially-owned trunk (depth < trunk_depth).
/// Trunk nodes live across rounds so that race insertions arriving from
/// deep items can still open new branches near the root.
struct TrunkNode {
  std::vector<PathStep> path;
  std::vector<ProcId> enabled;
  std::vector<SleepEntry> sleep;
  std::set<ProcId> done;
  std::vector<SleepEntry> siblings;
  double naive_product = 1.0;
  double naive_sum = 1.0;
};

}  // namespace

ExploreInstance replay_macro_schedule(const ExploreBuilder& build,
                                      const std::vector<ProcId>& schedule) {
  ExploreInstance inst = build();
  ensure(inst.sim != nullptr, "explore builder returned no simulation");
  for (const ProcId p : schedule) {
    ensure(inst.sim->runnable(p), "macro schedule replay diverged");
    inst.sim->macro_step(p);
  }
  return inst;
}

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
  std::optional<SnapshotCache> trunk_cache;
  if (sh.snapshots) trunk_cache.emplace(sh.cache_config);
  SnapshotCache* trunk_cache_ptr =
      trunk_cache.has_value() ? &*trunk_cache : nullptr;

  const int trunk_depth =
      std::max(0, std::min(options.trunk_depth, options.max_depth));

  std::map<std::vector<ProcId>, TrunkNode> trunk;
  std::set<std::pair<std::vector<ProcId>, ProcId>> pending;
  std::vector<Violation> violations;
  double estimate_sum = 0.0;
  std::uint64_t leaves = 0;

  const auto emit_complete = [&](const std::vector<ProcId>& sched) {
    ++result.complete_schedules;
    if (options.on_complete_schedule) options.on_complete_schedule(sched);
  };

  // Creates the trunk node / work item / leaf for a state just reached by
  // replaying `sched` (its live simulation in `sim`; violation already
  // checked by the caller). Returns a work item when the state sits at the
  // trunk boundary.
  std::vector<WorkItem> items;
  const auto enter_trunk_state = [&](const std::vector<ProcId>& sched,
                                     std::vector<PathStep> path,
                                     std::vector<SleepEntry> sleep,
                                     double product, double sum,
                                     ExploreInstance& inst) {
    Simulation& sim = *inst.sim;
    std::vector<ProcId> enabled;
    for (ProcId p = 0; p < sim.nprocs(); ++p) {
      if (sim.runnable(p)) enabled.push_back(p);
    }
    if (enabled.empty()) {
      emit_complete(sched);
      estimate_sum += sum;
      ++leaves;
      return;
    }
    if (static_cast<int>(sched.size()) >= options.max_depth) {
      ++result.truncated_schedules;
      estimate_sum += sum;
      ++leaves;
      return;
    }
    if (static_cast<int>(sched.size()) >= trunk_depth) {
      WorkItem item{sched, std::move(path), std::move(sleep), product, sum,
                    nullptr};
      if (sh.snapshots) {
        // Ship the root world with the item: whichever worker steals it
        // starts from a restore, not a trunk-prefix replay.
        item.root_snap = take_snapshot(inst);
        ++result.stats.snapshots_taken;
      }
      items.push_back(std::move(item));
      return;
    }
    TrunkNode node;
    node.path = std::move(path);
    node.enabled = std::move(enabled);
    node.sleep = std::move(sleep);
    node.naive_product = product;
    node.naive_sum = sum;
    ProcId seed = kNoProc;
    for (const ProcId p : node.enabled) {
      if (!asleep(node.sleep, p)) {
        seed = p;
        break;
      }
    }
    trunk.emplace(sched, std::move(node));
    if (seed == kNoProc) {
      ++result.stats.sleep_blocked_paths;
      estimate_sum += sum;
      ++leaves;
    } else {
      pending.insert({sched, seed});
    }
  };

  // Root.
  {
    if (!charge_node(sh)) {
      result.exhausted = false;
      return result;
    }
    ExploreInstance root =
        materialize_schedule(build, {}, ReplayUnit::kMacro, sh.counters_only,
                             trunk_cache_ptr, &result.stats);
    if (const auto v = check(root.sim->history()); v.has_value()) {
      result.nodes_visited = sh.nodes.load();
      result.violation = v;
      return result;
    }
    enter_trunk_state({}, {}, {}, 1.0, 1.0, root);
  }

  const int nprocs = [&] {
    ExploreInstance probe = build();
    ensure(probe.sim != nullptr, "explore builder returned no simulation");
    return probe.sim->nprocs();
  }();

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
      TrunkNode& node = it->second;
      if (node.done.count(q)) continue;
      node.done.insert(q);
      if (asleep(node.sleep, q)) {
        ++result.stats.sleep_set_prunes;
        continue;
      }
      if (!charge_node(sh)) break;

      ExploreInstance inst =
          materialize_schedule(build, sched, ReplayUnit::kMacro,
                               sh.counters_only, trunk_cache_ptr,
                               &result.stats);
      const MacroFootprint fp = inst.sim->macro_step(q);

      std::vector<std::size_t> races;
      std::vector<std::int32_t> clock =
          race_scan(node.path, q, fp, nprocs, &races);
      for (const std::size_t j : races) {
        const std::vector<ProcId> target(
            sched.begin(), sched.begin() + static_cast<std::ptrdiff_t>(j));
        auto tit = trunk.find(target);
        ensure(tit != trunk.end(), "dpor race targets unknown trunk node");
        if (!tit->second.done.count(q) && pending.insert({target, q}).second) {
          ++result.stats.backtrack_points;
        }
      }

      std::vector<SleepEntry> sleep =
          child_sleep(node.sleep, node.siblings, fp);
      node.siblings.push_back({q, fp});
      const double product =
          node.naive_product * static_cast<double>(node.enabled.size());
      const double sum = node.naive_sum + product;

      std::vector<ProcId> child_sched = sched;
      child_sched.push_back(q);
      std::vector<PathStep> child_path = node.path;
      child_path.push_back({q, fp, std::move(clock)});

      if (const auto v = check(inst.sim->history()); v.has_value()) {
        violations.push_back({child_sched, *v});
        estimate_sum += sum;
        ++leaves;
        continue;
      }
      enter_trunk_state(child_sched, std::move(child_path), std::move(sleep),
                        product, sum, inst);
    }

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
          const std::uint64_t before = sh.nodes.fetch_add(
              outcomes[i].charged, std::memory_order_relaxed);
          if (before + outcomes[i].charged > sh.max_nodes) {
            sh.budget_hit.store(true, std::memory_order_relaxed);
          }
        }
      }
    }
    std::vector<std::size_t> live;
    live.reserve(items.size());
    for (std::size_t i = 0; i < items.size(); ++i) {
      if (!resolved[i]) live.push_back(i);
    }

    const auto run_one = [&](std::size_t job) {
      if (!run_item_recovering(sh, items[job], outcomes[job],
                               &quarantine[job])) {
        if (ck != nullptr) {
          ck->record_quarantine(items[job].schedule, quarantine[job]);
        }
      } else if (ck != nullptr && !outcomes[job].budget_hit) {
        ck->record_outcome(outcomes[job]);
      }
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
            [&](std::size_t job, DistItemResult&& r) {
              // The coordinator-side half of run_item_recovering: commit
              // the retry accounting, the node charges (with the budget
              // check against the authoritative counter), and the
              // checkpoint record.
              sh.worker_failures.fetch_add(r.worker_failures,
                                           std::memory_order_relaxed);
              sh.item_retries.fetch_add(r.item_retries,
                                        std::memory_order_relaxed);
              if (!r.ok) {
                quarantine[job] = r.quarantine_reason.empty()
                                      ? std::string("worker process failed")
                                      : std::move(r.quarantine_reason);
                outcomes[job] = ItemOutcome{};
                outcomes[job].schedule = items[job].schedule;
                if (ck != nullptr) {
                  ck->record_quarantine(items[job].schedule, quarantine[job]);
                }
                return;
              }
              outcomes[job] = std::move(r.outcome);
              const std::uint64_t before = sh.nodes.fetch_add(
                  outcomes[job].charged, std::memory_order_relaxed);
              if (before + outcomes[job].charged > sh.max_nodes) {
                sh.budget_hit.store(true, std::memory_order_relaxed);
              }
              if (ck != nullptr && !outcomes[job].budget_hit) {
                ck->record_outcome(outcomes[job]);
              }
            });
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
      const ItemOutcome& out = outcomes[i];
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
        auto tit = trunk.find(add.node_path);
        ensure(tit != trunk.end(), "dpor external add targets unknown node");
        if (!tit->second.done.count(add.proc) &&
            pending.insert({add.node_path, add.proc}).second) {
          ++result.stats.backtrack_points;
        }
      }
    }
    items.clear();
    // Round barrier = checkpoint barrier: everything merged so far is
    // durable before the next round's trunk expansions begin.
    if (ck != nullptr) ck->flush();
  }

  if (trunk_cache.has_value()) fold_cache_stats(*trunk_cache, result.stats);
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
  DistItemResult res;
  res.ok = run_item_recovering(sh, item, res.outcome, &res.quarantine_reason);
  if (!res.ok && res.quarantine_reason.empty()) {
    res.quarantine_reason = "worker process failed";
  }
  res.worker_failures = sh.worker_failures.load(std::memory_order_relaxed);
  res.item_retries = sh.item_retries.load(std::memory_order_relaxed);
  return res;
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

  // One cache across every base: lex-ordered bases share long prefixes, and
  // within a base successive cuts extend each other — in snapshot mode each
  // rebuild is a short delta replay. Only pre-crash worlds are cached; the
  // crash and everything after it run on the materialized instance.
  std::optional<SnapshotCache> cache;
  if (options.explore.snapshot_mode == SnapshotMode::kSnapshot) {
    cache.emplace(
        SnapshotCache::Config{std::max(1, options.explore.snapshot_stride),
                              options.explore.snapshot_max_bytes});
  }
  SnapshotCache* cache_ptr = cache.has_value() ? &*cache : nullptr;
  const auto finish = [&] {
    if (cache.has_value()) fold_cache_stats(*cache, result.sweep.stats);
  };

  for (const std::vector<ProcId>& sched : bases) {
    ++result.schedules_swept;
    // Crash before the victim's first step, then after each of its steps.
    std::vector<std::size_t> points{0};
    for (std::size_t i = 0; i < sched.size(); ++i) {
      if (sched[i] == victim) points.push_back(i + 1);
    }
    for (const std::size_t cut : points) {
      if (result.sweep.crash_points >= options.max_crash_points) {
        finish();
        return result;
      }
      ExploreInstance inst = materialize_schedule(
          build,
          std::vector<ProcId>(sched.begin(),
                              sched.begin() +
                                  static_cast<std::ptrdiff_t>(cut)),
          ReplayUnit::kMacro, /*counters_only=*/false, cache_ptr,
          &result.sweep.stats);
      Simulation& sim = *inst.sim;
      if (sim.terminated(victim)) continue;  // nothing left to crash
      ++result.sweep.crash_points;
      sim.crash(victim);
      fair_drive(sim, options.recover_after);
      if (options.recover_victim) sim.recover(victim);
      const DriveOutcome done = fair_drive(sim, options.max_steps);
      if (const auto v = check(sim.history()); v.has_value()) {
        result.sweep.violation = v;
        result.sweep.violating_crash_point = static_cast<int>(cut);
        result.violating_schedule = sched;
        finish();
        return result;
      }
      switch (done) {
        case DriveOutcome::kAllTerminated: ++result.sweep.completed; break;
        case DriveOutcome::kBudget: ++result.sweep.stuck; break;
        case DriveOutcome::kWedged: ++result.sweep.wedged; break;
      }
    }
  }
  finish();
  return result;
}

}  // namespace rmrsim
