#include "lowerbound/adversary.h"

#include <algorithm>
#include <cmath>
#include <map>

#include "common/check.h"
#include "common/table.h"
#include "lowerbound/independent_set.h"
#include "signaling/checker.h"

namespace rmrsim {

namespace {
constexpr std::uint64_t kStepBudget = 20'000'000;  // global safety valve
}

std::string AdversaryReport::to_string() const {
  std::string out;
  out += "adversary report: alg=" + algorithm + " model=" + model +
         " construction=" +
         (construction == Construction::kStrict ? "strict" : "lenient") +
         " N=" + std::to_string(nprocs) + "\n";
  if (!in_scope) out += "  out of Theorem 6.2 scope: " + scope_note + "\n";
  out += "  part1: rounds=" + std::to_string(rounds) +
         " stabilized=" + (stabilized ? std::string("yes") : std::string("no")) +
         " stable=" + std::to_string(stable_waiters) +
         " finished=" + std::to_string(finished_after_part1) +
         " erased=" + std::to_string(erased_total) + "\n";
  if (unstable_branch) {
    out += "  unstable branch (Lemma 6.11): amortized RMRs " +
           fixed(unstable_amortized_start) + " -> " +
           fixed(unstable_amortized_end) + " under extension\n";
  }
  if (signaler != kNoProc) {
    out += "  part2: signaler=p" + std::to_string(signaler) +
           " rmrs=" + std::to_string(signaler_rmrs) +
           " erased_during_chase=" + std::to_string(erased_during_chase) +
           " delivered=" + std::to_string(waiters_delivered) + "\n";
    out += "  final: participants=" + std::to_string(participants_final) +
           " total_rmrs=" + std::to_string(total_rmrs_final) +
           " amortized=" + fixed(amortized_final) + "\n";
  }
  if (spec_violation) out += "  SPEC VIOLATION: " + violation_what + "\n";
  return out;
}

SignalingAdversary::SignalingAdversary(AlgFactory factory,
                                       AdversaryConfig config)
    : config_(std::move(config)), factory_(std::move(factory)) {
  ensure(config_.nprocs >= 2, "adversary needs at least two processes");
  ensure(config_.reserve >= 1 && config_.reserve < config_.nprocs,
         "need at least one reserve process as signaler candidate");
  build_instance();
}

void SignalingAdversary::build_instance() {
  mem_ = config_.make_memory ? config_.make_memory(config_.nprocs)
                             : make_dsm(config_.nprocs);
  alg_ = factory_(*mem_);
  std::vector<Program> programs;
  SignalingAlgorithm* alg = alg_.get();
  for (int i = 0; i < config_.nprocs; ++i) {
    programs.emplace_back(
        [alg](ProcCtx& ctx) { return signaling_driver(ctx, alg); });
  }
  sim_ = std::make_unique<Simulation>(
      *mem_, std::move(programs),
      [this](ProcId p, int) { return directive_for(p); });
  modes_.assign(static_cast<std::size_t>(config_.nprocs), Mode::kPollForever);
  stability_.assign(static_cast<std::size_t>(config_.nprocs),
                    Stability::kUnknown);
  signal_issued_.assign(static_cast<std::size_t>(config_.nprocs), false);
  for (int i = config_.nprocs - config_.reserve; i < config_.nprocs; ++i) {
    modes_[static_cast<std::size_t>(i)] = Mode::kIdle;
  }
  erased_count_ = 0;
  finished_count_ = 0;
}

bool SignalingAdversary::is_waiter(ProcId p) const {
  return p >= 0 && p < config_.nprocs - config_.reserve;
}

bool SignalingAdversary::is_active(ProcId p) const {
  return is_waiter(p) && !sim_->terminated(p);
}

std::vector<ProcId> SignalingAdversary::active_procs() const {
  std::vector<ProcId> out;
  for (ProcId p = 0; p < config_.nprocs; ++p) {
    if (is_active(p)) out.push_back(p);
  }
  return out;
}

Directive SignalingAdversary::directive_for(ProcId p) {
  switch (modes_[static_cast<std::size_t>(p)]) {
    case Mode::kPollForever:
      return Directive{signaling_actions::kPoll, 0};
    case Mode::kFinish:
      return Directive{Directive::kTerminate, 0};
    case Mode::kSignalThenFinish:
      if (!signal_issued_[static_cast<std::size_t>(p)]) {
        signal_issued_[static_cast<std::size_t>(p)] = true;
        return Directive{signaling_actions::kSignal, 0};
      }
      return Directive{Directive::kTerminate, 0};
    case Mode::kIdle:
      break;
  }
  fail("idle (reserve) process asked for a directive");
}

SignalingAdversary::Stability SignalingAdversary::probe(ProcId p) {
  if (stability_[static_cast<std::size_t>(p)] == Stability::kStable) {
    return Stability::kStable;
  }
  const auto stop = sim_->run_until_rmr_pending(p, config_.probe_steps);
  switch (stop) {
    case Simulation::Stop::kRmrPending:
      stability_[static_cast<std::size_t>(p)] = Stability::kUnstable;
      return Stability::kUnstable;
    case Simulation::Stop::kBudget:
      // Semi-decision (DESIGN.md substitution 4): a whole probe window of
      // local-only steps means the waiter is spinning on its own module.
      stability_[static_cast<std::size_t>(p)] = Stability::kStable;
      return Stability::kStable;
    case Simulation::Stop::kTerminated:
      break;
  }
  fail("waiter terminated while being probed (drivers poll forever)");
}

void SignalingAdversary::erase(ProcId p) {
  sim_->erase_process(p);
  stability_[static_cast<std::size_t>(p)] = Stability::kUnknown;
  ++erased_count_;
  if (config_.after_erase) config_.after_erase(*sim_);
}

int SignalingAdversary::clear_targets(ProcId p) {
  int erased = 0;
  for (;;) {
    const PendingAction& a = sim_->pending(p);
    if (a.kind != ActionKind::kMemOp) break;
    const VarId v = a.op.var;
    const ProcId home = mem_->store().home(v);
    if (home != p && is_active(home)) {
      erase(home);
      ++erased;
      continue;
    }
    if (reads_value(a.op.type)) {
      const ProcId writer = mem_->store().last_writer(v);
      if (writer != p && writer != kNoProc && is_active(writer)) {
        erase(writer);
        ++erased;
        continue;
      }
    }
    break;
  }
  return erased;
}

void SignalingAdversary::roll_forward(ProcId p) {
  // Let p complete its ongoing call and terminate, erasing any active
  // process it is about to see or touch. A read/write algorithm's Poll()
  // completes solo; an algorithm that busy-waits *locally* inside a call
  // (e.g. behind an emulated lock) can park forever — Definition 6.8 calls
  // such a process stable but it can never finish, so we stop after a
  // bounded budget and leave it active (recorded via the round's regularity
  // flag).
  modes_[static_cast<std::size_t>(p)] = Mode::kFinish;
  constexpr std::uint64_t kRollBudget = 1'000'000;
  std::uint64_t guard = 0;
  while (!sim_->terminated(p)) {
    if (++guard >= kRollBudget) return;  // parked in a local spin
    if (sim_->pending(p).kind == ActionKind::kMemOp) {
      clear_targets(p);
    }
    sim_->step(p);
  }
  ++finished_count_;
}

bool SignalingAdversary::part1_strict(AdversaryReport& report) {
  for (int round = 1; round <= config_.max_rounds; ++round) {
    // Advance every active waiter to its next pending RMR, or certify it
    // stable (Definition 6.8).
    std::vector<ProcId> unstable;
    for (const ProcId p : active_procs()) {
      if (probe(p) == Stability::kUnstable) {
        const MemOp& op = sim_->pending(p).op;
        if (op.type != OpType::kRead && op.type != OpType::kWrite) {
          report.in_scope = false;
          report.scope_note =
              "process p" + std::to_string(p) + " is about to apply " +
              rmrsim::to_string(op) +
              "; Theorem 6.2's construction covers reads and writes "
              "(stronger primitives escape it — Section 7)";
          return false;
        }
        unstable.push_back(p);
      }
    }

    RoundStats stats;
    stats.round = round;
    const int erased_before = erased_count_;

    if (unstable.empty()) {
      report.stabilized = true;
      report.rounds = round - 1;
      return true;
    }

    // --- Regularity conditions 1–2 (Definition 6.6): conflict graph over
    // active processes, greedy independent set (Turán), erase the rest.
    {
      const std::vector<ProcId> actives = active_procs();
      std::map<ProcId, int> idx;
      for (std::size_t i = 0; i < actives.size(); ++i) {
        idx[actives[i]] = static_cast<int>(i);
      }
      std::vector<std::pair<int, int>> edges;
      for (const ProcId p : unstable) {
        const MemOp& op = sim_->pending(p).op;
        const ProcId home = mem_->store().home(op.var);
        if (home != p && idx.count(home) != 0) {
          edges.emplace_back(idx[p], idx[home]);
        }
        if (reads_value(op.type)) {
          const ProcId writer = mem_->store().last_writer(op.var);
          if (writer != p && writer != kNoProc && idx.count(writer) != 0) {
            edges.emplace_back(idx[p], idx[writer]);
          }
        }
      }
      if (!edges.empty()) {
        const std::vector<int> keep = greedy_independent_set(
            static_cast<int>(actives.size()), edges);
        std::vector<bool> kept(actives.size(), false);
        for (const int k : keep) kept[static_cast<std::size_t>(k)] = true;
        for (std::size_t i = 0; i < actives.size(); ++i) {
          if (!kept[i]) erase(actives[i]);
        }
      }
    }

    // --- Apply the pending reads (they cannot violate condition 3).
    std::vector<ProcId> writers;
    for (const ProcId p : unstable) {
      if (!is_active(p)) continue;  // erased above
      const MemOp op = sim_->pending(p).op;
      if (op.type == OpType::kRead) {
        sim_->step(p);
        stability_[static_cast<std::size_t>(p)] = Stability::kUnknown;
      } else {
        writers.push_back(p);
      }
    }

    // --- Condition 3: pending writes.
    if (!writers.empty()) {
      std::map<VarId, std::vector<ProcId>> by_var;
      for (const ProcId p : writers) {
        by_var[sim_->pending(p).op.var].push_back(p);
      }
      const auto x = static_cast<std::uint64_t>(writers.size());
      const auto threshold = static_cast<std::size_t>(std::max<std::uint64_t>(
          1, static_cast<std::uint64_t>(std::floor(std::sqrt(
                 static_cast<double>(x))))));
      auto big = by_var.end();
      for (auto it = by_var.begin(); it != by_var.end(); ++it) {
        if (it->second.size() >= threshold &&
            (big == by_var.end() || it->second.size() > big->second.size())) {
          big = it;
        }
      }
      if (big != by_var.end() && big->second.size() >= 2) {
        // Roll-forward case: erase all unstable writers aimed elsewhere,
        // apply the pile-up writes in id order, roll the last writer
        // forward.
        stats.rolled_forward = true;
        for (const ProcId p : writers) {
          if (is_active(p) &&
              std::find(big->second.begin(), big->second.end(), p) ==
                  big->second.end()) {
            erase(p);
          }
        }
        ProcId last = kNoProc;
        for (const ProcId p : big->second) {
          sim_->step(p);
          stability_[static_cast<std::size_t>(p)] = Stability::kUnknown;
          last = p;
        }
        roll_forward(last);
      } else {
        // Erasing case: one writer per variable...
        std::vector<ProcId> kept_writers;
        for (auto& [var, ps] : by_var) {
          std::sort(ps.begin(), ps.end());
          kept_writers.push_back(ps.front());
          for (std::size_t i = 1; i < ps.size(); ++i) {
            if (is_active(ps[i])) erase(ps[i]);
          }
        }
        // ...then resolve writes into variables previously written: erase
        // the writer when a previous writer already finished (condition 3
        // could never be repaired), otherwise put an edge to each active
        // previous writer and keep an independent set.
        const std::vector<ProcId> actives = active_procs();
        std::map<ProcId, int> idx;
        for (std::size_t i = 0; i < actives.size(); ++i) {
          idx[actives[i]] = static_cast<int>(i);
        }
        std::vector<std::pair<int, int>> edges;
        for (const ProcId p : kept_writers) {
          if (!is_active(p)) continue;
          const VarId v = sim_->pending(p).op.var;
          bool doomed = false;
          for (const ProcId q : sim_->history().writers_of(v)) {
            if (q == p) continue;
            if (is_active(q)) {
              edges.emplace_back(idx[p], idx[q]);
            } else {
              doomed = true;  // previous writer finished: cannot keep p
            }
          }
          if (doomed) erase(p);
        }
        std::erase_if(edges, [&](const std::pair<int, int>& e) {
          return !is_active(actives[static_cast<std::size_t>(e.first)]) ||
                 !is_active(actives[static_cast<std::size_t>(e.second)]);
        });
        if (!edges.empty()) {
          const std::vector<int> keep = greedy_independent_set(
              static_cast<int>(actives.size()), edges);
          std::vector<bool> kept(actives.size(), false);
          for (const int k : keep) kept[static_cast<std::size_t>(k)] = true;
          for (std::size_t i = 0; i < actives.size(); ++i) {
            if (!kept[i] && is_active(actives[i])) erase(actives[i]);
          }
        }
        for (const ProcId p : kept_writers) {
          if (!is_active(p)) continue;
          sim_->step(p);
          stability_[static_cast<std::size_t>(p)] = Stability::kUnknown;
        }
      }
    }

    // --- Round bookkeeping and invariant reporting (Definition 6.9 echo).
    stats.active = static_cast<int>(active_procs().size());
    stats.finished = finished_count_;
    stats.erased_this_round = erased_count_ - erased_before;
    int stable = 0;
    std::uint64_t max_active = 0;
    for (const ProcId p : active_procs()) {
      if (stability_[static_cast<std::size_t>(p)] == Stability::kStable) {
        ++stable;
      }
      max_active = std::max(max_active, mem_->ledger().rmrs(p));
    }
    stats.stable = stable;
    stats.unstable = stats.active - stable;
    for (ProcId p = 0; p < config_.nprocs; ++p) {
      if (is_waiter(p) && sim_->terminated(p) && !sim_->erased(p)) {
        stats.max_finished_rmrs =
            std::max(stats.max_finished_rmrs, mem_->ledger().rmrs(p));
      }
    }
    stats.max_active_rmrs = max_active;
    stats.regular = sim_->history().is_regular();
    report.round_stats.push_back(stats);
    report.rounds = round;
  }
  // Round limit hit; stabilized iff no unstable waiter remains.
  report.stabilized = true;
  for (const ProcId p : active_procs()) {
    if (probe(p) == Stability::kUnstable) {
      report.stabilized = false;
      break;
    }
  }
  return report.stabilized;
}

bool SignalingAdversary::part1_lenient(AdversaryReport& report) {
  // Simplified Section 7 argument: no erasure — just let every waiter run
  // (applying its RMRs) until it spins locally or busts the RMR cap.
  bool all_stable = true;
  for (const ProcId p : active_procs()) {
    for (;;) {
      if (probe(p) == Stability::kStable) break;
      if (mem_->ledger().rmrs(p) >= config_.rmr_cap_per_waiter) {
        all_stable = false;
        break;
      }
      sim_->step(p);  // apply the pending RMR
      stability_[static_cast<std::size_t>(p)] = Stability::kUnknown;
    }
  }
  report.rounds = 1;
  report.stabilized = all_stable;
  return all_stable;
}

void SignalingAdversary::unstable_branch(AdversaryReport& report) {
  // Lemma 6.11's contradiction branch, run forward: waiters that never
  // stabilize keep paying RMRs while the participant set stays fixed, so
  // amortized RMRs grow without bound. We extend the history a few rounds
  // and report the trajectory.
  std::vector<ProcId> unstable;
  for (const ProcId p : active_procs()) {
    if (stability_[static_cast<std::size_t>(p)] != Stability::kStable) {
      unstable.push_back(p);
    }
  }
  if (unstable.empty()) return;
  report.unstable_branch = true;
  const auto participants = [&] {
    return std::max<std::size_t>(1, sim_->history().participants().size());
  };
  report.unstable_amortized_start =
      static_cast<double>(sim_->history().total_rmrs()) /
      static_cast<double>(participants());
  for (int t = 0; t < config_.unstable_extension_rounds; ++t) {
    for (const ProcId p : unstable) {
      if (!is_active(p)) continue;
      if (sim_->run_until_rmr_pending(p, config_.probe_steps) ==
          Simulation::Stop::kRmrPending) {
        if (config_.construction == Construction::kStrict) {
          clear_targets(p);
        }
        sim_->step(p);
      }
    }
  }
  report.unstable_amortized_end =
      static_cast<double>(sim_->history().total_rmrs()) /
      static_cast<double>(participants());
}

void SignalingAdversary::part2(AdversaryReport& report) {
  // Let each stable waiter complete its pending Poll() and come to rest
  // between calls. Stability guarantees this costs no RMRs. A waiter that
  // busy-waits locally *inside* a call (possible for lock-based transformed
  // algorithms) is stable by Definition 6.8 yet can never complete; such
  // waiters are left parked — they never completed a Poll(), so they place
  // no Specification 4.1 obligation on the signaler and are excluded from
  // the stable-waiter count.
  constexpr std::uint64_t kCompleteBudget = 100'000;
  std::vector<ProcId> quiescent;
  for (const ProcId p : active_procs()) {
    std::uint64_t guard = 0;
    bool done = true;
    while (sim_->pending(p).kind != ActionKind::kDirective) {
      if (++guard >= kCompleteBudget) {
        done = false;  // parked in a local spin mid-call
        break;
      }
      if (sim_->pending(p).kind == ActionKind::kMemOp) {
        ensure(!sim_->pending_is_rmr(p),
               "stable process attempted an RMR while completing its call");
      }
      sim_->step(p);
    }
    if (done) quiescent.push_back(p);
  }

  const int k_stable = static_cast<int>(quiescent.size());
  report.stable_waiters = k_stable;

  // Choose the signaler: a reserve process whose module was never written
  // (Lemma 6.13's pigeonhole, satisfied by construction here).
  ProcId s = kNoProc;
  for (int i = config_.nprocs - config_.reserve; i < config_.nprocs; ++i) {
    if (!sim_->history().module_written(static_cast<ProcId>(i)) &&
        !sim_->history().participated(static_cast<ProcId>(i))) {
      s = static_cast<ProcId>(i);
      break;
    }
  }
  ensure(s != kNoProc, "no reserve process with an unwritten module");
  report.signaler = s;
  modes_[static_cast<std::size_t>(s)] = Mode::kSignalThenFinish;

  // Chase erasure is part of the strict construction only; the lenient one
  // (asked for, or the strict one's out-of-scope fallback) measures the
  // signaler without erasing. With e.g. FAI chains, erasing the (unseen)
  // last enqueuer makes its predecessor unseen in turn, legally cascading
  // the whole queue away — a history with zero registered waiters, which
  // FAI algorithms serve in O(1) and which therefore measures nothing.
  const bool chase_erases = config_.erase_during_chase &&
                            config_.construction == Construction::kStrict;

  // The wild goose chase: erase each active waiter just before s would see
  // or touch it, then let s take the (now remote-to-nobody-useful) step.
  std::uint64_t guard = 0;
  while (!sim_->terminated(s)) {
    ensure(++guard < kStepBudget, "Signal() exceeded the step budget — the "
                                  "algorithm may not be terminating");
    if (chase_erases && sim_->pending(s).kind == ActionKind::kMemOp) {
      report.erased_during_chase += clear_targets(s);
    }
    sim_->step(s);
  }
  report.signaler_rmrs = mem_->ledger().rmrs(s);
  report.waiters_delivered = static_cast<int>(active_procs().size());

  // Violation detector: every surviving quiescent waiter polls once more;
  // by Specification 4.1 the call must return true now that Signal()
  // completed. (Parked waiters never complete calls and carry no such
  // obligation.)
  std::erase_if(quiescent, [this](ProcId p) { return !is_active(p); });
  for (const ProcId p : quiescent) {
    std::uint64_t inner = 0;
    Word ret = -1;
    for (;;) {
      ensure(++inner < kStepBudget, "final poll exceeded step budget");
      const StepRecord& rec = sim_->step(p);
      if (rec.kind == StepRecord::Kind::kEvent &&
          rec.event == EventKind::kCallEnd && rec.code == calls::kPoll) {
        ret = rec.value;
        break;
      }
    }
    if (ret == 0 && !report.spec_violation) {
      report.spec_violation = true;
      report.violation_what =
          "stable waiter p" + std::to_string(p) +
          " polled false after Signal() completed (Specification 4.1 "
          "clause 2)";
    }
  }
  if (const auto v = check_polling_spec(sim_->history());
      v.has_value() && !report.spec_violation) {
    report.spec_violation = true;
    report.violation_what = v->what;
  }

  // Closing erasures (Lemma 6.13): with the chase enabled, the remaining
  // active waiters were never seen or touched, so erasing them leaves only
  // s and the part-1 finishers in H'. (Skipped in measure-only mode, where
  // s legitimately communicated with everyone.)
  if (chase_erases) {
    for (const ProcId p : active_procs()) {
      if (!sim_->history().seen_by_other(p)) erase(p);
    }
  }
  report.participants_final =
      static_cast<int>(sim_->history().participants().size());
  report.total_rmrs_final = sim_->history().total_rmrs();
  report.amortized_final =
      report.participants_final == 0
          ? 0.0
          : static_cast<double>(report.total_rmrs_final) /
                static_cast<double>(report.participants_final);
}

AdversaryReport SignalingAdversary::run() {
  AdversaryReport report;
  report.algorithm = std::string(alg_->name());
  report.model = std::string(mem_->model().name());
  report.construction = config_.construction;
  report.nprocs = config_.nprocs;

  bool stabilized = false;
  if (config_.construction == Construction::kStrict) {
    ensure(mem_->model().pricing_is_stateless(),
           "the strict (Theorem 6.2) construction operates in the DSM model");
    stabilized = part1_strict(report);
    if (!report.in_scope) {
      // Stronger primitives escape the construction; fall back to the
      // lenient measurement so the report still carries the Section 7
      // quantities.
      build_instance();
      config_.construction = Construction::kLenient;
      report.construction = Construction::kLenient;
      stabilized = part1_lenient(report);
    }
  } else {
    stabilized = part1_lenient(report);
  }
  report.finished_after_part1 = finished_count_;
  report.erased_total = erased_count_;

  if (!stabilized) {
    unstable_branch(report);
    // Also record how many waiters did stabilize, for the tables.
    int stable = 0;
    for (const ProcId p : active_procs()) {
      if (stability_[static_cast<std::size_t>(p)] == Stability::kStable) {
        ++stable;
      }
    }
    report.stable_waiters = stable;
    return report;
  }

  part2(report);
  return report;
}

}  // namespace rmrsim
