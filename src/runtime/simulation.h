// Simulation: one execution of an N-process shared-memory algorithm.
//
// Owns the process coroutines and the recorded History; applies one pending
// action at a time under the direction of a Scheduler (or of the lower-bound
// adversary, which drives step() directly). Everything is deterministic: the
// same (memory contents, programs, schedule, directive policy, fault trace)
// always yields the same history — the property the erasure-by-replay
// machinery of the Section 6 adversary and the replay of crashy schedules
// both rest on.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "history/history.h"
#include "memory/shared_memory.h"
#include "runtime/coro.h"
#include "runtime/proc_ctx.h"

namespace rmrsim {

class Simulation;
struct WorldSnapshot;

/// One recorded coroutine resume: the payload a process received when its
/// pending action was applied. A process's coroutine frame is a deterministic
/// function of its program and the sequence of resume payloads, so replaying
/// the log against a fresh frame rebuilds the exact suspension point — the
/// mechanism world forking uses to "copy" frames that C++ cannot copy.
/// Replaying the log touches no shared memory, prices nothing, and records
/// nothing: it is an order of magnitude cheaper than re-executing the steps.
struct ResumeRecord {
  ActionKind kind = ActionKind::kFinished;
  OpOutcome outcome{};    ///< kMemOp payload
  Directive directive{};  ///< kDirective payload (kEvent/kDelay carry none)
};

/// Picks which process takes the next step. Implementations in src/sched.
/// The simulation is passed mutably so fault-injecting schedulers
/// (FaultScheduler) can crash/recover processes between steps; ordinary
/// schedulers only read it.
class Scheduler {
 public:
  virtual ~Scheduler() = default;
  /// Returns a process with a pending action, or kNoProc to stop the run.
  virtual ProcId next(Simulation& sim) = 0;
};

/// A process program: invoked once per process at simulation start. Write
/// programs as free coroutine functions taking parameters by value (copied
/// into the frame) — see runtime/coro.h for the lifetime rules.
using Program = std::function<ProcTask(ProcCtx&)>;

class Simulation {
 public:
  /// Supplies directives to client drivers: called with (process, index of
  /// the directive request for that process, counted from 0).
  using DirectivePolicy = std::function<Directive(ProcId, int)>;

  /// `programs[p]` is process p's program; an empty std::function means the
  /// process never runs. The memory is borrowed and must outlive the
  /// simulation. Programs run (their local prologue) up to the first
  /// suspension point during construction.
  Simulation(SharedMemory& memory, std::vector<Program> programs,
             DirectivePolicy policy = {});

  /// Same, with the program vector shared rather than owned. Snapshots and
  /// restored worlds all reference one immutable vector — forking never
  /// copies the callables.
  Simulation(SharedMemory& memory,
             std::shared_ptr<const std::vector<Program>> programs,
             DirectivePolicy policy = {});

  int nprocs() const { return static_cast<int>(procs_.size()); }

  /// True iff p has a pending action to apply.
  bool runnable(ProcId p) const;
  bool terminated(ProcId p) const;
  bool all_terminated() const;

  /// True iff p can be stepped *now*: runnable and, if sleeping in a
  /// delay(), its wake time has been reached. Schedulers pick among ready
  /// processes; when none is ready but sleepers exist, run() advances the
  /// clock with tick().
  bool ready(ProcId p) const;

  /// Simulation clock: one unit per applied step or tick. The
  /// semi-synchronous model's Delta is expressed in these units.
  std::uint64_t now() const { return now_; }

  /// Advances the clock without any process taking a step (lets sleeping
  /// processes reach their wake time when nobody else is ready). Recorded
  /// in the schedule as a kNoProc entry so timed runs replay exactly.
  void tick() {
    ++now_;
    schedule_.push_back(kNoProc);
  }

  const PendingAction& pending(ProcId p) const;

  /// Would p's pending memory op be an RMR if applied now? Requires a
  /// pending kMemOp. This is the adversary's "about to perform an RMR" test.
  bool pending_is_rmr(ProcId p) const;

  /// Applies p's pending action, records it, and advances p to its next
  /// suspension point. Returns the recorded step.
  const StepRecord& step(ProcId p);

  /// Memory-access footprint of one *macro step* — the model checker's unit
  /// transition ("flush p's local events, then apply its next memory op").
  /// Two macro steps of different processes commute iff !dependent(a, b):
  /// they may not conflict on a variable (same var with at least one
  /// kMutate) and may not both carry observable events (whose cross-process
  /// order checkers are allowed to inspect — see observable_event()).
  struct MacroFootprint {
    bool has_op = false;          ///< a memory op was applied
    VarId var = kNoVar;           ///< its variable (valid iff has_op)
    AccessClass access = AccessClass::kObserve;
    bool observable = false;      ///< flushed a call boundary or mark
    bool terminated = false;      ///< p ran to completion during this step
  };

  static bool dependent(const MacroFootprint& a, const MacroFootprint& b) {
    if (a.observable && b.observable) return true;
    return a.has_op && b.has_op && a.var == b.var &&
           (a.access == AccessClass::kMutate ||
            b.access == AccessClass::kMutate);
  }

  /// Applies one macro step of p: flushes pending events/directives (ticking
  /// the clock through any delay) up to p's next memory op, applies that op
  /// (or runs p to termination if none remains), and returns the footprint
  /// of everything applied. Exactly the replay unit the schedule explorers
  /// branch on; requires runnable(p).
  MacroFootprint macro_step(ProcId p);

  /// Outcome classification for run_until_rmr_pending.
  enum class Stop { kRmrPending, kTerminated, kBudget };

  /// Steps p (applying local actions, events and directives) until its next
  /// pending action is a memory op classified as an RMR, or p terminates,
  /// or `max_steps` of p's steps have been applied.
  Stop run_until_rmr_pending(ProcId p, std::uint64_t max_steps);

  /// Steps p until the just-applied step satisfies `pred`. Returns true if a
  /// matching step was applied within `max_steps`, false if p terminated or
  /// the budget ran out first. The standard way to drive a process to a
  /// precise crash point ("right after its FAI", "inside its critical
  /// section") before calling crash().
  bool run_proc_until(ProcId p,
                      const std::function<bool(const StepRecord&)>& pred,
                      std::uint64_t max_steps = 100'000);

  struct RunResult {
    std::uint64_t steps = 0;
    bool all_terminated = false;
  };

  /// Runs under a scheduler until everyone terminated, the scheduler returns
  /// kNoProc with no sleeper left to wake, or max_steps steps and ticks were
  /// spent. Every step goes through step(), in either history mode; when
  /// only sleepers remain the clock ticks, and each tick counts against the
  /// budget.
  RunResult run(Scheduler& sched, std::uint64_t max_steps);

  const History& history() const { return history_; }

  /// Switches history recording mode (see history/history.h). Counters-only
  /// drops per-step records — benches and exhaustive exploration keep the
  /// ledger/footprint queries without paying per-step record growth. Must be
  /// called before any step is recorded.
  void set_history_mode(HistoryMode mode) { history_.set_mode(mode); }
  SharedMemory& memory() { return *memory_; }
  const SharedMemory& memory() const { return *memory_; }

  /// Process ids in the order stepped — a schedule that replays this run.
  /// Clock ticks appear as kNoProc entries (ScriptedScheduler passes them
  /// through and Simulation::run re-applies the tick).
  const std::vector<ProcId>& schedule() const {
    if (schedule_has_erased_) [[unlikely]] compact_schedule();
    return schedule_;
  }

  void set_directive_policy(DirectivePolicy policy) {
    policy_ = std::move(policy);
  }

  /// Erases process `p` from the execution in place (Lemma 6.7): drops its
  /// steps from the history, reverts its surviving writes to the value the
  /// previous writer left (or the initial value), forgets its ledger
  /// contribution, and removes it from the runnable set. Sound — and
  /// enforced — only when (a) the cost model is stateless (DSM), (b) no
  /// other process has seen p, (c) the history uses no LL/SC (whose
  /// reservation side effects cannot be reverted), and (d) p never crashed
  /// (its fault records cannot be erased). The resulting state is exactly
  /// what replaying the p-filtered schedule would produce. Costs
  /// O(records of p): the queries come from the store's last-writer lane
  /// and the history's erasure index, and the history's compaction and the
  /// schedule's filter wait for their next read.
  void erase_process(ProcId p);

  /// True iff p was removed via erase_process.
  bool erased(ProcId p) const { return proc(p).erased; }

  // ---- crash/recovery fault injection (the RME failure model) ----------
  //
  // A crash abandons the process mid-call: its coroutine stack (all local
  // state, loop counters, held references) is destroyed, nothing it holds
  // is released, and every shared-memory write it performed stays exactly
  // as written. A recovery re-runs the process's program from the top with
  // shared memory preserved — the Golab–Ramaraju recoverable-mutex failure
  // model. Crashes and recoveries are recorded both in the history (as
  // EventKind::kCrash / kRecover records) and in the fault trace, so a
  // crashy run replays exactly: same schedule + same fault trace = same
  // history (see FaultPlan::scripted).

  /// Crashes process p: destroys its coroutine frame mid-call without
  /// applying its pending action. p stops being runnable until recover(p).
  /// The cost model is notified (a CC crash drops p's cached copies, so
  /// re-executed prologues are priced as cold RMRs again; DSM pricing is
  /// stateless and unaffected). Throws if p is terminated, erased, or
  /// already crashed.
  void crash(ProcId p);

  /// Recovers a crashed process: re-instantiates its program (fresh
  /// coroutine-local state, prologue run to the first suspension point)
  /// against the preserved shared memory. RMRs of re-executed code are
  /// charged to the ledger like any other operation — recovery is not free.
  void recover(ProcId p);

  /// True iff p is currently crashed (crash() without a later recover()).
  bool crashed(ProcId p) const { return proc(p).crashed; }

  /// Lifetime fault counters for p.
  int crash_count(ProcId p) const { return proc(p).crashes; }
  int recovery_count(ProcId p) const { return proc(p).recoveries; }

  /// Steps applied by p so far (memory ops and events alike). The
  /// crash-at-step fault trigger counts in these units.
  std::uint64_t steps_taken(ProcId p) const { return proc(p).steps; }

  /// One recorded fault: what happened to whom, positioned by the number of
  /// steps (schedule entries) applied when it was injected. Replaying the
  /// recorded schedule under FaultPlan::scripted(fault_trace()) reproduces
  /// the crashy history exactly.
  struct FaultRecord {
    enum class Kind { kCrash, kRecover };
    Kind kind = Kind::kCrash;
    ProcId proc = kNoProc;
    std::uint64_t at = 0;  ///< schedule().size() when the fault was applied
  };

  const std::vector<FaultRecord>& fault_trace() const { return fault_trace_; }

  /// Number of directives process p has consumed so far.
  int directives_consumed(ProcId p) const;

  // ---- world forking (snapshot / restore) ------------------------------
  //
  // A WorldSnapshot is a deep, deterministic copy of the entire simulated
  // world: memory values and writer/LL-reservation masks, cost-model cache
  // state, RMR ledger, history (full or counters-only), schedule, fault
  // trace, clock, and every process's control state. Coroutine frames cannot
  // be copied in C++, so they are captured as per-process *resume logs* (see
  // ResumeRecord) and rebuilt on restore by replaying the log against a
  // fresh frame — no memory op is applied and nothing is priced or recorded
  // during the replay. The contract: a restored world is behaviorally
  // indistinguishable from one built by replaying the snapshot's schedule
  // from scratch — same future steps, same ledger, same history.

  /// Opts this simulation into resume logging (required for snapshot()).
  /// Must be called before the first step; logging costs one small record
  /// append per step, so the hot bench paths leave it off.
  void enable_fork_log();
  bool fork_log_enabled() const { return fork_log_; }

  /// Captures the current world. Requires enable_fork_log() to have been
  /// called before any step. The snapshot owns copies of everything except
  /// the algorithm objects behind the programs — carry those via
  /// `keepalive`.
  WorldSnapshot snapshot() const;

  /// A restored world: the Simulation borrows the SharedMemory, so the two
  /// travel together.
  struct ForkedWorld {
    std::unique_ptr<SharedMemory> mem;
    std::unique_ptr<Simulation> sim;
  };

  /// Rebuilds a live world from a snapshot. The restored simulation has
  /// fork logging enabled (snapshots compose: a fork can be forked).
  static ForkedWorld restore(const WorldSnapshot& snap);

  /// snapshot() + restore() in one call: a deep fork of this world.
  ForkedWorld fork() const;

 private:
  struct Proc {
    std::unique_ptr<ProcCtx> ctx;
    ProcTask task;
    bool started = false;
    bool finished = false;
    bool erased = false;
    bool crashed = false;
    int directives = 0;
    int crashes = 0;
    int recoveries = 0;
    std::uint64_t steps = 0;
    std::uint64_t wake_time = 0;  // meaningful while pending is kDelay
    // Resume payloads of the *current incarnation*'s frame (empty unless
    // fork logging is on). Cleared on crash and recovery: a recovered
    // program restarts from its prologue, so its frame is a function of the
    // post-recovery payloads only.
    std::vector<ResumeRecord> log;
  };

  Proc& proc(ProcId p);
  const Proc& proc(ProcId p) const;

  /// Restore constructor: rebuilds the world captured in `snap` against
  /// `memory` (which must already hold the snapshot's store/model/ledger).
  /// Unlike the public constructors it creates frames only for live
  /// processes — finished or crashed ones get their flags and counters
  /// without paying a frame allocation and prologue run.
  Simulation(SharedMemory& memory, const WorldSnapshot& snap);

  /// Drops the erased processes' entries from schedule_. erase_process()
  /// defers this to the next read, so a chase of erasures filters once.
  void compact_schedule() const;

  /// Arms a freshly-suspended delay (records its wake time).
  void arm_delay(Proc& pr);

  /// After pr's frame was resumed: marks pr finished if the frame ran to
  /// completion (rethrowing any escaped exception), else arms a fresh
  /// delay. Returns true iff pr finished.
  bool settle(Proc& pr);

  SharedMemory* memory_;
  std::uint64_t now_ = 0;
  // The program callables are kept alive here for the whole simulation: a
  // coroutine created from a capturing lambda references the closure stored
  // inside the std::function, so the vector must never be mutated after the
  // frames are created in the constructor. Shared (immutably) with every
  // snapshot and restored world forked from this one.
  std::shared_ptr<const std::vector<Program>> programs_;
  std::vector<Proc> procs_;
  int unfinished_ = 0;  // procs not yet finished: all_terminated() in O(1)
  DirectivePolicy policy_;
  History history_;
  // Mutable for compact_schedule(): a const read first drops the entries
  // erase_process() left behind.
  mutable std::vector<ProcId> schedule_;
  mutable bool schedule_has_erased_ = false;
  std::vector<FaultRecord> fault_trace_;
  bool fork_log_ = false;  // resume logging on (snapshot()-capable)
};

// Inline: proc()/ready()/runnable() run once per candidate inside every
// scheduler's pick loop — on the per-step hot path.
inline Simulation::Proc& Simulation::proc(ProcId p) {
  ensure(p >= 0 && p < nprocs(), "process id out of range");
  return procs_[static_cast<std::size_t>(p)];
}

inline const Simulation::Proc& Simulation::proc(ProcId p) const {
  ensure(p >= 0 && p < nprocs(), "process id out of range");
  return procs_[static_cast<std::size_t>(p)];
}

inline bool Simulation::ready(ProcId p) const {
  const Proc& pr = proc(p);
  if (pr.finished || pr.crashed) return false;
  if (pr.ctx->pending().kind == ActionKind::kDelay) {
    return now_ >= pr.wake_time;
  }
  return true;
}

inline bool Simulation::runnable(ProcId p) const {
  const Proc& pr = proc(p);
  return !pr.finished && !pr.crashed;
}

inline bool Simulation::terminated(ProcId p) const { return proc(p).finished; }

inline bool Simulation::all_terminated() const { return unfinished_ == 0; }

/// A deep copy of one simulated world at a point in time. Move-only (owns a
/// cloned cost model); share across threads as shared_ptr<const
/// WorldSnapshot> — restoration only reads it.
struct WorldSnapshot {
  /// Per-process control state mirrored from Simulation::Proc (everything
  /// except the uncopyable ctx/frame, which the resume log stands in for).
  struct ProcState {
    bool started = false;
    bool finished = false;
    bool erased = false;
    bool crashed = false;
    int directives = 0;
    int crashes = 0;
    int recoveries = 0;
    std::uint64_t steps = 0;
    std::uint64_t wake_time = 0;
    std::vector<ResumeRecord> log;
  };

  // The store/ledger initializers are 1-processor placeholders, overwritten
  // by Simulation::snapshot() (MemoryStore rejects zero processors).
  MemoryStore store{1};
  std::unique_ptr<CostModel> model;
  RmrLedger ledger{1};
  std::uint64_t now = 0;
  History history;
  std::vector<ProcId> schedule;
  std::vector<Simulation::FaultRecord> fault_trace;
  std::vector<ProcState> procs;
  // The program callables, shared immutably with the source simulation and
  // every world restored from this snapshot. A capturing program shares its
  // captured pointers/references with the original — keep the referents
  // (algorithm objects, which hold only VarIds and no mutable state) alive
  // via `keepalive`.
  std::shared_ptr<const std::vector<Program>> programs;
  Simulation::DirectivePolicy policy;
  /// Opaque owner of whatever the programs capture by reference (typically
  /// the ExploreInstance keepalive). Carried through restore() by callers.
  std::shared_ptr<void> keepalive;

  /// Rough retained size in bytes (store + history + logs + schedule) — the
  /// snapshot cache budgets memory with this.
  std::size_t approx_bytes() const;

  /// Deterministic content hash (FNV-1a 64, runtime/snapshot_codec.cc) over
  /// the world's *semantic* state: store content, cost-model architectural
  /// state, RMR ledger, clock, history counters, and every process's control
  /// state (flags, fault counters, wake time, resume log).
  /// Deliberately excludes how the state was reached — the schedule, the
  /// fault trace, full-mode history records, and diagnostic variable names —
  /// so two worlds reached by different interleavings of equivalent work
  /// hash equal exactly when the state the search continues from is
  /// identical. Stable across fork/restore round trips and across
  /// processes.
  std::uint64_t fingerprint() const;
};

}  // namespace rmrsim
