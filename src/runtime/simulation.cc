#include "runtime/simulation.h"

#include "common/check.h"

namespace rmrsim {

Simulation::Simulation(SharedMemory& memory, std::vector<Program> programs,
                       DirectivePolicy policy)
    : Simulation(memory,
                 std::make_shared<const std::vector<Program>>(
                     std::move(programs)),
                 std::move(policy)) {}

Simulation::Simulation(SharedMemory& memory,
                       std::shared_ptr<const std::vector<Program>> programs,
                       DirectivePolicy policy)
    : memory_(&memory), programs_(std::move(programs)),
      policy_(std::move(policy)) {
  const std::vector<Program>& progs = *programs_;
  ensure(static_cast<int>(progs.size()) <= memory.nprocs(),
         "more programs than processors");
  procs_.reserve(progs.size());
  schedule_.reserve(1024);
  for (std::size_t i = 0; i < progs.size(); ++i) {
    Proc p;
    p.ctx = std::make_unique<ProcCtx>(static_cast<ProcId>(i), memory.nprocs());
    if (progs[i]) {
      p.task = progs[i](*p.ctx);
      p.started = true;
      ++unfinished_;
    } else {
      p.finished = true;
    }
    procs_.push_back(std::move(p));
  }
  // Run each program's local prologue to its first suspension point. No
  // memory operation is applied here — the first pending action becomes
  // visible, nothing more.
  for (Proc& p : procs_) {
    if (!p.started) continue;
    p.task.handle().resume();
    settle(p);
  }
}

bool Simulation::settle(Proc& pr) {
  if (!pr.task.done()) {
    arm_delay(pr);
    return false;
  }
  pr.task.rethrow_if_error();
  pr.finished = true;
  --unfinished_;
  pr.ctx->mark_finished();
  return true;
}

void Simulation::arm_delay(Proc& pr) {
  if (pr.ctx->pending().kind == ActionKind::kDelay) {
    pr.wake_time =
        now_ + static_cast<std::uint64_t>(pr.ctx->pending().delay_ticks);
  }
}

const PendingAction& Simulation::pending(ProcId p) const {
  return proc(p).ctx->pending();
}

bool Simulation::pending_is_rmr(ProcId p) const {
  const PendingAction& a = pending(p);
  ensure(a.kind == ActionKind::kMemOp, "pending action is not a memory op");
  return memory_->classify_rmr(p, a.op);
}

int Simulation::directives_consumed(ProcId p) const {
  return proc(p).directives;
}

const StepRecord& Simulation::step(ProcId p) {
  Proc& pr = proc(p);
  ensure(!pr.finished, "stepping a terminated process");
  ensure(!pr.crashed, "stepping a crashed process (recover it first)");
  // Safe by reference: every field is read before the resume_* call that
  // overwrites the pending slot.
  const PendingAction& a = pr.ctx->pending();

  StepRecord rec;
  rec.proc = p;
  ResumeRecord resume;
  resume.kind = a.kind;
  switch (a.kind) {
    case ActionKind::kMemOp: {
      const OpOutcome outcome = memory_->apply(p, a.op);
      rec.kind = StepRecord::Kind::kMemOp;
      rec.op = a.op;
      rec.outcome = outcome;
      rec.var_home = memory_->store().home(a.op.var);
      resume.outcome = outcome;
      pr.ctx->resume_with_outcome(outcome);
      break;
    }
    case ActionKind::kEvent: {
      rec.kind = StepRecord::Kind::kEvent;
      rec.event = a.event;
      rec.code = a.code;
      rec.value = a.value;
      pr.ctx->resume_plain();
      break;
    }
    case ActionKind::kDirective: {
      ensure(static_cast<bool>(policy_),
             "driver requested a directive but no policy is set");
      const Directive d = policy_(p, pr.directives++);
      rec.kind = StepRecord::Kind::kEvent;
      rec.event = EventKind::kDirective;
      rec.code = d.action;
      rec.value = d.arg;
      resume.directive = d;
      pr.ctx->resume_with_directive(d);
      break;
    }
    case ActionKind::kDelay: {
      ensure(now_ >= pr.wake_time,
             "stepping a delayed process before its wake time");
      rec.kind = StepRecord::Kind::kEvent;
      rec.event = EventKind::kDelay;
      rec.value = a.delay_ticks;
      pr.ctx->resume_from_delay();
      break;
    }
    case ActionKind::kFinished:
      fail("stepping a process with no pending action");
  }
  if (fork_log_) pr.log.push_back(resume);
  ++now_;
  rec.terminated_after = settle(pr);
  ++pr.steps;
  schedule_.push_back(p);
  return history_.append(std::move(rec));
}

Simulation::MacroFootprint Simulation::macro_step(ProcId p) {
  ensure(runnable(p), "macro_step on a non-runnable process");
  MacroFootprint fp;
  while (runnable(p) && pending(p).kind != ActionKind::kMemOp) {
    if (pending(p).kind == ActionKind::kDelay && !ready(p)) {
      // Sleeping: advance the clock to its wake time. The explorers treat
      // time coarsely — a macro step never branches on tick placement.
      tick();
      continue;
    }
    const StepRecord& rec = step(p);
    if (rec.kind == StepRecord::Kind::kEvent && observable_event(rec.event)) {
      fp.observable = true;
    }
    if (rec.terminated_after) {
      fp.terminated = true;
      return fp;
    }
  }
  if (!runnable(p)) {
    fp.terminated = terminated(p);
    return fp;
  }
  const StepRecord& rec = step(p);
  fp.has_op = true;
  fp.var = rec.op.var;
  fp.access = access_class(rec.outcome);
  fp.terminated = rec.terminated_after;
  return fp;
}

Simulation::Stop Simulation::run_until_rmr_pending(ProcId p,
                                                   std::uint64_t max_steps) {
  for (std::uint64_t i = 0; i < max_steps; ++i) {
    if (terminated(p)) return Stop::kTerminated;
    const PendingAction& a = pending(p);
    if (a.kind == ActionKind::kMemOp && pending_is_rmr(p)) {
      return Stop::kRmrPending;
    }
    step(p);
  }
  return terminated(p) ? Stop::kTerminated : Stop::kBudget;
}

bool Simulation::run_proc_until(
    ProcId p, const std::function<bool(const StepRecord&)>& pred,
    std::uint64_t max_steps) {
  for (std::uint64_t i = 0; i < max_steps; ++i) {
    if (terminated(p)) return false;
    if (pred(step(p))) return true;
  }
  return false;
}

void Simulation::crash(ProcId p) {
  Proc& pr = proc(p);
  ensure(!pr.erased, "cannot crash an erased process");
  ensure(!pr.crashed, "process is already crashed");
  ensure(!pr.finished, "cannot crash a terminated process");
  // Destroying the suspended coroutine frame unwinds every nested SubTask
  // frame (their destructors run), losing all coroutine-local state. The
  // pending action is dropped unapplied; shared memory keeps every write p
  // already performed.
  pr.task = ProcTask{};
  pr.log.clear();  // the logged incarnation's frame no longer exists
  pr.crashed = true;
  ++pr.crashes;
  pr.ctx->mark_crashed();
  memory_->notify_crash(p);
  // The link register does not survive a failure: any LL reservation p held
  // dies with the crash, so a post-recovery SC must fail until a fresh LL.
  memory_->store().clear_reservations(p);
  fault_trace_.push_back(
      {FaultRecord::Kind::kCrash, p, schedule().size()});
  StepRecord rec;
  rec.proc = p;
  rec.kind = StepRecord::Kind::kEvent;
  rec.event = EventKind::kCrash;
  history_.append(std::move(rec));
}

void Simulation::recover(ProcId p) {
  Proc& pr = proc(p);
  ensure(pr.crashed, "recover() target is not crashed");
  // Fresh control block + fresh coroutine frame: all local state is lost,
  // exactly the RME failure model. Shared memory is untouched.
  pr.ctx = std::make_unique<ProcCtx>(p, memory_->nprocs());
  pr.task = (*programs_)[static_cast<std::size_t>(p)](*pr.ctx);
  pr.log.clear();  // fresh incarnation: its frame replays from the prologue
  pr.crashed = false;
  ++pr.recoveries;
  fault_trace_.push_back(
      {FaultRecord::Kind::kRecover, p, schedule().size()});
  StepRecord rec;
  rec.proc = p;
  rec.kind = StepRecord::Kind::kEvent;
  rec.event = EventKind::kRecover;
  history_.append(std::move(rec));
  // Re-run the local prologue to the first suspension point, mirroring the
  // constructor. No memory operation is applied here.
  pr.task.handle().resume();
  settle(pr);
}

void Simulation::erase_process(ProcId p) {
  Proc& pr = proc(p);
  ensure(pr.crashes == 0,
         "cannot erase a process that crashed, even if it recovered (its "
         "crash record would survive in the fault trace; Lemma 6.7 erases "
         "live invisible processes only)");
  ensure(!pr.finished, "cannot erase a finished process (Lemma 6.7 erases "
                       "active processes only)");
  ensure(memory_->model().pricing_is_stateless(),
         "in-place erasure requires a stateless cost model (DSM)");
  ensure(!history_.seen_by_other(p),
         "process was seen by another process; erasure would change the "
         "observable history (Lemma 6.7 precondition)");
  ensure(!history_.uses_ll_sc(),
         "in-place erasure does not support LL/SC reservation side effects");

  // Revert p's surviving writes: each variable p overwrote goes back to the
  // last value written by someone else, or its initial value. Because p was
  // never seen, no other process's recorded step depended on these values,
  // so the reverted state matches the p-free replay exactly.
  MemoryStore& store = memory_->store();
  for (const VarId v : history_.vars_written_by(p)) {
    if (store.last_writer(v) == p) {
      const auto prev = history_.last_write_excluding(v, p);
      if (prev.has_value()) {
        store.poke(v, prev->first, prev->second);
      } else {
        store.poke(v, store.initial(v), kNoProc);
      }
    }
    store.forget_writer(v, p);
  }

  history_.remove_proc(p);
  memory_->ledger().forget(p);
  // No store.clear_reservations(p): only an LL makes a reservation, and the
  // history has none (checked above).
  schedule_has_erased_ = true;  // p's entries go at the next read
  pr.task = ProcTask{};
  pr.log.clear();  // erased: no frame to rebuild on restore
  pr.finished = true;
  pr.erased = true;
  --unfinished_;
  pr.ctx->mark_finished();
}

void Simulation::compact_schedule() const {
  // An erased process never steps again, so every entry it owns goes.
  std::erase_if(schedule_, [this](ProcId q) {
    return q != kNoProc && procs_[static_cast<std::size_t>(q)].erased;
  });
  schedule_has_erased_ = false;
}

void Simulation::enable_fork_log() {
  ensure(schedule().empty() && history_.empty() && fault_trace_.empty(),
         "enable_fork_log() must be called before the first step");
  fork_log_ = true;
}

WorldSnapshot Simulation::snapshot() const {
  ensure(fork_log_,
         "snapshot() requires resume logging: call enable_fork_log() before "
         "the first step");
  WorldSnapshot s;
  s.store = memory_->store();
  s.model = memory_->model().clone();
  s.ledger = memory_->ledger();
  s.now = now_;
  s.history = history_;
  s.schedule = schedule();
  s.fault_trace = fault_trace_;
  s.procs.reserve(procs_.size());
  for (const Proc& pr : procs_) {
    WorldSnapshot::ProcState ps;
    ps.started = pr.started;
    ps.finished = pr.finished;
    ps.erased = pr.erased;
    ps.crashed = pr.crashed;
    ps.directives = pr.directives;
    ps.crashes = pr.crashes;
    ps.recoveries = pr.recoveries;
    ps.steps = pr.steps;
    ps.wake_time = pr.wake_time;
    ps.log = pr.log;
    s.procs.push_back(std::move(ps));
  }
  s.programs = programs_;
  s.policy = policy_;
  return s;
}

Simulation::Simulation(SharedMemory& memory, const WorldSnapshot& snap)
    : memory_(&memory), programs_(snap.programs), policy_(snap.policy) {
  const std::vector<Program>& progs = *programs_;
  ensure(static_cast<int>(progs.size()) <= memory.nprocs(),
         "more programs than processors");
  ensure(progs.size() == snap.procs.size(),
         "fork restore: process count diverged");
  fork_log_ = true;  // snapshots compose: the clone is itself forkable
  procs_.reserve(progs.size());
  schedule_.reserve(snap.schedule.size() + 64);
  for (std::size_t i = 0; i < progs.size(); ++i) {
    const WorldSnapshot::ProcState& ps = snap.procs[i];
    ensure(ps.started == static_cast<bool>(progs[i]),
           "fork restore: start state diverged");
    Proc p;
    p.ctx = std::make_unique<ProcCtx>(static_cast<ProcId>(i), memory.nprocs());
    p.started = ps.started;
    p.finished = ps.finished;
    p.erased = ps.erased;
    p.crashed = ps.crashed;
    p.directives = ps.directives;
    p.crashes = ps.crashes;
    p.recoveries = ps.recoveries;
    p.steps = ps.steps;
    // Copied, not re-armed: an arm_delay here would recompute the wake from
    // the clone's clock.
    p.wake_time = ps.wake_time;
    p.log = ps.log;
    if (!ps.started) {
      // Empty program slot: mirrors the public constructor (no frame, no
      // context marking).
    } else if (ps.finished) {
      // Finished (or erased): no frame survives; flags and counters do. The
      // frame allocation and prologue run are skipped entirely.
      p.ctx->mark_finished();
    } else if (ps.crashed) {
      // Crashed but recoverable: counts as unfinished, has no frame.
      p.ctx->mark_crashed();
      ++unfinished_;
    } else {
      // Live: run the prologue, then fast-forward the fresh frame by
      // replaying the incarnation's resume log. No memory op is applied,
      // nothing is priced or recorded — the payloads were captured when the
      // original world stepped. If the incarnation follows a recovery, the
      // constructor-run prologue coincides with the recovery prologue (same
      // program, fresh context), so the log picks up exactly where the
      // original frame is suspended.
      ++unfinished_;
      p.task = progs[i](*p.ctx);
      p.task.handle().resume();
      if (p.task.done()) p.task.rethrow_if_error();
      ensure(!p.task.done(), "fork restore: prologue terminated a live process");
      for (const ResumeRecord& r : ps.log) {
        ensure(!p.task.done(),
               "fork restore: replay diverged (early termination)");
        ensure(p.ctx->pending().kind == r.kind,
               "fork restore: replay diverged (pending action kind)");
        switch (r.kind) {
          case ActionKind::kMemOp:
            p.ctx->resume_with_outcome(r.outcome);
            break;
          case ActionKind::kEvent:
            p.ctx->resume_plain();
            break;
          case ActionKind::kDirective:
            p.ctx->resume_with_directive(r.directive);
            break;
          case ActionKind::kDelay:
            p.ctx->resume_from_delay();
            break;
          case ActionKind::kFinished:
            fail("fork restore: kFinished in a resume log");
        }
      }
      ensure(!p.task.done(),
             "fork restore: replay diverged (unexpected termination)");
    }
    procs_.push_back(std::move(p));
  }
  now_ = snap.now;
  history_ = snap.history;
  history_.reserve(history_.size() + 64);
  schedule_ = snap.schedule;  // reuses the constructor-reserved capacity
  fault_trace_ = snap.fault_trace;
}

Simulation::ForkedWorld Simulation::restore(const WorldSnapshot& snap) {
  ensure(snap.model != nullptr, "restore() on a moved-from snapshot");
  ForkedWorld world;
  world.mem = std::make_unique<SharedMemory>(snap.store, snap.model->clone(),
                                             snap.ledger);
  world.sim.reset(new Simulation(*world.mem, snap));
  return world;
}

Simulation::ForkedWorld Simulation::fork() const { return restore(snapshot()); }

std::size_t WorldSnapshot::approx_bytes() const {
  const std::size_t nvars = static_cast<std::size_t>(store.num_vars());
  const std::size_t mask_words =
      (static_cast<std::size_t>(store.nprocs()) + 63) / 64;
  std::size_t bytes = sizeof(WorldSnapshot);
  bytes += nvars * (64 /*slot incl. name*/ +
                    2 * mask_words * sizeof(std::uint64_t));
  if (history.mode() == HistoryMode::kFull) {
    bytes += history.size() * sizeof(StepRecord);
  }
  bytes += schedule.size() * sizeof(ProcId);
  bytes += fault_trace.size() * sizeof(Simulation::FaultRecord);
  for (const ProcState& ps : procs) {
    bytes += sizeof(ProcState) + ps.log.size() * sizeof(ResumeRecord);
  }
  return bytes;
}

Simulation::RunResult Simulation::run(Scheduler& sched,
                                      std::uint64_t max_steps) {
  RunResult r;
  while (r.steps < max_steps && !all_terminated()) {
    const ProcId p = sched.next(*this);
    if (p == kNoProc) {
      // Nobody is ready. If someone is merely sleeping, advance the clock
      // so it can wake; otherwise the scheduler is done.
      bool sleeper = false;
      for (ProcId q = 0; q < nprocs(); ++q) {
        if (runnable(q) && !ready(q)) {
          sleeper = true;
          break;
        }
      }
      if (!sleeper) break;
      tick();
      ++r.steps;  // ticks consume budget too (they advance time)
      continue;
    }
    step(p);
    ++r.steps;
  }
  r.all_terminated = all_terminated();
  return r;
}

}  // namespace rmrsim
