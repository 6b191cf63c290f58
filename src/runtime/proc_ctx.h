// ProcCtx: the per-process control block joining algorithm code to the
// simulator.
//
// Algorithm coroutines call the awaitable accessors (read/write/cas/...,
// call_begin/call_end, next_directive). Each awaitable parks a PendingAction
// in the ProcCtx and suspends; the Simulation inspects the pending action
// (e.g. to price it as an RMR before applying — the adversary's hook),
// applies it, deposits the outcome, and resumes the coroutine.
#pragma once

#include <coroutine>

#include "common/check.h"
#include "common/types.h"
#include "history/step_record.h"
#include "memory/memop.h"

namespace rmrsim {

/// What a process is suspended on.
enum class ActionKind {
  kMemOp,      ///< about to apply pending.op
  kEvent,      ///< about to record a call boundary / mark
  kDirective,  ///< waiting for the client driver's next instruction
  kDelay,      ///< sleeping until the simulation clock reaches a wake time
  kFinished,   ///< program ran to completion
};

struct PendingAction {
  ActionKind kind = ActionKind::kFinished;
  MemOp op{};
  EventKind event = EventKind::kMark;
  Word code = 0;
  Word value = 0;
  Word delay_ticks = 0;  ///< kDelay: requested duration (time units)
};

class ProcCtx {
 public:
  ProcCtx(ProcId id, int nprocs) : id_(id), nprocs_(nprocs) {}
  ProcCtx(const ProcCtx&) = delete;
  ProcCtx& operator=(const ProcCtx&) = delete;

  ProcId id() const { return id_; }
  int nprocs() const { return nprocs_; }

  // ---- awaitables used by algorithm code ------------------------------

  struct OpAwaiter {
    ProcCtx* ctx;
    MemOp op;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) {
      ctx->pending_ = PendingAction{.kind = ActionKind::kMemOp, .op = op};
      ctx->resume_point_ = h;
    }
    /// The primitive's result (see OpType).
    Word await_resume() const { return ctx->outcome_.result; }
  };

  struct EventAwaiter {
    ProcCtx* ctx;
    EventKind event;
    Word code;
    Word value;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) {
      ctx->pending_ = PendingAction{
          .kind = ActionKind::kEvent, .event = event, .code = code,
          .value = value};
      ctx->resume_point_ = h;
    }
    void await_resume() const noexcept {}
  };

  struct DirectiveAwaiter {
    ProcCtx* ctx;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) {
      ctx->pending_ = PendingAction{.kind = ActionKind::kDirective};
      ctx->resume_point_ = h;
    }
    Directive await_resume() const { return ctx->directive_; }
  };

  struct DelayAwaiter {
    ProcCtx* ctx;
    Word ticks;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) {
      ctx->pending_ =
          PendingAction{.kind = ActionKind::kDelay, .delay_ticks = ticks};
      ctx->resume_point_ = h;
    }
    void await_resume() const noexcept {}
  };

  /// Shared-memory primitives. `co_await ctx.read(v)` etc. Each suspends
  /// once; the operation is applied atomically when the scheduler steps this
  /// process.
  OpAwaiter apply(MemOp op) { return OpAwaiter{this, op}; }
  OpAwaiter read(VarId v) { return apply(MemOp::read(v)); }
  OpAwaiter write(VarId v, Word value) { return apply(MemOp::write(v, value)); }
  OpAwaiter cas(VarId v, Word expect, Word desired) {
    return apply(MemOp::cas(v, expect, desired));
  }
  OpAwaiter ll(VarId v) { return apply(MemOp::ll(v)); }
  OpAwaiter sc(VarId v, Word value) { return apply(MemOp::sc(v, value)); }
  OpAwaiter faa(VarId v, Word delta) { return apply(MemOp::faa(v, delta)); }
  OpAwaiter fas(VarId v, Word value) { return apply(MemOp::fas(v, value)); }
  OpAwaiter tas(VarId v) { return apply(MemOp::tas(v)); }

  /// Records a procedure-call boundary in the history (used by the
  /// Specification 4.1 checker and the ME checker).
  EventAwaiter call_begin(Word call_code) {
    return EventAwaiter{this, EventKind::kCallBegin, call_code, 0};
  }
  EventAwaiter call_end(Word call_code, Word ret = 0) {
    return EventAwaiter{this, EventKind::kCallEnd, call_code, ret};
  }
  EventAwaiter mark(Word code, Word value = 0) {
    return EventAwaiter{this, EventKind::kMark, code, value};
  }

  /// Asks the client driver's directive policy what to do next (which
  /// procedure to call, or terminate). This is how the adversary steers
  /// waiters through "zero or more calls in arbitrary order" (Definition
  /// 6.1).
  DirectiveAwaiter next_directive() { return DirectiveAwaiter{this}; }

  /// Semi-synchronous model (Section 3's timing-based systems): delays the
  /// process for at least `ticks` time units. The process becomes ready
  /// again once the simulation clock (one unit per step/tick) reaches the
  /// wake time; until then schedulers must not step it.
  DelayAwaiter delay(Word ticks) { return DelayAwaiter{this, ticks}; }

  // ---- simulator side --------------------------------------------------

  const PendingAction& pending() const { return pending_; }

  /// Applies the deposited result and resumes the coroutine stack to its
  /// next suspension point (or completion).
  void resume_with_outcome(const OpOutcome& outcome) {
    ensure(pending_.kind == ActionKind::kMemOp, "no pending memory op");
    outcome_ = outcome;
    resume();
  }

  void resume_with_directive(const Directive& d) {
    ensure(pending_.kind == ActionKind::kDirective, "no pending directive");
    directive_ = d;
    resume();
  }

  void resume_plain() {
    ensure(pending_.kind == ActionKind::kEvent, "no pending event");
    resume();
  }

  void resume_from_delay() {
    ensure(pending_.kind == ActionKind::kDelay, "no pending delay");
    resume();
  }

  void mark_finished() { pending_ = PendingAction{}; }

  /// Crash support (Simulation::crash): the coroutine frame is destroyed by
  /// the owner, so the parked resume point and pending action are dead —
  /// clear both so nothing can resume into freed memory.
  void mark_crashed() {
    pending_ = PendingAction{};
    resume_point_ = {};
  }

 private:
  void resume() {
    ensure(static_cast<bool>(resume_point_), "process is not suspended");
    auto h = resume_point_;
    resume_point_ = {};
    // If the resumed code suspends again it overwrites pending_; if the
    // program completes, Simulation::step marks us finished.
    h.resume();
  }

  ProcId id_;
  int nprocs_;
  PendingAction pending_{};
  OpOutcome outcome_{};
  Directive directive_{};
  std::coroutine_handle<> resume_point_;
};

}  // namespace rmrsim
