#include "signaling/dsm_fixed.h"

#include <algorithm>

#include "common/check.h"

namespace rmrsim {

DsmFixedWaitersSignal::DsmFixedWaitersSignal(SharedMemory& mem,
                                             std::vector<ProcId> waiters)
    : waiters_(std::move(waiters)) {
  v_.reserve(static_cast<std::size_t>(mem.nprocs()));
  for (ProcId i = 0; i < mem.nprocs(); ++i) {
    v_.push_back(mem.allocate_local(i, 0, "V[" + std::to_string(i) + "]"));
  }
}

SubTask<bool> DsmFixedWaitersSignal::poll(ProcCtx& ctx) {
  ensure(std::find(waiters_.begin(), waiters_.end(), ctx.id()) !=
             waiters_.end(),
         "only a fixed waiter may call Poll() in this variant");
  const Word v = co_await ctx.read(v_[ctx.id()]);
  co_return v != 0;
}

SubTask<void> DsmFixedWaitersSignal::signal(ProcCtx& ctx) {
  for (const ProcId w : waiters_) {
    co_await ctx.write(v_[w], 1);
  }
}

DsmFixedWaitersTerminating::DsmFixedWaitersTerminating(
    SharedMemory& mem, std::vector<ProcId> waiters, ProcId signaler)
    : waiters_(std::move(waiters)), signaler_(signaler) {
  v_.reserve(static_cast<std::size_t>(mem.nprocs()));
  present_.reserve(static_cast<std::size_t>(mem.nprocs()));
  for (ProcId i = 0; i < mem.nprocs(); ++i) {
    v_.push_back(mem.allocate_local(i, 0, "V[" + std::to_string(i) + "]"));
    present_.push_back(mem.allocate_local(
        signaler_, 0, "Present[" + std::to_string(i) + "]"));
    announced_.push_back(
        mem.allocate_local(i, 0, "Announced[" + std::to_string(i) + "]"));
  }
}

SubTask<bool> DsmFixedWaitersTerminating::poll(ProcCtx& ctx) {
  const ProcId me = ctx.id();
  ensure(std::find(waiters_.begin(), waiters_.end(), me) != waiters_.end(),
         "only a fixed waiter may call Poll() in this variant");
  // Announce participation once (the announced_ guard is in the waiter's
  // own module, so the check is free); afterwards every call is a local
  // spin on V — O(1) RMRs per waiter total.
  const Word announced = co_await ctx.read(announced_[me]);
  if (announced == 0) {
    co_await ctx.write(present_[me], 1);
    co_await ctx.write(announced_[me], 1);
  }
  const Word v = co_await ctx.read(v_[me]);
  co_return v != 0;
}

SubTask<void> DsmFixedWaitersTerminating::signal(ProcCtx& ctx) {
  // Busy-wait for each fixed waiter to participate — a *local* spin, since
  // the participation flags live in the signaler's own module — then deliver
  // its private flag. Terminating (not wait-free): if some fixed waiter
  // never shows up in a fair history, Signal() never returns, which the
  // terminating progress property permits only when the history is unfair or
  // a waiter crashed; tests drive fair schedules where everyone arrives.
  for (const ProcId w : waiters_) {
    for (;;) {
      const Word here = co_await ctx.read(present_[w]);
      if (here != 0) break;
    }
    co_await ctx.write(v_[w], 1);
  }
}

}  // namespace rmrsim
