#include "signaling/dsm_queue.h"

namespace rmrsim {

DsmQueueSignal::DsmQueueSignal(SharedMemory& mem)
    : s_(mem.allocate_global(0, "S")),
      tail_(mem.allocate_global(0, "Tail")) {
  slots_.reserve(static_cast<std::size_t>(mem.nprocs()));
  v_.reserve(static_cast<std::size_t>(mem.nprocs()));
  first_done_.reserve(static_cast<std::size_t>(mem.nprocs()));
  for (ProcId i = 0; i < mem.nprocs(); ++i) {
    slots_.push_back(
        mem.allocate_global(kEmpty, "A[" + std::to_string(i) + "]"));
    v_.push_back(mem.allocate_local(i, 0, "V[" + std::to_string(i) + "]"));
    first_done_.push_back(
        mem.allocate_local(i, 0, "First[" + std::to_string(i) + "]"));
  }
}

SubTask<bool> DsmQueueSignal::poll(ProcCtx& ctx) {
  const ProcId me = ctx.id();
  const Word done = co_await ctx.read(first_done_[me]);
  if (done == 0) {
    // First call: enqueue (claim a slot, announce our id), then check the
    // global flag. As in the registration variant, checking S after
    // enqueueing closes the race with a concurrent Signal() sweep: either
    // the sweep sees our announcement, or it read Tail before our FAI — but
    // then S was already set when we read it.
    const Word slot = co_await ctx.faa(tail_, 1);
    co_await ctx.write(slots_[static_cast<std::size_t>(slot)], me);
    co_await ctx.write(first_done_[me], 1);
    const Word s = co_await ctx.read(s_);
    co_return s != 0;
  }
  const Word v = co_await ctx.read(v_[me]);
  co_return v != 0;
}

SubTask<void> DsmQueueSignal::signal(ProcCtx& ctx) {
  co_await ctx.write(s_, 1);
  const Word tail = co_await ctx.read(tail_);
  for (Word j = 0; j < tail; ++j) {
    // A slot claimed by FAI is announced by the very next step of its
    // claimant; spin until the id appears (terminating under fairness).
    Word id;
    do {
      id = co_await ctx.read(slots_[static_cast<std::size_t>(j)]);
    } while (id == kEmpty);
    co_await ctx.write(v_[static_cast<ProcId>(id)], 1);
  }
}

}  // namespace rmrsim
