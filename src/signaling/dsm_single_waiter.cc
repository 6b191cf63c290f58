#include "signaling/dsm_single_waiter.h"

namespace rmrsim {

DsmSingleWaiterSignal::DsmSingleWaiterSignal(SharedMemory& mem)
    : w_(mem.allocate_global(kNil, "W")), s_(mem.allocate_global(0, "S")) {
  v_.reserve(static_cast<std::size_t>(mem.nprocs()));
  registered_.reserve(static_cast<std::size_t>(mem.nprocs()));
  for (ProcId i = 0; i < mem.nprocs(); ++i) {
    v_.push_back(mem.allocate_local(i, 0, "V[" + std::to_string(i) + "]"));
    registered_.push_back(
        mem.allocate_local(i, 0, "Reg[" + std::to_string(i) + "]"));
  }
}

SubTask<bool> DsmSingleWaiterSignal::poll(ProcCtx& ctx) {
  const ProcId me = ctx.id();
  const Word reg = co_await ctx.read(registered_[me]);
  if (reg == 0) {
    // First call: register, then read the global signal flag. The order
    // matters — registering first closes the race where the signaler reads
    // W just before we appear yet S was already set when we check it.
    co_await ctx.write(w_, me);
    co_await ctx.write(registered_[me], 1);
    const Word s = co_await ctx.read(s_);
    co_return s != 0;
  }
  const Word v = co_await ctx.read(v_[me]);
  co_return v != 0;
}

SubTask<void> DsmSingleWaiterSignal::signal(ProcCtx& ctx) {
  co_await ctx.write(s_, 1);
  const Word w = co_await ctx.read(w_);
  if (w != kNil) {
    co_await ctx.write(v_[static_cast<ProcId>(w)], 1);
  }
}

}  // namespace rmrsim
