#include "signaling/dsm_registration.h"

namespace rmrsim {

DsmRegistrationSignal::DsmRegistrationSignal(SharedMemory& mem,
                                             ProcId signaler)
    : signaler_(signaler), s_(mem.allocate_global(0, "S")) {
  reg_.reserve(static_cast<std::size_t>(mem.nprocs()));
  v_.reserve(static_cast<std::size_t>(mem.nprocs()));
  first_done_.reserve(static_cast<std::size_t>(mem.nprocs()));
  for (ProcId i = 0; i < mem.nprocs(); ++i) {
    reg_.push_back(
        mem.allocate_local(signaler_, 0, "Reg[" + std::to_string(i) + "]"));
    v_.push_back(mem.allocate_local(i, 0, "V[" + std::to_string(i) + "]"));
    first_done_.push_back(
        mem.allocate_local(i, 0, "First[" + std::to_string(i) + "]"));
  }
}

SubTask<bool> DsmRegistrationSignal::poll(ProcCtx& ctx) {
  const ProcId me = ctx.id();
  const Word done = co_await ctx.read(first_done_[me]);
  if (done == 0) {
    // First call: register in the signaler's module, then check S. Checking
    // S *after* registering closes the race where Signal() sweeps the
    // registration array just before we appear: either the signaler saw our
    // registration (V will be delivered), or it swept earlier — but then it
    // wrote S before sweeping, so we see S = 1 here.
    co_await ctx.write(reg_[me], 1);
    co_await ctx.write(first_done_[me], 1);
    const Word s = co_await ctx.read(s_);
    co_return s != 0;
  }
  const Word v = co_await ctx.read(v_[me]);
  co_return v != 0;
}

SubTask<void> DsmRegistrationSignal::signal(ProcCtx& ctx) {
  co_await ctx.write(s_, 1);
  for (ProcId i = 0; i < static_cast<ProcId>(reg_.size()); ++i) {
    const Word r = co_await ctx.read(reg_[i]);  // local to the signaler
    if (r != 0) {
      co_await ctx.write(v_[i], 1);  // one RMR per registered waiter
    }
  }
}

}  // namespace rmrsim
