#include "signaling/llsc_registration.h"

namespace rmrsim {

LlscRegistrationSignal::LlscRegistrationSignal(SharedMemory& mem)
    : s_(mem.allocate_global(0, "S")),
      head_(mem.allocate_global(kNil, "Head")) {
  for (ProcId i = 0; i < mem.nprocs(); ++i) {
    next_.push_back(
        mem.allocate_local(i, kNil, "Next[" + std::to_string(i) + "]"));
    v_.push_back(mem.allocate_local(i, 0, "V[" + std::to_string(i) + "]"));
    first_done_.push_back(
        mem.allocate_local(i, 0, "First[" + std::to_string(i) + "]"));
  }
}

SubTask<bool> LlscRegistrationSignal::poll(ProcCtx& ctx) {
  const ProcId me = ctx.id();
  const Word done = co_await ctx.read(first_done_[me]);
  if (done == 0) {
    for (;;) {
      const Word h = co_await ctx.ll(head_);
      co_await ctx.write(next_[me], h);
      const Word ok = co_await ctx.sc(head_, me);
      if (ok != 0) break;  // reservation held: we are pushed
    }
    co_await ctx.write(first_done_[me], 1);
    const Word s = co_await ctx.read(s_);
    co_return s != 0;
  }
  const Word v = co_await ctx.read(v_[me]);
  co_return v != 0;
}

SubTask<void> LlscRegistrationSignal::signal(ProcCtx& ctx) {
  co_await ctx.write(s_, 1);
  Word node = co_await ctx.read(head_);
  while (node != kNil) {
    const ProcId w = static_cast<ProcId>(node);
    co_await ctx.write(v_[w], 1);
    node = co_await ctx.read(next_[w]);
  }
}

}  // namespace rmrsim
