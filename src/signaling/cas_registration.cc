#include "signaling/cas_registration.h"

namespace rmrsim {

CasRegistrationSignal::CasRegistrationSignal(SharedMemory& mem)
    : s_(mem.allocate_global(0, "S")),
      head_(mem.allocate_global(kNil, "Head")) {
  next_.reserve(static_cast<std::size_t>(mem.nprocs()));
  v_.reserve(static_cast<std::size_t>(mem.nprocs()));
  first_done_.reserve(static_cast<std::size_t>(mem.nprocs()));
  for (ProcId i = 0; i < mem.nprocs(); ++i) {
    next_.push_back(
        mem.allocate_local(i, kNil, "Next[" + std::to_string(i) + "]"));
    v_.push_back(mem.allocate_local(i, 0, "V[" + std::to_string(i) + "]"));
    first_done_.push_back(
        mem.allocate_local(i, 0, "First[" + std::to_string(i) + "]"));
  }
}

SubTask<bool> CasRegistrationSignal::poll(ProcCtx& ctx) {
  const ProcId me = ctx.id();
  const Word done = co_await ctx.read(first_done_[me]);
  if (done == 0) {
    // First call: push ourselves onto the registration stack, then check S
    // (after-push check closes the race with a concurrent sweep, as in the
    // other registration-style variants).
    for (;;) {
      const Word h = co_await ctx.read(head_);
      co_await ctx.write(next_[me], h);
      const Word old = co_await ctx.cas(head_, h, me);
      if (old == h) break;
    }
    co_await ctx.write(first_done_[me], 1);
    const Word s = co_await ctx.read(s_);
    co_return s != 0;
  }
  const Word v = co_await ctx.read(v_[me]);
  co_return v != 0;
}

SubTask<void> CasRegistrationSignal::signal(ProcCtx& ctx) {
  co_await ctx.write(s_, 1);
  Word node = co_await ctx.read(head_);
  while (node != kNil) {
    const ProcId w = static_cast<ProcId>(node);
    co_await ctx.write(v_[w], 1);
    node = co_await ctx.read(next_[w]);
  }
}

}  // namespace rmrsim
