#include "signaling/cc_flag.h"

namespace rmrsim {

CcFlagSignal::CcFlagSignal(SharedMemory& mem, ProcId home)
    : b_(mem.allocate(0, home, "B")) {}

SubTask<bool> CcFlagSignal::poll(ProcCtx& ctx) {
  const Word b = co_await ctx.read(b_);
  co_return b != 0;
}

SubTask<void> CcFlagSignal::signal(ProcCtx& ctx) {
  co_await ctx.write(b_, 1);
}

SubTask<void> CcFlagSignal::wait(ProcCtx& ctx) {
  for (;;) {
    const Word b = co_await ctx.read(b_);
    if (b != 0) co_return;
  }
}

}  // namespace rmrsim
