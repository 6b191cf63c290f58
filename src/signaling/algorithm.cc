#include "signaling/algorithm.h"

#include "common/check.h"

namespace rmrsim {

SubTask<void> SignalingAlgorithm::wait(ProcCtx& ctx) {
  // Blocking-from-polling reduction (Section 7 intro): busy-wait by calling
  // the Poll() code repeatedly. Under any fair schedule this returns once
  // Signal() has taken effect.
  for (;;) {
    const bool issued = co_await poll(ctx);
    if (issued) co_return;
  }
}

ProcTask signaling_driver(ProcCtx& ctx, SignalingAlgorithm* alg) {
  for (;;) {
    const Directive d = co_await ctx.next_directive();
    switch (d.action) {
      case signaling_actions::kTerminate:
        co_return;
      case signaling_actions::kPoll: {
        co_await ctx.call_begin(calls::kPoll);
        const bool r = co_await alg->poll(ctx);
        co_await ctx.call_end(calls::kPoll, r ? 1 : 0);
        break;
      }
      case signaling_actions::kSignal: {
        co_await ctx.call_begin(calls::kSignal);
        co_await alg->signal(ctx);
        co_await ctx.call_end(calls::kSignal);
        break;
      }
      case signaling_actions::kWait: {
        co_await ctx.call_begin(calls::kWait);
        co_await alg->wait(ctx);
        co_await ctx.call_end(calls::kWait);
        break;
      }
      default:
        fail("unknown signaling directive");
    }
  }
}

ProcTask polling_waiter(ProcCtx& ctx, SignalingAlgorithm* alg, int max_polls) {
  for (int i = 0; i < max_polls; ++i) {
    co_await ctx.call_begin(calls::kPoll);
    const bool r = co_await alg->poll(ctx);
    co_await ctx.call_end(calls::kPoll, r ? 1 : 0);
    if (r) co_return;
  }
}

ProcTask blocking_waiter(ProcCtx& ctx, SignalingAlgorithm* alg) {
  co_await ctx.call_begin(calls::kWait);
  co_await alg->wait(ctx);
  co_await ctx.call_end(calls::kWait);
}

ProcTask signaler(ProcCtx& ctx, SignalingAlgorithm* alg, int idle_polls,
                  bool* signaled) {
  for (int i = 0; i < idle_polls; ++i) {
    co_await ctx.call_begin(calls::kPoll);
    const bool r = co_await alg->poll(ctx);
    co_await ctx.call_end(calls::kPoll, r ? 1 : 0);
  }
  co_await ctx.call_begin(calls::kSignal);
  co_await alg->signal(ctx);
  co_await ctx.call_end(calls::kSignal);
  if (signaled != nullptr) *signaled = true;
}

}  // namespace rmrsim
