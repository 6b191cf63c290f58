#include "signaling/workload.h"

#include <algorithm>
#include <memory>

#include "common/check.h"
#include "sched/schedulers.h"

namespace rmrsim {

namespace {

/// polling_waiter, except that it also stops after a Poll() that began once
/// the signaler's Signal() had ended and still returned false. That Poll
/// already violates clause 2 of Specification 4.1, so polling on would only
/// lengthen a run whose verdict is settled. A correct algorithm returns true
/// to such a Poll, so on one this is polling_waiter step for step.
ProcTask waiter_until_convicted(ProcCtx& ctx, SignalingAlgorithm* alg,
                                int max_polls, const bool* signaled) {
  for (int i = 0; i < max_polls; ++i) {
    const bool after_signal = *signaled;
    co_await ctx.call_begin(calls::kPoll);
    const bool r = co_await alg->poll(ctx);
    co_await ctx.call_end(calls::kPoll, r ? 1 : 0);
    if (r || after_signal) co_return;
  }
}

}  // namespace

std::uint64_t SignalingRun::signaler_rmrs() const {
  return mem->ledger().rmrs(n_waiters);
}

std::uint64_t SignalingRun::max_waiter_rmrs() const {
  std::uint64_t best = 0;
  for (ProcId p = 0; p < n_waiters; ++p) {
    best = std::max(best, mem->ledger().rmrs(p));
  }
  return best;
}

double SignalingRun::amortized_rmrs() const {
  const auto participants = sim->history().participants().size();
  if (participants == 0) return 0.0;
  return static_cast<double>(mem->ledger().total_rmrs()) /
         static_cast<double>(participants);
}

SignalingRun run_signaling_workload(std::unique_ptr<SharedMemory> mem,
                                    const SignalingFactory& factory,
                                    const SignalingWorkloadOptions& options) {
  SignalingRun r;
  r.n_waiters = options.n_waiters;
  r.mem = std::move(mem);
  ensure(r.mem->nprocs() >= options.n_waiters + 1,
         "memory must have room for the waiters plus one signaler");
  if (options.listener != nullptr) r.mem->set_listener(options.listener);
  r.alg = factory(*r.mem);
  SignalingAlgorithm* alg = r.alg.get();

  // Host-side: set when the signaler's Signal() call ends.
  const auto signaled = std::make_shared<bool>(false);
  std::vector<Program> programs;
  for (int i = 0; i < options.n_waiters; ++i) {
    if (options.blocking) {
      programs.emplace_back(
          [alg](ProcCtx& ctx) { return blocking_waiter(ctx, alg); });
    } else {
      const int max_polls = options.max_polls_per_waiter;
      programs.emplace_back([alg, max_polls, signaled](ProcCtx& ctx) {
        return waiter_until_convicted(ctx, alg, max_polls, signaled.get());
      });
    }
  }
  const int idle = options.signaler_idle_polls;
  programs.emplace_back([alg, idle, signaled](ProcCtx& ctx) {
    return signaler(ctx, alg, idle, signaled.get());
  });

  r.sim = std::make_unique<Simulation>(*r.mem, std::move(programs));
  r.sim->set_history_mode(options.history_mode);
  Simulation::RunResult result{};
  if (options.scheduler_seed == 0) {
    RoundRobinScheduler sched;
    result = r.sim->run(sched, options.step_budget);
  } else {
    RandomScheduler sched(options.scheduler_seed);
    result = r.sim->run(sched, options.step_budget);
  }
  ensure(result.all_terminated, "signaling workload did not complete");
  if (options.listener != nullptr) options.listener->flush();
  return r;
}

}  // namespace rmrsim
