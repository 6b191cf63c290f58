#include "signaling/workload.h"

#include <algorithm>

#include "common/check.h"
#include "sched/schedulers.h"

namespace rmrsim {

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

  std::vector<Program> programs;
  for (int i = 0; i < options.n_waiters; ++i) {
    if (options.blocking) {
      programs.emplace_back(
          [alg](ProcCtx& ctx) { return blocking_waiter(ctx, alg); });
    } else {
      const int max_polls = options.max_polls_per_waiter;
      programs.emplace_back([alg, max_polls](ProcCtx& ctx) {
        return polling_waiter(ctx, alg, max_polls);
      });
    }
  }
  const int idle = options.signaler_idle_polls;
  programs.emplace_back(
      [alg, idle](ProcCtx& ctx) { return signaler(ctx, alg, idle); });

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
