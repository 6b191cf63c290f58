#include "sched/schedulers.h"

#include "common/check.h"

namespace rmrsim {

ProcId RoundRobinScheduler::next(Simulation& sim) {
  const int n = sim.nprocs();
  // Wrap by compare, not `%`: an integer division per candidate is the
  // single most expensive instruction in this loop, which runs once per
  // simulated step.
  ProcId candidate = static_cast<ProcId>(last_ + 1 >= n ? 0 : last_ + 1);
  for (int i = 0; i < n; ++i) {
    if (sim.ready(candidate)) {
      last_ = candidate;
      return candidate;
    }
    ++candidate;
    if (candidate >= n) candidate = 0;
  }
  return kNoProc;
}

ProcId RandomScheduler::next(Simulation& sim) {
  std::vector<ProcId> runnable;
  runnable.reserve(static_cast<std::size_t>(sim.nprocs()));
  for (ProcId p = 0; p < sim.nprocs(); ++p) {
    if (sim.ready(p)) runnable.push_back(p);
  }
  if (runnable.empty()) return kNoProc;
  return runnable[rng_.below(runnable.size())];
}

ProcId SoloScheduler::next(Simulation& sim) {
  return sim.ready(p_) ? p_ : kNoProc;
}

ProcId BoundedGapScheduler::next(Simulation& sim) {
  if (last_step_.empty()) {
    last_step_.assign(static_cast<std::size_t>(sim.nprocs()), sim.now());
  }
  // Anyone about to bust the gap bound must run first.
  std::vector<ProcId> ready;
  ProcId urgent = kNoProc;
  for (ProcId p = 0; p < sim.nprocs(); ++p) {
    if (!sim.ready(p)) continue;
    ready.push_back(p);
    const std::uint64_t gap =
        sim.now() - last_step_[static_cast<std::size_t>(p)];
    if (gap + 1 >= delta_ &&
        (urgent == kNoProc ||
         last_step_[static_cast<std::size_t>(p)] <
             last_step_[static_cast<std::size_t>(urgent)])) {
      urgent = p;
    }
  }
  if (ready.empty()) return kNoProc;
  const ProcId pick =
      urgent != kNoProc ? urgent : ready[rng_.below(ready.size())];
  last_step_[static_cast<std::size_t>(pick)] = sim.now();
  return pick;
}

DriveOutcome fair_drive(Simulation& sim, std::uint64_t max_steps) {
  RoundRobinScheduler rr;
  if (sim.run(rr, max_steps).all_terminated) {
    return DriveOutcome::kAllTerminated;
  }
  // Short of its budget, run() stops only when nobody is runnable: every
  // process left is crashed.
  for (ProcId p = 0; p < sim.nprocs(); ++p) {
    if (sim.runnable(p)) return DriveOutcome::kBudget;
  }
  return DriveOutcome::kWedged;
}

ProcId ScriptedScheduler::next(Simulation& sim) {
  if (pos_ >= script_.size()) return kNoProc;
  const ProcId p = script_[pos_++];
  if (p == kNoProc) return kNoProc;  // recorded clock tick: let run() re-tick
  ensure(sim.runnable(p),
         "scripted schedule names a terminated or crashed process (a crashy "
         "schedule replays only together with its fault trace — see "
         "FaultPlan::scripted)");
  return p;
}

ProcId AllButScheduler::next(Simulation& sim) {
  const int n = sim.nprocs();
  for (int i = 1; i <= n; ++i) {
    const ProcId c = static_cast<ProcId>((last_ + i) % n);
    if (c != excluded_ && sim.ready(c)) {
      last_ = c;
      return c;
    }
  }
  return kNoProc;
}

}  // namespace rmrsim
