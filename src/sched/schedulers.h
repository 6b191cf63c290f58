// Schedulers: who steps next.
//
// Section 2: "Process steps can be scheduled arbitrarily, and there is no
// bound on the number of steps that can be interleaved between two steps of
// the same process." Round-robin gives the fair histories the terminating
// progress property quantifies over; the seeded random scheduler drives
// property tests across many interleavings; Solo and Scripted are the
// adversary's tools (solo runs and exact replays).
#pragma once

#include <vector>

#include "common/rng.h"
#include "runtime/simulation.h"

namespace rmrsim {

/// Fair: cycles over non-terminated processes in id order.
class RoundRobinScheduler final : public Scheduler {
 public:
  ProcId next(Simulation& sim) override;

 private:
  ProcId last_ = -1;
};

/// Picks a uniformly random runnable process; fair with probability 1.
class RandomScheduler final : public Scheduler {
 public:
  explicit RandomScheduler(std::uint64_t seed) : rng_(seed) {}
  ProcId next(Simulation& sim) override;

 private:
  SplitMix64 rng_;
};

/// Steps a single process until it terminates.
class SoloScheduler final : public Scheduler {
 public:
  explicit SoloScheduler(ProcId p) : p_(p) {}
  ProcId next(Simulation& sim) override;

 private:
  ProcId p_;
};

/// The semi-synchronous Delta-scheduler (Section 3's timing-based systems):
/// adversarially random, but guarantees that no *ready* process goes more
/// than `delta` time units without a step — "consecutive steps by the same
/// process occur at most Delta time units apart". Timing-based algorithms
/// (Fischer's lock) are correct exactly under schedulers of this class;
/// under an unconstrained scheduler their delay-based reasoning collapses
/// (see timing_test.cc).
class BoundedGapScheduler final : public Scheduler {
 public:
  BoundedGapScheduler(std::uint64_t seed, std::uint64_t delta)
      : rng_(seed), delta_(delta) {}
  ProcId next(Simulation& sim) override;

 private:
  SplitMix64 rng_;
  std::uint64_t delta_;
  std::vector<std::uint64_t> last_step_;  // per-proc time of last step
};

/// Replays an exact schedule (e.g. one recorded by Simulation::schedule()).
/// Stops when the script is exhausted. Scheduling a terminated or crashed
/// process is an error — replays of erased histories must stay exact, so a
/// mismatch means the erasure was unsound, and replaying a schedule that
/// contained crashes without also replaying its fault trace (see
/// FaultPlan::scripted) must fail loudly rather than silently diverge.
class ScriptedScheduler final : public Scheduler {
 public:
  explicit ScriptedScheduler(std::vector<ProcId> script)
      : script_(std::move(script)) {}
  ProcId next(Simulation& sim) override;
  bool exhausted() const { return pos_ >= script_.size(); }

 private:
  std::vector<ProcId> script_;
  std::size_t pos_ = 0;
};

/// How a fair_drive() run ended. kWedged and kBudget are distinct progress
/// failures: a wedged run can never move again no matter the budget (every
/// non-terminated process is crashed), while a budget-exhausted run still had
/// runnable processes — spinners, or sleepers inside delay() — when the
/// driver gave up. Crash sweeps report the two separately (CrashSweepResult).
enum class DriveOutcome {
  kAllTerminated,  ///< every process ran to completion
  kWedged,         ///< no process can ever step again
  kBudget,         ///< the step budget ran out with runnable processes left
};

/// Drives the simulation fair: Simulation::run under a fresh
/// RoundRobinScheduler (round-robin over ready processes from process 0,
/// ticking the clock when only sleepers remain) for at most `max_steps`
/// steps and ticks, then classifies how the run ended. The fair-history
/// workhorse of the crash sweeps; callers that replay exact prefixes keep
/// driving the same Simulation.
DriveOutcome fair_drive(Simulation& sim, std::uint64_t max_steps);

/// Fair among all processes except one: the classic crash-stop model ("the
/// victim is parked and never scheduled again") expressed as a scheduler.
/// Promoted from the failure tests; contrast with Simulation::crash, which
/// destroys the victim's call mid-flight instead of merely starving it.
class AllButScheduler final : public Scheduler {
 public:
  explicit AllButScheduler(ProcId excluded) : excluded_(excluded) {}
  ProcId next(Simulation& sim) override;

 private:
  ProcId excluded_;
  ProcId last_ = -1;
};

}  // namespace rmrsim
