// Canned signaling workloads shared by benches, examples, and tests.
//
// The standard scenario throughout the paper: n waiters repeatedly Poll()
// (or Wait()) while one signaler eventually calls Signal(). This helper
// wires the drivers, runs the schedule to completion, and returns the live
// pieces for measurement.
#pragma once

#include <functional>
#include <memory>

#include "history/history.h"
#include "memory/shared_memory.h"
#include "signaling/algorithm.h"

namespace rmrsim {

using SignalingFactory =
    std::function<std::unique_ptr<SignalingAlgorithm>(SharedMemory&)>;

struct SignalingRun {
  std::unique_ptr<SharedMemory> mem;
  std::unique_ptr<SignalingAlgorithm> alg;
  std::unique_ptr<Simulation> sim;

  /// RMRs of the signaler process (id = n_waiters).
  std::uint64_t signaler_rmrs() const;
  /// Maximum RMRs over the waiter processes (ids 0..n_waiters-1).
  std::uint64_t max_waiter_rmrs() const;
  /// total RMRs / participating processes.
  double amortized_rmrs() const;

  int n_waiters = 0;
};

struct SignalingWorkloadOptions {
  int n_waiters = 8;
  /// Poll() calls the signaler makes before Signal() — models the delay
  /// during which waiters spin (drives the "unbounded RMR" contrast).
  int signaler_idle_polls = 0;
  int max_polls_per_waiter = 1'000'000;
  bool blocking = false;  ///< waiters call Wait() instead of polling
  std::uint64_t scheduler_seed = 0;  ///< 0 = round-robin, else seeded random
  std::uint64_t step_budget = 100'000'000;
  /// kCountersOnly drops per-step records (see history/history.h): the RMR
  /// ledger and aggregate counters survive, record-backed relations do not.
  /// Benches opt in; measurement paths that read records keep the default.
  HistoryMode history_mode = HistoryMode::kFull;
  /// Attached to the memory for the whole run (coherence-protocol pricing);
  /// flushed after completion. Must outlive the call. nullptr = none.
  CoherenceListener* listener = nullptr;
};

/// Runs waiters (procs 0..n-1) plus one signaler (proc n) to completion
/// under a fair schedule. Throws if the run does not complete in budget.
/// A polling waiter stops at its first true Poll(), after
/// `max_polls_per_waiter` polls, or after a Poll() that began once Signal()
/// had ended returns false — the run already violates the specification.
SignalingRun run_signaling_workload(std::unique_ptr<SharedMemory> mem,
                                    const SignalingFactory& factory,
                                    const SignalingWorkloadOptions& options);

}  // namespace rmrsim
