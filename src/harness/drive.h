// Shared experiment drivers.
//
// One copy of the glue the CLI commands and the experiment registry would
// otherwise each re-implement: name → model/algorithm/lock construction,
// recoverable-aware mutex program wiring, the build/run loop for mutex
// workloads, and the publishers that say what a run measured. The CLI and
// the sweep experiments use the same factories and publishers, so a
// SweepPoint's strings mean what the CLI flags mean and a CLI metric row is
// the sweep point's metric of the same name.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "memory/shared_memory.h"
#include "metrics/registry.h"
#include "mutex/lock.h"
#include "signaling/checker.h"
#include "signaling/workload.h"

namespace rmrsim {

/// Memory model by CLI name: dsm | cc | cc-wb | cc-mesi | cc-lfcu.
/// Throws std::logic_error on an unknown name (callers wanting exit codes
/// catch it).
std::unique_ptr<SharedMemory> make_model_by_name(const std::string& name,
                                                 int nprocs);

/// True iff `name` is a valid model name (cheap pre-validation for
/// builders that run on worker threads).
bool is_model_name(const std::string& name);

/// Signaling algorithm factory by CLI name: flag | single-waiter |
/// registration | queue | cas | llsc | rw-cas | blocking-leader | broken.
/// `fixed_home` is the process hosting the registration variant's fixed
/// signaler state. Throws std::logic_error on an unknown name.
SignalingFactory make_signal_factory_by_name(const std::string& name,
                                             int fixed_home);

/// Mutex lock by CLI name: mcs | ya | anderson | ticket | tas | clh |
/// bakery | peterson | recoverable. Throws std::logic_error on an unknown
/// name.
std::shared_ptr<MutexAlgorithm> make_lock_by_name(const std::string& name,
                                                  SharedMemory& mem);

using LockFactory =
    std::function<std::shared_ptr<MutexAlgorithm>(SharedMemory&)>;

/// Wraps a name into a factory (validated eagerly so errors surface before
/// worker threads start).
LockFactory lock_factory_by_name(const std::string& name);

/// N workers over one lock; recoverable locks get the crash-restartable
/// worker (progress counters live in shared memory so a recovered program
/// resumes where its done-counter says), plain locks the classic worker —
/// which may wedge under a fault plan, and that contrast is the point.
std::vector<Program> make_mutex_programs(
    SharedMemory& mem, const std::shared_ptr<MutexAlgorithm>& lock,
    int passages);

struct MutexRunOptions {
  std::string model = "dsm";
  int nprocs = 8;
  int passages = 3;
  LockFactory make_lock;  ///< required
  /// seed == 0 and gap_delta == 0: round-robin. seed != 0, gap_delta == 0:
  /// RandomScheduler(seed). gap_delta > 0: BoundedGapScheduler(seed,
  /// gap_delta).
  std::uint64_t seed = 0;
  std::uint64_t gap_delta = 0;
  std::string fault_plan;  ///< parse_fault_plan syntax; "" = crash-free
  std::uint64_t max_steps = 500'000'000;
  /// Attached to the world's memory for the whole run (coherence-protocol
  /// pricing); run_mutex_workload flushes it after the run. Must outlive
  /// the world. nullptr = none.
  CoherenceListener* listener = nullptr;
};

struct MutexWorld {
  std::unique_ptr<SharedMemory> mem;
  std::shared_ptr<MutexAlgorithm> lock;
  std::unique_ptr<Simulation> sim;
};

/// Memory + lock + wired simulation, not yet run — for callers that steer
/// the schedule by hand first (crash-in-CS positioning, targeted traces).
MutexWorld build_mutex_world(const MutexRunOptions& opt);

struct MutexRunOutcome {
  MutexWorld world;
  bool completed = false;
  std::optional<MutexViolation> violation;
  int passages_done = 0;        ///< summed over processes
  double rmrs_per_passage = 0;  ///< total RMRs / (nprocs * passages)
};

/// Builds a world, runs it under the scheduler/fault plan the options
/// select, and checks mutual exclusion.
MutexRunOutcome run_mutex_workload(const MutexRunOptions& opt);

/// What a signaling run measured: the simulation, its per-call costs,
/// rmrs.max_waiter / rmrs.signaler / rmrs.amortized, and spec.ok against
/// the polling (or, with `blocking`, the blocking) specification. Returns
/// the spec violation so a caller can print its reason.
std::optional<SpecViolation> publish_signaling_run(MetricsRegistry& reg,
                                                   const SignalingRun& run,
                                                   bool blocking);

/// What a mutex run measured: the simulation, its per-call costs,
/// rmrs.per_passage, run.completed, and spec.ok (mutual exclusion).
void publish_mutex_run(MetricsRegistry& reg, const MutexRunOutcome& o);

/// What a crash/recovery run measured: the simulation,
/// crash.fifo_inversions, crash.failed_recoveries, run.passages_done,
/// rmrs.per_exit (-1 when no passage completed), run.completed, spec.ok.
void publish_crash_run(MetricsRegistry& reg, const MutexRunOutcome& o);

}  // namespace rmrsim
