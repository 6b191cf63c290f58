// Shared experiment drivers.
//
// One copy of the glue the CLI commands and the experiment registry would
// otherwise each re-implement: name → model/algorithm/lock construction,
// recoverable-aware mutex world wiring, the build/run loop for mutex
// workloads, the explore worlds and checkers of `rmrsim_cli explore`, and
// the publishers that say what a run measured. The CLI and the sweep
// experiments use the same factories and publishers, so a SweepPoint's
// strings mean what the CLI flags mean and a CLI metric row is the sweep
// point's metric of the same name; the model-checking tests build their
// worlds here too, so they check the world the CLI checks.
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
#include "verify/explorer.h"

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

/// True iff the signaling algorithm `name` implements Poll(): every one but
/// blocking-leader, which implements Wait() only and whose poll() throws.
/// A run that drives Poll() refuses, by name and up front, an algorithm for
/// which this is false.
bool signal_alg_polls(const std::string& name);

/// The algorithm names signal_alg_polls accepts, as "a|b|...".
const char* polling_signal_alg_names();

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
  /// Per-process done counters of a recoverable lock; empty otherwise.
  std::vector<VarId> done;
};

/// Memory + lock + wired simulation, not yet run — for callers that steer
/// the schedule by hand first (crash-in-CS positioning, targeted traces).
/// N workers over one lock: a recoverable lock gets the crash-restartable
/// worker (progress counters live in shared memory, allocated after
/// everything the lock allocated, so a recovered program resumes where its
/// done counter says), a plain lock the classic worker — which may wedge
/// under a fault plan, and that contrast is the point.
MutexWorld build_mutex_world(const MutexRunOptions& opt);

struct MutexRunOutcome {
  MutexWorld world;
  bool completed = false;
  std::optional<MutexViolation> violation;
  /// Summed over processes: the final done counters for a recoverable lock
  /// (a crash between a passage's done increment and its kCritical end
  /// leaves the passage counted but unrecorded), else the kCritical ends.
  int passages_done = 0;
  double rmrs_per_passage = 0;  ///< total RMRs / (nprocs * passages)
};

/// Builds a world, runs it under the scheduler/fault plan the options
/// select, and checks mutual exclusion.
MutexRunOutcome run_mutex_workload(const MutexRunOptions& opt);

/// Explore world for `rmrsim_cli explore --target signal`: `waiters`
/// polling waiters (processes 0..waiters-1, each making up to `polls`
/// polls) and one signaler (process `waiters`) over a fresh `model` memory.
/// The memory comes first, then the algorithm, so every VarId — and so
/// every explore result — is a function of the arguments alone. `model` is
/// validated here, before any worker calls the builder.
ExploreBuilder signaling_explore_builder(const std::string& model,
                                         SignalingFactory factory,
                                         int waiters, int polls);

/// Explore world for `rmrsim_cli explore --target mutex`: build_mutex_world
/// of `nprocs` workers making `passages` passages each — memory, then lock,
/// then (for a recoverable lock) the done counters. `model` is validated
/// here.
ExploreBuilder mutex_explore_builder(const std::string& model,
                                     LockFactory factory, int nprocs,
                                     int passages);

/// The polling form of Specification 4.1; a violation's description is the
/// explorer's verdict message.
ExploreChecker polling_spec_checker();

/// Mutual exclusion (check_mutual_exclusion); crash-aware, so it also
/// serves the crash sweeps of recoverable locks.
ExploreChecker mutual_exclusion_checker();

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
