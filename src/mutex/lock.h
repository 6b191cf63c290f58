// Mutual exclusion — the paper's reference problem (Sections 1, 3).
//
// ME is where RMR complexity was born, and its known bounds are the sanity
// anchor for our simulator (experiment E5): with reads and writes the tight
// bound is Theta(log N) RMRs per passage in *both* models (no separation),
// while Fetch-And-Store / Fetch-And-Increment give O(1). Locks implemented
// here: the Yang–Anderson tournament (reads/writes, local-spin, Theta(log
// N)), MCS (FAS+CAS, O(1)), Anderson's array lock (FAI; O(1) in CC but not
// local-spin in DSM), the ticket lock, and a plain TAS spinlock (O(1) under
// LFCU only — experiment E8).
#pragma once

#include <optional>
#include <string>

#include "history/history.h"
#include "runtime/coro.h"
#include "runtime/proc_ctx.h"
#include "runtime/simulation.h"

namespace rmrsim {

class MutexAlgorithm {
 public:
  virtual ~MutexAlgorithm() = default;

  /// Acquires the lock; returns with the caller holding it.
  virtual SubTask<void> acquire(ProcCtx& ctx) = 0;

  /// Releases the lock; caller must hold it.
  virtual SubTask<void> release(ProcCtx& ctx) = 0;

  virtual std::string_view name() const = 0;
};

/// A mutex that survives the RME failure model (Golab–Ramaraju): after a
/// crash anywhere in acquire/critical-section/release, running `recover`
/// (from the top of the restarted program) repairs the lock's shared state —
/// releasing an orphaned hold if the crash struck while the caller owned the
/// lock — after which acquire works normally again. `recover` must be
/// idempotent: it also runs on a fresh, crash-free start.
class RecoverableMutexAlgorithm : public MutexAlgorithm {
 public:
  /// Crash-recovery section. Runs before any acquire on (re)start.
  virtual SubTask<void> recover(ProcCtx& ctx) = 0;
};

/// Canned worker: `passages` iterations of acquire -> critical section ->
/// release, with call boundaries recorded (calls::kAcquire / kCritical /
/// kRelease) so the checker below and the RMR-per-passage benches work off
/// the history.
ProcTask mutex_worker(ProcCtx& ctx, MutexAlgorithm* lock, int passages);

/// Crash-restartable worker for FaultScheduler runs. Because a recovered
/// program re-runs from the top with all locals lost, progress lives in
/// shared memory: the worker loops until its own counter `done_var` (one
/// variable per process, pre-allocated by the driver) reaches `passages`,
/// incrementing it with FAA inside the critical section. On every (re)start
/// it first runs the lock's recovery section under a calls::kRecover span —
/// so a crash inside that span is a *failed recovery*, countable from the
/// history.
ProcTask recoverable_mutex_worker(ProcCtx& ctx, RecoverableMutexAlgorithm* lock,
                                  VarId done_var, int passages);

struct MutexViolation {
  std::int64_t step_index = -1;
  ProcId first = kNoProc;
  ProcId second = kNoProc;
  std::string what;
};

/// Mutual exclusion safety: no two processes' critical sections
/// (kCritical call spans) overlap in the history. Crash-aware: a crash
/// closes the victim's open critical section (its passage ends with the
/// crash — the RME convention), so mutual exclusion remains checkable on
/// crashy histories and MUST still hold; fairness properties need not (see
/// analyze_crash_run, which reports FIFO inversions instead of asserting).
std::optional<MutexViolation> check_mutual_exclusion(const History& h);

/// Completed passages (kCritical call ends) by process p.
int passages_completed(const History& h, ProcId p);

/// What a crashy run gave up, extracted from the history. FIFO/fairness is
/// a measurement, not a verdict: crashes legitimately reorder waiters — a
/// recovered process re-enters the queue from scratch. (Mutual exclusion,
/// which must survive crashes, is check_mutual_exclusion's; the crash and
/// recovery counts are History::crash_events / recovery_events.)
struct CrashRunReport {
  /// Crashes that struck while the victim's calls::kRecover span was open:
  /// the recovery itself was cut down and had to be re-run.
  int failed_recoveries = 0;
  /// Critical-section entries that overtook a process which had started
  /// acquiring earlier and was still waiting.
  int fifo_inversions = 0;
};

CrashRunReport analyze_crash_run(const History& h);

}  // namespace rmrsim
