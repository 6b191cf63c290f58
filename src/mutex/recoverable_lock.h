// Recoverable spin lock — mutual exclusion under the RME failure model.
//
// Design rule: every lock-state transition is a single atomic step on one
// word (`owner`), so there is no crash window in which the shared state is
// half-updated. Contrast MCS: its release is a multi-step queue handoff
// (read next, CAS tail, write successor's flag), and a crash between those
// steps strands the queue forever — the CrashRecovery tests in
// failure_test demonstrate the resulting system-wide deadlock, in DSM and
// CC alike. Here every crash leaves `owner` either free, held by the
// victim (recovery CAS-releases it), or held by someone else (recovery is
// a no-op), so the recovery section repairs any crash point and is
// idempotent.
//
// What this lock gives up: waiters spin with CAS on the one global word, so
// a passage under contention is NOT O(1) RMRs in either model (each failed
// CAS is remote in DSM and invalidates under CC). That trade is fundamental
// territory — recoverable mutual exclusion has an Omega(log n / log log n)
// RMR lower bound (Chan–Woelfel 2017; see PAPERS.md) — and this lock makes
// no fairness promise either: a recovered process re-enters from scratch
// and can be overtaken (analyze_crash_run counts the inversions). The point
// it exists to make is progress: under crash schedules where MCS stops
// dead, every process still completes all of its passages.
#pragma once

#include <vector>

#include "memory/shared_memory.h"
#include "mutex/lock.h"

namespace rmrsim {

class RecoverableSpinLock final : public RecoverableMutexAlgorithm {
 public:
  explicit RecoverableSpinLock(SharedMemory& mem);

  SubTask<void> acquire(ProcCtx& ctx) override;
  SubTask<void> release(ProcCtx& ctx) override;
  SubTask<void> recover(ProcCtx& ctx) override;

  std::string_view name() const override { return "recoverable-spin"; }

 private:
  static constexpr Word kFree = -1;
  VarId owner_;                // global: kFree or the holder's id
  std::vector<VarId> want_;    // want_[p] homed at p: p is past its doorway
};

}  // namespace rmrsim
