// Section 5 upper bound: the single-Boolean CC solution.
//
// One shared Boolean B (false initially). Signal(): B := true. Poll(): read
// and return B. Wait(): busy-wait until B = true. Wait-free, O(1) space,
// reads and writes only, and O(1) RMRs per process in the CC model: the
// paper's ideal-cache definition charges a waiter one RMR for its first read
// of B and one more after the single invalidation caused by the signaler's
// write — every further re-read spins in cache.
//
// Run under the DSM model, this same object is the textbook non-local-spin
// algorithm: a waiter whose module does not host B pays one RMR per Poll(),
// i.e. unbounded total RMRs — the contrast the paper opens with (Section 1)
// and Theorem 6.2 hardens into an impossibility.
#pragma once

#include "memory/shared_memory.h"
#include "signaling/algorithm.h"

namespace rmrsim {

class CcFlagSignal final : public SignalingAlgorithm {
 public:
  /// `home`: module hosting B — kNoProc (detached, remote to everyone in
  /// DSM) by default; tests also home it at a process to show that only that
  /// process spins locally.
  explicit CcFlagSignal(SharedMemory& mem, ProcId home = kNoProc);

  SubTask<bool> poll(ProcCtx& ctx) override;
  SubTask<void> signal(ProcCtx& ctx) override;
  /// Native blocking path: spin directly on B (same cost as the default
  /// reduction; kept explicit to mirror the paper's Section 5 text).
  SubTask<void> wait(ProcCtx& ctx) override;

  std::string_view name() const override { return "cc-flag"; }

  VarId flag_var() const { return b_; }

 private:
  VarId b_;
};

}  // namespace rmrsim
