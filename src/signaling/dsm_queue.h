// Section 7, "Many waiters not fixed in advance, one signaler not fixed in
// advance" — the stronger-primitive escape hatch.
//
// With polling semantics, reads/writes/CAS/LL-SC cannot give O(1) amortized
// RMRs in DSM (Theorem 6.2 / Corollary 6.14). The paper closes the gap with
// Fetch-And-Increment: waiters enqueue themselves on a shared queue; the
// signaler sets a global flag, drains the queue, and delivers each waiter's
// private flag.
//
// Our queue is the classic F&I announcement array: a waiter's first Poll()
// claims slot = FAI(Tail) and writes its id into A[slot]; the signaler reads
// Tail and sweeps A[0..tail). If it observes a claimed-but-not-yet-written
// slot it busy-waits for the announcement (terminating, not wait-free; the
// claimant is one write away). Costs: O(1) worst-case RMRs per waiter, O(k)
// for the signaler with k participating waiters — O(1) amortized, matching
// the paper's claimed bounds for this variant.
#pragma once

#include <vector>

#include "memory/shared_memory.h"
#include "signaling/algorithm.h"

namespace rmrsim {

class DsmQueueSignal final : public SignalingAlgorithm {
 public:
  explicit DsmQueueSignal(SharedMemory& mem);

  SubTask<bool> poll(ProcCtx& ctx) override;
  SubTask<void> signal(ProcCtx& ctx) override;

  std::string_view name() const override { return "dsm-queue-fai"; }

 private:
  static constexpr Word kEmpty = -1;
  VarId s_;                       // global: signal issued?
  VarId tail_;                    // global: next free announcement slot (FAI)
  std::vector<VarId> slots_;      // announcement array, detached module
  std::vector<VarId> v_;          // V[i] local to p_i
  std::vector<VarId> first_done_; // first_done_[i] local to p_i
};

}  // namespace rmrsim
