// Section 7, "Many waiters, fixed in advance".
//
// The signaler knows the waiter set W up front. V[i] is local to p_i;
// Poll() by p_i reads and returns V[i] (always a local spin in DSM), and
// Signal() writes every fixed waiter's V entry.
//
// Two flavors, matching the paper's discussion:
//
//  * DsmFixedWaitersSignal — wait-free. O(|W|) worst-case RMRs for the
//    signaler; amortized complexity exceeds O(1) in histories where the
//    signaler pays |W| RMRs but only o(|W|) waiters have participated (the
//    regime the paper notes makes O(1) amortized impossible for wait-free
//    solutions when |W| is large).
//
//  * DsmFixedWaitersTerminating — terminating, O(1) amortized in all
//    histories: before writing V[i], the signaler busy-waits (locally!) on a
//    participation flag that waiter i raises on its first Poll(). The flags
//    live in the *signaler's* module so the spin is local; the paper leaves
//    the flag placement implicit, so this variant fixes the signaler's id in
//    advance (the natural reading — the signaler must know where its flags
//    are).
#pragma once

#include <vector>

#include "memory/shared_memory.h"
#include "signaling/algorithm.h"

namespace rmrsim {

class DsmFixedWaitersSignal final : public SignalingAlgorithm {
 public:
  DsmFixedWaitersSignal(SharedMemory& mem, std::vector<ProcId> waiters);

  SubTask<bool> poll(ProcCtx& ctx) override;
  SubTask<void> signal(ProcCtx& ctx) override;

  std::string_view name() const override { return "dsm-fixed-waiters"; }

  const std::vector<ProcId>& waiters() const { return waiters_; }

 private:
  std::vector<ProcId> waiters_;
  std::vector<VarId> v_;  // V[i] local to p_i, allocated for all procs
};

class DsmFixedWaitersTerminating final : public SignalingAlgorithm {
 public:
  DsmFixedWaitersTerminating(SharedMemory& mem, std::vector<ProcId> waiters,
                             ProcId signaler);

  SubTask<bool> poll(ProcCtx& ctx) override;
  SubTask<void> signal(ProcCtx& ctx) override;

  std::string_view name() const override {
    return "dsm-fixed-waiters-terminating";
  }

 private:
  std::vector<ProcId> waiters_;
  ProcId signaler_;
  std::vector<VarId> v_;          // V[i] local to p_i
  std::vector<VarId> present_;    // present_[i] local to the signaler
  std::vector<VarId> announced_;  // announced_[i] local to p_i
};

}  // namespace rmrsim
