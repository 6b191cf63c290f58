// Section 7, "Many waiters not fixed in advance, one signaler fixed in
// advance".
//
// Waiters register on their first Poll() by raising a dedicated flag in the
// signaler's local memory, then check the global flag S (closing the race
// with a concurrent Signal()); subsequent Poll()s read the waiter's private
// V entry — a local spin. Signal() writes S first, then sweeps its *local*
// registration array and remotely delivers V[i] to each registered waiter.
//
// Costs in DSM: every waiter O(1) RMRs worst-case; the signaler performs one
// RMR per registered waiter (k RMRs for k waiters), so the *amortized* RMR
// complexity over the k+1 participants is O(1) — the positive counterpart
// the paper contrasts with the Section 6 lower bound, which kicks in only
// once the signaler, too, is unknown in advance.
#pragma once

#include <vector>

#include "memory/shared_memory.h"
#include "signaling/algorithm.h"

namespace rmrsim {

class DsmRegistrationSignal final : public SignalingAlgorithm {
 public:
  DsmRegistrationSignal(SharedMemory& mem, ProcId signaler);

  SubTask<bool> poll(ProcCtx& ctx) override;
  SubTask<void> signal(ProcCtx& ctx) override;

  std::string_view name() const override { return "dsm-registration"; }

  ProcId fixed_signaler() const { return signaler_; }

 private:
  ProcId signaler_;
  VarId s_;                       // global: signal issued?
  std::vector<VarId> reg_;        // reg_[i] local to the signaler
  std::vector<VarId> v_;          // V[i] local to p_i
  std::vector<VarId> first_done_; // first_done_[i] local to p_i
};

}  // namespace rmrsim
