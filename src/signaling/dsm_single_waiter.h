// Section 7, "Single waiter": O(1) worst-case RMRs per process in DSM.
//
// Globals W (waiter id, NIL initially) and S (Boolean), plus V[1..N] with
// V[i] local to p_i. The (unique, not fixed in advance) waiter's first
// Poll() writes its id to W and then reads and returns S; subsequent Poll()s
// read V[i] — a spin on the waiter's own module. Signal() sets S, reads W,
// and if a waiter has registered writes true to its V entry. Wait-free.
//
// The "have I registered yet" bit persists across Poll() calls; per the
// replay contract (signaling/algorithm.h) it lives in a variable homed at
// the waiter (reading/writing one's own module is free in DSM).
#pragma once

#include <vector>

#include "memory/shared_memory.h"
#include "signaling/algorithm.h"

namespace rmrsim {

class DsmSingleWaiterSignal final : public SignalingAlgorithm {
 public:
  explicit DsmSingleWaiterSignal(SharedMemory& mem);

  SubTask<bool> poll(ProcCtx& ctx) override;
  SubTask<void> signal(ProcCtx& ctx) override;

  std::string_view name() const override { return "dsm-single-waiter"; }

 private:
  static constexpr Word kNil = -1;
  VarId w_;                       // global: registered waiter id or NIL
  VarId s_;                       // global: signal issued?
  std::vector<VarId> v_;          // V[i] local to p_i: private spin flag
  std::vector<VarId> registered_; // registered_[i] local to p_i
};

}  // namespace rmrsim
