// An LL/SC-based signaling algorithm — Corollary 6.14's other primitive.
//
// Identical structure to the CAS registration stack, but the head is
// manipulated with Load-Linked/Store-Conditional: a waiter's first Poll()
// LL's the head, links its (own-module) next pointer, and SC's itself in,
// retrying on reservation loss. Corollary 6.14 covers exactly this
// primitive set (reads, writes, and LL/SC): the direct Section 6
// construction detects the LL/SC operations and reports the algorithm out
// of scope, while the transformation argument (see
// primitives/rw_cas_registration.h) applies unchanged.
#pragma once

#include <vector>

#include "memory/shared_memory.h"
#include "signaling/algorithm.h"

namespace rmrsim {

class LlscRegistrationSignal final : public SignalingAlgorithm {
 public:
  explicit LlscRegistrationSignal(SharedMemory& mem);

  SubTask<bool> poll(ProcCtx& ctx) override;
  SubTask<void> signal(ProcCtx& ctx) override;

  std::string_view name() const override { return "llsc-registration"; }

 private:
  static constexpr Word kNil = -1;
  VarId s_;                       // global: signal issued?
  VarId head_;                    // global: top of registration stack (LL/SC)
  std::vector<VarId> next_;       // next_[i] local to p_i
  std::vector<VarId> v_;          // V[i] local to p_i
  std::vector<VarId> first_done_; // first_done_[i] local to p_i
};

}  // namespace rmrsim
