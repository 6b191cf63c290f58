// A CAS-based signaling algorithm — the Corollary 6.14 subject.
//
// Corollary 6.14 extends the DSM lower bound to algorithms that use CAS or
// LL/SC besides reads and writes. This algorithm is our concrete such
// subject: waiters push themselves onto a CAS-built registration stack
// (Treiber-style, with per-waiter "next" links homed at the waiter); the
// signaler sets the global flag and walks the stack delivering private
// flags.
//
// Costs in DSM: O(1) worst-case RMRs per waiter (one CAS retry loop step is
// O(1) RMRs; retries only occur under contention on first calls), O(k) for
// the signaler. Like every read/write/CAS solution, the adversary of
// Section 6 — via the transformation of Corollary 6.14 or directly — forces
// total RMRs above c*k (experiments E2/E6).
#pragma once

#include <vector>

#include "memory/shared_memory.h"
#include "signaling/algorithm.h"

namespace rmrsim {

class CasRegistrationSignal final : public SignalingAlgorithm {
 public:
  explicit CasRegistrationSignal(SharedMemory& mem);

  SubTask<bool> poll(ProcCtx& ctx) override;
  SubTask<void> signal(ProcCtx& ctx) override;

  std::string_view name() const override { return "cas-registration"; }

 private:
  static constexpr Word kNil = -1;
  VarId s_;                       // global: signal issued?
  VarId head_;                    // global: top of registration stack (CAS)
  std::vector<VarId> next_;       // next_[i] local to p_i: stack link
  std::vector<VarId> v_;          // V[i] local to p_i
  std::vector<VarId> first_done_; // first_done_[i] local to p_i
};

}  // namespace rmrsim
