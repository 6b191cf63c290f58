// Interconnect message accounting under different coherence protocols.
//
// Section 8 of the paper examines the "exchange rate" between RMRs and actual
// interconnect messages: on a broadcast bus one message serves any RMR (RMRs
// are "at par" with messages); an idealized directory sends one invalidation
// per cached copy actually destroyed (amortized messages track amortized
// RMRs, because a copy must be created by an RMR before it can be invalidated
// once); a realistic coarse directory keeps too little state and sends
// superfluous invalidations, so message complexity can exceed RMR complexity
// asymptotically. These counters consume CoherenceEvents published by
// SharedMemory and regenerate that analysis as experiment E4.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "memory/cost_model.h"

namespace rmrsim {

/// Common tallies every protocol counter exposes.
class MessageCounter : public CoherenceListener {
 public:
  /// Messages that carry data for the access itself (one per RMR).
  std::uint64_t transfer_messages() const { return transfers_; }

  /// Invalidation messages sent to other caches.
  std::uint64_t invalidation_messages() const { return invalidations_; }

  /// Update messages sent to other caches (write-update protocols only;
  /// invalidation-based counters report 0).
  virtual std::uint64_t update_messages() const { return 0; }

  /// Invalidation messages that destroyed a copy that actually existed.
  /// superfluous = invalidation_messages - useful.
  std::uint64_t useful_invalidations() const { return useful_; }

  std::uint64_t superfluous_invalidations() const {
    return invalidations_ - useful_;
  }

  std::uint64_t total_messages() const {
    return transfers_ + invalidations_ + update_messages();
  }

  virtual std::string_view name() const = 0;

  virtual void reset() {
    transfers_ = 0;
    invalidations_ = 0;
    useful_ = 0;
  }

 protected:
  std::uint64_t transfers_ = 0;
  std::uint64_t invalidations_ = 0;
  std::uint64_t useful_ = 0;
};

/// Shared snooping bus: every RMR is one broadcast transaction that both
/// transfers data and invalidates every stale copy. Messages == RMRs.
class BusBroadcastCounter final : public MessageCounter {
 public:
  void on_event(const CoherenceEvent& e) override;
  std::string_view name() const override { return "bus-broadcast"; }
};

/// Idealized directory: tracks the exact sharer set (≈N bits of state per
/// line, which Section 8 calls unrealistic), so a write sends exactly one
/// invalidation per remote copy that exists. No superfluous messages.
class IdealDirectoryCounter final : public MessageCounter {
 public:
  void on_event(const CoherenceEvent& e) override;
  std::string_view name() const override { return "ideal-directory"; }
};

/// Coarse directory: one sticky "maybe cached somewhere" bit per line. Any
/// fetch sets the bit; a write with the bit set must broadcast invalidations
/// to all other processors (it cannot tell who holds copies), then clears
/// the bit. Most of those invalidations can be superfluous — the Section 8
/// regime where message complexity exceeds RMR complexity.
class CoarseDirectoryCounter final : public MessageCounter {
 public:
  explicit CoarseDirectoryCounter(int nprocs) : nprocs_(nprocs) {}
  void on_event(const CoherenceEvent& e) override;
  std::string_view name() const override { return "coarse-directory"; }
  void reset() override {
    MessageCounter::reset();
    maybe_cached_.clear();
  }

 private:
  int nprocs_;
  std::vector<bool> maybe_cached_;  // index = VarId, grown lazily
};

}  // namespace rmrsim
