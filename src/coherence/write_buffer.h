// Write-buffer front end for the protocol fleet.
//
// Sits between the CoherenceEvent stream and a backing listener (usually a
// SnoopingCache) and models a per-processor store buffer: plain writes are
// held locally instead of hitting the coherence fabric immediately, a later
// read of a buffered variable by the same processor is satisfied by store
// forwarding (the backing protocol never sees it), and a repeat write to a
// buffered variable coalesces in place. Buffered entries drain — in FIFO
// order, preserving TSO per-processor store order — when (a) another
// processor touches a buffered variable (coherence makes the store visible
// first), (b) the buffer reaches capacity, (c) the processor executes an
// atomic primitive (CAS/LL/SC/FAA/FAS/TAS act as a full drain barrier, as
// on real hardware), (d) the processor crashes, or (e) flush() is called at
// end of run.
//
// The effect on the backing protocol's tallies is exactly the write
// buffer's architectural value: coalesced writes and forwarded reads never
// generate bus transactions, so message and cycle counts drop relative to
// the bare protocol on the same event stream.
//
// Caveat: buffering breaks the 1:1 ordered correspondence between memory
// history records and backing-protocol events, so per-call cycle
// attribution (trace/call_stats.h) must be fed the bare protocol, not this
// front end.
#pragma once

#include <cstdint>
#include <vector>

#include "memory/cost_model.h"

namespace rmrsim {

class WriteBuffer final : public CoherenceListener {
 public:
  /// `inner` must outlive the buffer. `capacity` is per-processor entries.
  WriteBuffer(CoherenceListener* inner, int nprocs, int capacity = 8);

  void on_event(const CoherenceEvent& e) override;
  void on_crash(ProcId p) override;
  void flush() override;

  void reset();

  /// Writes currently pending for `p`.
  int pending(ProcId p) const;

  std::uint64_t buffered_writes() const { return buffered_; }
  std::uint64_t coalesced_writes() const { return coalesced_; }
  std::uint64_t forwarded_reads() const { return forwarded_; }
  std::uint64_t drained_writes() const { return drained_; }

 private:
  void drain(ProcId p);
  /// Drains every processor other than `p` holding a buffered write to `v`.
  void drain_conflicting(ProcId p, VarId v);
  /// Index of p's buffered write to `v` in its FIFO; -1 if none.
  int find_pending(ProcId p, VarId v) const;
  /// v's holder set (mask_words_ words); nullptr if no write to v was ever
  /// buffered.
  const std::uint64_t* holder_set(VarId v) const;
  /// v's holder set, growing the table to cover v.
  std::uint64_t* holders(VarId v);
  /// Does `p` hold a buffered write to `v`?
  bool holds(ProcId p, VarId v) const;

  CoherenceListener* inner_;
  int nprocs_;
  int capacity_;
  int mask_words_;
  std::vector<std::vector<CoherenceEvent>> pending_;  // per-proc FIFO
  // Per-variable holder sets, index = VarId, grown lazily: bit q of v's
  // set is on iff q's FIFO holds a write to v (coalescing keeps at most
  // one), so the conflict and lookup paths skip processors holding nothing.
  std::vector<std::uint64_t> holders_;
  std::uint64_t buffered_ = 0;
  std::uint64_t coalesced_ = 0;
  std::uint64_t forwarded_ = 0;
  std::uint64_t drained_ = 0;
};

}  // namespace rmrsim
