// History: the recorded step sequence plus the analysis relations of
// Section 6 — participation, Fin/Act (Definition 6.3), `sees` (6.4),
// `touches` (6.5), and regularity (6.6).
//
// The lower-bound adversary consults these relations to decide which
// processes are invisible (erasable under Lemma 6.7) and to certify that each
// constructed history is regular. Tests use them to validate the proof's
// invariants (Definition 6.9) on real executions.
//
// Two recording modes (DESIGN.md, "Step-loop performance model"):
//  - kFull (default): every step is stored; all queries are available.
//  - kCountersOnly: per-step records are dropped and only aggregate counters
//    are kept (steps, per-proc mem-steps/RMRs/finished flags, crash and
//    recovery event counts, LL/SC usage). Opt-in for benches and exhaustive
//    exploration where only ledger-grade aggregates are consumed; the
//    record-backed relations (sees/touches/regularity/erasure support) throw.
// The counters are maintained in *both* modes and produce values identical to
// the record scans they replace, so switching the counter-backed queries over
// is invisible to results.
//
// Erasure support (Lemma 6.7) is answered from an index that is built from
// the records on the first erasure query and kept current by append() from
// then on; runs that never erase never build it. remove_proc() subtracts
// the erased process's counters and tombstones its records; the tombstones
// are compacted away (and the survivors renumbered) by the next read of the
// records, so a chase of many erasures pays for one compaction. Both are
// lazily materialized caches of the records: neither is part of the wire
// encoding, and a History is not safe to query from two threads while an
// erasure is pending or its index is unbuilt (DESIGN.md §9.2).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/codec.h"
#include "history/step_record.h"

namespace rmrsim {

enum class HistoryMode {
  kFull,          ///< record every step (default)
  kCountersOnly,  ///< aggregates only; per-step records are dropped
};

class History {
 public:
  /// Records one step and returns a reference to the recorded form (stable
  /// until the next append or the next read of the records after an
  /// erasure). In counters-only mode the record is folded into the counters
  /// and the returned reference points at an internal scratch slot instead
  /// of a stored record.
  const StepRecord& append(StepRecord record);

  /// Recording mode control. Switching modes is only allowed while empty —
  /// counters cannot be rehydrated into records.
  HistoryMode mode() const { return mode_; }
  void set_mode(HistoryMode mode);

  /// Stored records; requires kFull mode.
  const std::vector<StepRecord>& records() const;

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Pre-grows the record storage (no-op in counters-only mode). A restored
  /// world's history copy arrives with capacity == size, so without this its
  /// very first append pays a reallocation.
  void reserve(std::size_t n) { records_.reserve(n); }

  /// Par(H): processes that take at least one step.
  std::vector<ProcId> participants() const;
  bool participated(ProcId p) const;

  /// Fin(H): participants whose program terminated by the end of H.
  std::vector<ProcId> finished() const;
  bool is_finished(ProcId p) const;

  /// Act(H) = Par(H) \ Fin(H).
  std::vector<ProcId> active() const;

  /// Definition 6.4: p sees q iff p reads (any value-returning op) a variable
  /// last written by q. Self-sees (p == q) are reported too; callers filter.
  bool sees(ProcId p, ProcId q) const;

  /// True iff any process other than q sees q — Lemma 6.7's erasability
  /// test. O(1) from the erasure index.
  bool seen_by_other(ProcId q) const;

  /// Definition 6.5: p touches q iff p accesses a variable homed at q.
  bool touches(ProcId p, ProcId q) const;

  /// True iff any process other than q touches q.
  bool touched_by_other(ProcId q) const;

  /// Definition 6.6 regularity: (1) p sees q (p!=q) => q finished;
  /// (2) p touches q (p!=q) => q finished; (3) a variable written by more
  /// than one process has its last write by a finished process.
  bool is_regular() const;

  /// RMRs incurred by p across the recorded steps.
  std::uint64_t rmrs(ProcId p) const;
  std::uint64_t total_rmrs() const;

  /// Memory-op steps taken by p.
  std::uint64_t mem_steps(ProcId p) const;

  /// Crash / recovery events recorded so far (EventKind::kCrash / kRecover).
  std::uint64_t crash_events() const { return crash_events_; }
  std::uint64_t recovery_events() const { return recovery_events_; }

  /// Renders the history one step per line (diagnostics).
  std::string to_string() const;

  // ---- erasure support (Lemma 6.7) ----------------------------------
  //
  // Answered from the erasure index (built on the first of these calls).
  // The last writer of a variable is not asked here: the memory store keeps
  // it in O(1) (MemoryStore::last_writer).

  /// Drops every record of `p` and subtracts its counters, in O(records of
  /// p); the remaining records are renumbered by the next read of the
  /// records. Sound exactly when p was invisible (!seen_by_other(p));
  /// callers check. Requires kFull and a history without LL/SC.
  void remove_proc(ProcId p);

  /// Variables `p` overwrote at least once, in first-write order.
  std::vector<VarId> vars_written_by(ProcId p) const;

  /// Distinct processes that overwrote `v`, in first-write order.
  std::vector<ProcId> writers_of(VarId v) const;

  /// Value and writer of the last overwrite of `v` by a process other than
  /// `exclude`; nullopt if no such overwrite (the variable would hold its
  /// initial value without `exclude`).
  std::optional<std::pair<Word, ProcId>> last_write_excluding(
      VarId v, ProcId exclude) const;

  /// True iff any LL or SC operation appears — in-place erasure does not
  /// support reservation side effects and refuses such histories.
  bool uses_ll_sc() const;

  /// True iff any recorded overwrite targeted a variable homed at `p` —
  /// i.e., p's memory module was written. The Lemma 6.13 signaler is chosen
  /// with an unwritten module.
  bool module_written(ProcId p) const;

  // ---- wire serialization (runtime/snapshot_codec.h) --------------------

  /// Appends the whole history — mode, aggregate counters, and (kFull only)
  /// every stored record — in the shared little-endian codec. Canonical: a
  /// pure function of the recorded content.
  void encode(std::string& out) const;

  /// Appends only the aggregate counters (per-proc and totals), independent
  /// of mode. This is the history's contribution to the content fingerprint:
  /// full-mode records encode *how* a state was reached and are deliberately
  /// excluded there.
  void encode_counters(std::string& out) const;

  /// Overwrites this history with content written by encode(). Throws on
  /// malformed input.
  void decode(ByteReader& r);

 private:
  struct ProcCounters {
    std::uint64_t steps = 0;
    std::uint64_t mem_steps = 0;
    std::uint64_t rmrs = 0;
    bool finished = false;
  };

  /// One overwrite of a variable: who wrote it and the value it stored.
  struct Overwrite {
    ProcId writer = kNoProc;
    Word value = 0;
  };

  /// The erasure index: a cache of the records, never encoded.
  struct ErasureIndex {
    /// Per process: positions of its records in records_, ascending.
    std::vector<std::vector<std::uint32_t>> positions;
    /// Per variable: every overwrite of it, in record order.
    std::vector<std::vector<Overwrite>> overwrites;
    /// Per process: reads by other processes that returned its write.
    std::vector<std::uint64_t> seen_by;
    /// Records remove_proc() tombstoned (index < 0) for compact() to drop.
    std::size_t tombstones = 0;

    void add(const StepRecord& r, std::uint32_t position);
  };

  /// Owns the index, null until the first erasure query; copying a history
  /// clones it. One pointer, so that a history that never erases keeps its
  /// size: a snapshot's size, and so the snapshot cache's budget, counts
  /// sizeof(History).
  struct IndexSlot {
    std::unique_ptr<ErasureIndex> ptr;

    IndexSlot() = default;
    IndexSlot(const IndexSlot& o) { *this = o; }
    IndexSlot& operator=(const IndexSlot& o) {
      ptr = o.ptr ? std::make_unique<ErasureIndex>(*o.ptr) : nullptr;
      return *this;
    }
    IndexSlot(IndexSlot&&) noexcept = default;
    IndexSlot& operator=(IndexSlot&&) noexcept = default;
  };

  void require_full(const char* what) const;
  ProcCounters& counters_for(ProcId p);
  void fold_into_counters(const StepRecord& r);
  /// The erasure index, built from the records if it is not built yet.
  ErasureIndex& index() const;
  /// Drops the records remove_proc() tombstoned and renumbers the rest.
  void compact() const;

  HistoryMode mode_ = HistoryMode::kFull;
  bool saw_ll_sc_ = false;  // in mode_'s padding (see IndexSlot)
  // Empty in counters-only mode. Mutable for compact(): a const read of the
  // records first drops the tombstones remove_proc() left.
  mutable std::vector<StepRecord> records_;
  StepRecord scratch_;  // append()'s return slot when not storing

  // Aggregates, maintained in both modes (indexed by ProcId, grown lazily).
  std::vector<ProcCounters> per_proc_;
  std::size_t size_ = 0;
  std::uint64_t total_rmrs_ = 0;
  std::uint64_t crash_events_ = 0;
  std::uint64_t recovery_events_ = 0;
  mutable IndexSlot index_;
};

/// The value a nontrivial memory-op record stored into its variable.
Word written_value(const StepRecord& r);

}  // namespace rmrsim
