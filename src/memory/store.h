// Shared-memory value store: variables, homes, and primitive semantics.
//
// The store is the architecture-neutral half of the memory system: it owns
// variable values, each variable's *home* memory module (the DSM partition of
// Section 2 / Figure 1), LL/SC reservations, and last-writer metadata. It
// applies primitive semantics but knows nothing about pricing; the CostModel
// (DSM or CC) classifies each access as local or RMR.
//
// Per-variable process sets (distinct writers, LL reservations) are stored as
// process bitmasks (common/bitmask.h) — `mask_words()` 64-bit words per
// variable in two flat arrays — so membership tests are O(1) and
// distinct_writers is a popcount, replacing the std::find scans the step loop
// used to pay per memory op (DESIGN.md, "Step-loop performance model").
// Grids drive the simulator well past 64 processes (E1 sweeps to N=1024),
// hence multi-word masks rather than a single uint64_t.
//
// Layout is structure-of-arrays: values, initials, homes, and last-writers
// live in parallel flat vectors of trivially copyable elements, and the
// diagnostic names sit behind a copy-on-write shared vector. Copying a store
// (world forking / snapshot capture in the explorer) is therefore a handful
// of bulk memcpys plus one refcount bump — no per-variable std::string
// traffic — and the hot apply() path touches only the value lane.
//
// The store is fully resettable: reset() restores every variable to its
// initial value and clears reservations, which is what makes the lower-bound
// adversary's erasure-by-replay exact (DESIGN.md Section 4, item 5).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/codec.h"
#include "common/types.h"
#include "memory/memop.h"

namespace rmrsim {

class MemoryStore {
 public:
  /// Creates a store for a system of `nprocs` processors (homes must be in
  /// [0, nprocs) or kNoProc).
  explicit MemoryStore(int nprocs);

  /// Allocates a fresh variable with the given initial value, living in the
  /// memory module of processor `home`, or in a detached module if kNoProc.
  /// `name` is used only in diagnostics and history dumps.
  VarId allocate(Word initial, ProcId home, std::string name = {});

  int nprocs() const { return nprocs_; }
  int num_vars() const { return static_cast<int>(values_.size()); }

  /// Home module of `v` (kNoProc for a detached module). Inline: DSM pricing
  /// calls this once per memory-op step.
  ProcId home(VarId v) const { return homes_[index(v)]; }

  /// Current value (checker/diagnostic access; not a process step and never
  /// charged an RMR).
  Word value(VarId v) const;

  /// Initial value `v` was allocated with.
  Word initial(VarId v) const;

  /// Last process that overwrote `v`, or kNoProc if never written (initial
  /// values are attributed to no process).
  ProcId last_writer(VarId v) const;

  /// Number of *distinct* processes that have written `v` so far. Needed for
  /// the regularity condition 3 of Definition 6.6.
  int distinct_writers(VarId v) const;

  const std::string& name(VarId v) const;

  /// Would applying `op` by `p` overwrite the variable (the paper's
  /// "nontrivial" operation)? Pure: does not mutate. Used by cost models to
  /// classify an op before it is applied.
  bool would_write(ProcId p, const MemOp& op) const;

  struct ApplyResult {
    Word result = 0;
    bool wrote = false;
    ProcId prev_writer = kNoProc;
  };

  /// Applies `op` on behalf of process `p` atomically: computes the result,
  /// updates the value, maintains LL/SC reservations (any overwrite of a
  /// variable invalidates every other process's reservation on it), and
  /// updates writer metadata.
  ApplyResult apply(ProcId p, const MemOp& op);

  /// Restores every variable to its initial value and clears reservations
  /// and writer metadata. Variable ids remain valid.
  void reset();

  /// Surgical state rewrite used by process erasure (Lemma 6.7): sets the
  /// value and last-writer of `v` directly, bypassing pricing and ledger.
  /// Not a process step.
  void poke(VarId v, Word value, ProcId last_writer);

  /// Removes `p` from `v`'s distinct-writer set (erasure bookkeeping).
  void forget_writer(VarId v, ProcId p);

  /// Drops every LL reservation held by `p`, on every variable. A crash
  /// destroys the processor's reservation state (the link register does not
  /// survive a failure), and an erased process never existed — both paths
  /// must call this or a recovered process's SC could succeed without a
  /// fresh LL.
  void clear_reservations(ProcId p);

  /// Does `p` currently hold a valid LL reservation on `v`? Checker and
  /// test access; not a process step.
  bool has_reservation(ProcId p, VarId v) const;

  // ---- wire serialization (runtime/snapshot_codec.h) --------------------

  /// Appends the store's content in the shared little-endian codec: the
  /// allocation layout (nprocs, per-variable initials and homes) plus the
  /// mutable lanes (values, last-writers, writer and LL-reservation masks).
  /// Diagnostic names are excluded — they are cosmetic, and the receiving
  /// side's identically-constructed store supplies them. The byte stream is
  /// canonical (a pure function of the content), so it doubles as the input
  /// to WorldSnapshot::fingerprint().
  void encode(std::string& out) const;

  /// Restores content written by encode() into this store, which must have
  /// the identical layout (same nprocs and allocation sequence — the
  /// receiver builds it by running the same builder). Throws on layout
  /// mismatch or malformed input.
  void decode(ByteReader& r);

 private:
  std::size_t index(VarId v) const {
    ensure(v >= 0 && v < num_vars(), "variable id out of range");
    return static_cast<std::size_t>(v);
  }

  // Bitmask plumbing: variable v's process set occupies words
  // [v * mask_words_, (v + 1) * mask_words_) of the flat array.
  std::uint64_t* writer_mask(VarId v);
  const std::uint64_t* writer_mask(VarId v) const;
  std::uint64_t* reservation_mask(VarId v);
  const std::uint64_t* reservation_mask(VarId v) const;
  bool any_reservation(VarId v) const;
  void clear_slot_reservations(VarId v);

  void note_write(VarId v, ProcId p);

  int nprocs_;
  int mask_words_;
  // SoA variable lanes, indexed by VarId (all the same length).
  std::vector<Word> values_;
  std::vector<Word> initials_;
  std::vector<ProcId> homes_;
  std::vector<ProcId> last_writers_;
  // Diagnostic names, copy-on-write: snapshots share the vector; allocate()
  // clones it first if anyone else still holds a reference.
  std::shared_ptr<std::vector<std::string>> names_;
  std::vector<std::uint64_t> writers_bits_;      // mask_words_ words per var
  std::vector<std::uint64_t> reservation_bits_;  // mask_words_ words per var
};

}  // namespace rmrsim
