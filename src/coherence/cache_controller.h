// SnoopingCache: the shared chassis of the coherence-protocol fleet.
//
// Each protocol (MESI, MESIF, MOESI, Dragon) is an explicit per-line state
// machine over the states below, driven by the CoherenceEvent stream
// SharedMemory publishes. This base class owns everything the protocols
// share — per-(line, processor) state storage in flat arrays with a sharer
// bitmask per line, version tracking (every valid copy must hold the latest
// value, however the protocol arranges that), the memory-staleness bit,
// message tallies, and the cycle ledger — so a concrete protocol is nothing
// but its read() / write() transition functions plus its invariant checker.
//
// Two deliberate modeling choices, both inherited from the pricing layer:
//  * one variable == one cache line == one word (no false sharing, no
//    capacity or conflict misses — caches only lose copies to coherence
//    actions and crashes, matching the paper's Section 2 ideal cache);
//  * a crash powers the processor's cache down. A dirty owner's line is
//    treated as flushed-then-lost (memory becomes current, no cycles
//    charged): pricing state only, the store always holds real values.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "coherence/protocols.h"
#include "coherence/stats.h"
#include "common/bitmask.h"
#include "memory/cost_model.h"

namespace rmrsim {

/// Union of the fleet's per-line states. Each protocol uses its own subset
/// (checked by its invariant checker); kInvalid doubles as "not present".
enum class LineState : std::uint8_t {
  kInvalid,         ///< I — no valid copy
  kShared,          ///< S — clean(ish) copy, others may share
  kExclusive,       ///< E — sole copy, clean
  kModified,        ///< M — sole copy, dirty
  kOwned,           ///< O — dirty copy responsible for the line (MOESI)
  kForward,         ///< F — the designated clean responder (MESIF)
  kSharedClean,     ///< Sc — Dragon shared, not the updater
  kSharedModified,  ///< Sm — Dragon shared, owns update duty, dirty
};

std::string_view to_string(LineState s);

/// Base of the four protocol state machines. Consumes CoherenceEvents (or
/// direct access() injections in unit tests), drives the per-line states,
/// and accounts messages + cycles.
class SnoopingCache : public MessageCounter {
 public:
  SnoopingCache(std::string name, int nprocs, CycleCosts costs);

  /// Routes the event into the state machine: nontrivial operations are
  /// writes, everything else (reads, failed comparisons) read-like.
  void on_event(const CoherenceEvent& e) override;

  /// Unit-test injection: one access without a SharedMemory behind it.
  void access(ProcId p, VarId v, bool write);

  /// Drops every copy `p` held. A dirty owner's line counts as flushed
  /// (memory becomes current) so later fills never resurrect stale data.
  void on_crash(ProcId p) override;

  void reset() override;

  std::string_view name() const override { return name_; }
  std::uint64_t update_messages() const override { return updates_; }

  const ProtocolStats& stats() const { return stats_; }
  std::uint64_t total_cycles() const { return stats_.cycles; }
  /// Cycles charged to accesses performed by `p`.
  std::uint64_t proc_cycles(ProcId p) const;
  int nprocs() const { return nprocs_; }

  /// State of p's copy of v (kInvalid when the line was never touched).
  LineState state(ProcId p, VarId v) const;

  /// Checks every line against the protocol's transition-diagram
  /// invariants plus the fleet-wide ones (single writer-owner, every valid
  /// copy current, sharer mask in step with the states, tally
  /// consistency). nullopt = all hold; otherwise a human-readable
  /// description of the first violation.
  std::optional<std::string> check_invariants() const;

  /// Opts into per-event cycle logging: every on_event()/access() appends
  /// the cycles it charged, in order, enabling per-call cycle attribution
  /// (trace/call_stats.h). Off by default (costs a vector push per event).
  void enable_cycle_log() { cycle_log_enabled_ = true; }
  const std::vector<std::uint64_t>& cycle_log() const { return cycle_log_; }

 protected:
  /// One line's slice of the flat per-line arrays, built per access. The
  /// pointers stay valid until the next access grows the arrays.
  struct Line {
    LineState* st;           ///< per-proc state, nprocs entries
    std::uint64_t* ver;      ///< version each copy holds, nprocs entries
    std::uint64_t* valid;    ///< sharer mask: bit q set iff st[q] != I
    std::uint64_t& version;  ///< writes applied to this line
    bool& memory_stale;      ///< memory lags a dirty owner
  };

  // The protocol: how `p`'s read / write transitions `l` and what it
  // charges. Implementations use the charge_* helpers below. Demotions
  // write `l.st` directly; they move a copy between valid states, so the
  // sharer mask (kept by fill, invalidate_others and on_crash) never moves.
  virtual void read(Line& l, ProcId p) = 0;
  virtual void write(Line& l, ProcId p) = 0;

  /// Protocol-specific invariants of line `v`, given its per-proc states
  /// (legal state subset, owner uniqueness rules). The base adds the
  /// protocol-independent checks.
  virtual std::optional<std::string> check_line(const LineState* st,
                                                bool memory_stale,
                                                VarId v) const = 0;

  // ---- transition vocabulary (message + cycle accounting) --------------
  void charge_hit(ProcId p);
  void charge_memory_fetch(ProcId p);    ///< +1 transfer message
  void charge_cache_transfer(ProcId p);  ///< +1 transfer message
  void charge_bus_signal(ProcId p);      ///< address-only, no message
  void charge_bus_update(ProcId p);      ///< one update transaction
  void charge_write_back(ProcId p);      ///< snoop-forced dirty flush

  /// Invalidates every valid copy but p's: one invalidation message per
  /// copy destroyed (all useful — a snooping cache never invalidates a
  /// copy that does not exist; superfluity is a directory pathology).
  void invalidate_others(Line& l, ProcId p);

  /// Refreshes every valid copy but p's to the line's current version,
  /// one update message per copy refreshed.
  void update_others(Line& l, ProcId p);

  /// Gives `p` a current-version copy in `s`.
  void fill(Line& l, ProcId p, LineState s);

  /// Bumps the line version and stamps p's copy with it (call on write).
  void bump_version(Line& l, ProcId p);

  int count_valid_others(const Line& l, ProcId p) const;
  bool any_valid_other(const Line& l, ProcId p) const {
    return count_valid_others(l, p) > 0;
  }
  /// First other proc whose state is `s`; kNoProc if none.
  ProcId find_other(const Line& l, ProcId p, LineState s) const;

  /// Calls f(q) for every proc q != p holding a valid copy, in ascending
  /// order; walks the sharer mask, never the whole processor range.
  template <typename F>
  void for_each_other(const Line& l, ProcId p, F&& f) const {
    mask_for_each(l.valid, mask_words_, [&](ProcId q) {
      if (q != p) f(q);
    });
  }

  int nprocs_;
  int mask_words_;
  CycleCosts costs_;
  ProtocolStats stats_;
  std::uint64_t updates_ = 0;

 private:
  void charge_cycles(ProcId p, std::uint64_t cycles);

  struct LineMeta {
    std::uint64_t version = 0;
    bool memory_stale = false;
  };

  Line line(VarId v);

  std::string name_;
  // Per-line storage, index = VarId, grown lazily: line v's states and
  // copy versions are entries [v * nprocs_, (v + 1) * nprocs_) of st_ and
  // ver_, its sharer mask words [v * mask_words_, (v + 1) * mask_words_)
  // of valid_.
  std::vector<LineState> st_;
  std::vector<std::uint64_t> ver_;
  std::vector<std::uint64_t> valid_;
  std::vector<LineMeta> meta_;
  std::vector<std::uint64_t> proc_cycles_;
  std::vector<std::uint64_t> cycle_log_;
  bool cycle_log_enabled_ = false;
  std::uint64_t event_cycles_ = 0;  // cycles charged by the current event
};

}  // namespace rmrsim
