// ProtocolFleet: the one listener stack that prices a run's coherence
// traffic.
//
// A caller names what it wants priced — any of the four snooping state
// machines (MESI, MESIF, MOESI, Dragon), the legacy Section 8 message
// counters (broadcast bus, ideal directory, coarse directory), and a
// per-processor write buffer in front of them — and the fleet builds,
// owns, flushes and publishes that stack. Every member rides one
// CoherenceEvent stream, so one run (one schedule, one RMR tally) is priced
// under all of them at once: the protocols cannot disagree because they saw
// different schedules, only because their state machines differ.
//
// Trace replay, the CLI's --protocols runs and the E4/E8 experiments all
// build their stack here, and publish() is the one place a stack's tallies
// become metrics. Normalisations that only one caller needs (per op, per
// RMR, amortized per process) stay with that caller.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "coherence/cache_controller.h"
#include "coherence/protocols.h"
#include "coherence/stats.h"
#include "coherence/write_buffer.h"
#include "metrics/registry.h"

namespace rmrsim {

/// Names of the fleet's state-machine protocols, in fleet order.
const std::vector<std::string>& protocol_names();

/// Builds one protocol by name ("mesi", "mesif", "moesi", "dragon");
/// nullptr for an unknown name.
std::unique_ptr<SnoopingCache> make_protocol(const std::string& name,
                                             int nprocs, CycleCosts costs = {});

/// Parses a CLI cost-table override: "fetch=100,transfer=12,signal=2,
/// update=2,writeback=100". Every key is optional (unmentioned fields keep
/// their defaults), but an unknown key, a malformed value, or a duplicate
/// key throws std::logic_error — a typo must never silently price a run
/// with defaults. An empty spec returns the default table.
CycleCosts parse_cycle_costs(const std::string& spec);

class ProtocolFleet {
 public:
  /// `protocols`: state machines by name, in the order given (throws on an
  /// unknown name). `legacy_counters`: also attach bus/ideal/coarse.
  /// `write_buffer` > 0: that many per-processor store-buffer entries in
  /// front of the members; throws if there are no members to drain into.
  ProtocolFleet(int nprocs, const std::vector<std::string>& protocols,
                bool legacy_counters = false, int write_buffer = 0,
                CycleCosts costs = {});
  ProtocolFleet(const ProtocolFleet&) = delete;
  ProtocolFleet& operator=(const ProtocolFleet&) = delete;

  /// The listener to hand SharedMemory::set_listener (or a workload's
  /// options): the write buffer if there is one, else the fan-out over the
  /// members; nullptr when the fleet has no members.
  CoherenceListener* listener();

  /// Drains the write buffer into the members; call at end of run, before
  /// reading tallies.
  void flush();

  const std::vector<std::unique_ptr<SnoopingCache>>& caches() const {
    return caches_;
  }
  /// Member state machine by protocol name; nullptr if absent.
  SnoopingCache* cache(std::string_view name);

  /// The legacy counters (fed only when built with legacy_counters).
  BusBroadcastCounter& bus() { return bus_; }
  IdealDirectoryCounter& ideal() { return ideal_; }
  CoarseDirectoryCounter& coarse() { return coarse_; }

  /// Every MessageCounter in the fleet (state machines, then the legacy
  /// counters if attached), for uniform table/metric emission.
  std::vector<MessageCounter*> counters();

  /// The store buffer in front of the members; nullptr if none.
  const WriteBuffer* write_buffer() const {
    return wb_ ? &*wb_ : nullptr;
  }

  /// Zeroes every member's tallies and empties the write buffer.
  void reset();

  /// First invariant violation across every state machine, if any.
  std::optional<std::string> check_invariants() const;

  /// Publishes the stack: msgs.<name>.* and cycles.<name>.* per state
  /// machine, msgs.<name>.* per legacy counter, wb.* when buffered, and
  /// protocol.invariants_ok (1.0 iff every state machine's invariants
  /// hold) when any state machine is attached. Call after flush().
  void publish(MetricsRegistry& reg) const;

  int nprocs() const { return nprocs_; }

 private:
  /// Fans one event stream out to every member (SharedMemory takes one
  /// listener).
  class Fanout final : public CoherenceListener {
   public:
    void add(CoherenceListener* l) { members_.push_back(l); }
    bool empty() const { return members_.empty(); }
    void on_event(const CoherenceEvent& e) override {
      for (CoherenceListener* l : members_) l->on_event(e);
    }
    void on_crash(ProcId p) override {
      for (CoherenceListener* l : members_) l->on_crash(p);
    }
    void flush() override {
      for (CoherenceListener* l : members_) l->flush();
    }

   private:
    std::vector<CoherenceListener*> members_;
  };

  int nprocs_;
  bool legacy_;
  std::vector<std::unique_ptr<SnoopingCache>> caches_;
  BusBroadcastCounter bus_;
  IdealDirectoryCounter ideal_;
  CoarseDirectoryCounter coarse_;
  Fanout fanout_;
  std::optional<WriteBuffer> wb_;
};

}  // namespace rmrsim
