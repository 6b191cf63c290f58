// Trace replay: a parsed or generated trace priced op by op.
//
// An RMR depends only on the op sequence, not on how processes are
// scheduled, so a replay is one pass over the trace in its global order:
// each op allocates its variable on first touch (homed by the AddrMapSpec
// policy) and goes through SharedMemory::apply. Every op is priced by
// whatever cost model the SharedMemory carries (DSM or any CC policy), the
// RMR ledger accumulates as usual, and any attached CoherenceListener — the
// ProtocolFleet with any protocols, legacy counters and write buffer —
// sees the exact event stream. Memory is proportional to the variables and
// processors, never to the op count.
//
// FENCE ops are replayed as a 0-valued FAA on a per-processor variable
// homed at that processor: local under DSM, cache-resident under CC, and
// an atomic primitive — which is precisely the write-buffer drain barrier
// the trace format means by "fence". Fences are counted in trace.fences
// and in the ledger's op totals.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "coherence/stats.h"
#include "metrics/registry.h"
#include "workload/trace.h"

namespace rmrsim {

class SharedMemory;

struct ReplayOptions {
  AddrMapSpec addr_map{};
  /// Protocol state machines to ride the replay ("mesi", ...); empty = none.
  std::vector<std::string> protocols;
  /// Also attach the legacy Section 8 message counters (bus/ideal/coarse).
  bool legacy_counters = false;
  /// Per-processor store-buffer entries in front of the protocols; 0 = off.
  int write_buffer = 0;
  CycleCosts costs{};
};

/// Low-level replay: applies `trace` to `mem` exactly as configured by the
/// caller — any listener already attached to `mem` stays attached and sees
/// the event stream (the caller owns attaching and flushing it). `mem` must
/// be freshly constructed for trace.nprocs processors with no variables
/// allocated. Publishes ledger.*, the history.* and sim.* counts a
/// simulator run of the trace would report (one step and one clock tick
/// per op; participants and finished = processors that issue an op; no
/// crashes), the trace.* gauges and rmrs.per_op.
MetricsRegistry replay_trace_core(const Trace& trace, SharedMemory& mem,
                                  const AddrMapSpec& addr_map = {});

/// Full replay: builds the ProtocolFleet requested by `opts` (state
/// machines, optional legacy counters, optional write buffer), attaches
/// it, replays, flushes, and publishes the core metrics, the fleet's
/// metrics (ProtocolFleet::publish) and msgs.<name>.per_op /
/// cycles.<proto>.per_op gauges. Throws on unknown protocol names and on a
/// write buffer with no protocol or legacy counter behind it.
MetricsRegistry replay_trace(const Trace& trace, SharedMemory& mem,
                             const ReplayOptions& opts = {});

}  // namespace rmrsim
