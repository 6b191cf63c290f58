// Publishers: one function per measurement source, pushing into a
// MetricsRegistry under a stable naming scheme.
//
// These replace the ad-hoc locals benches used to keep ("total RMRs here,
// max waiter RMRs there"): a simulation run is measured once, into a
// registry, and every consumer — text tables, BENCH_*.json artifacts, the
// asymptotic fitter — reads the same numbers under the same names.
//
// Naming scheme (all counters/gauges, flat keys):
//   ledger.total_ops, ledger.total_rmrs, ledger.max_rmrs, ledger.local_ops
//   history.steps, history.participants, history.finished,
//   history.crashes, history.recoveries
//   calls.<name>.count / .completed / .rmrs / .mem_steps  (+ summaries and
//     a per-call RMR histogram under calls.<name>.rmrs_per_call)
//
// Coherence tallies (msgs.<protocol>.*, cycles.<protocol>.*, wb.*) are
// published by the stack that priced them: ProtocolFleet::publish in
// coherence/fleet.h.
#pragma once

#include <vector>

#include "metrics/registry.h"

namespace rmrsim {

class RmrLedger;
class History;
class Simulation;
struct CallCost;

/// ledger.* totals plus a per-process RMR summary (ledger.proc_rmrs).
void publish_ledger(MetricsRegistry& reg, const RmrLedger& ledger);

/// history.* step and participation counts, including crash/recovery event
/// tallies on crashy histories.
void publish_history(MetricsRegistry& reg, const History& h);

/// Ledger + history of a finished simulation, plus sim.steps / sim.clock.
void publish_simulation(MetricsRegistry& reg, const Simulation& sim);

/// Per-call-code cost aggregates over a per_call_costs slice: counts,
/// completion counts, RMR/mem-step totals and summaries, and a fixed-bucket
/// histogram of RMRs per call (bounds 0,1,2,4,8,16,32,64).
void publish_call_costs(MetricsRegistry& reg,
                        const std::vector<CallCost>& costs);

}  // namespace rmrsim
