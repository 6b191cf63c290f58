#include "metrics/publish.h"

#include <array>
#include <string>

#include "history/history.h"
#include "memory/ledger.h"
#include "runtime/simulation.h"
#include "trace/call_stats.h"

namespace rmrsim {

namespace {

std::string call_name(Word code) {
  switch (code) {
    case calls::kPoll: return "poll";
    case calls::kSignal: return "signal";
    case calls::kWait: return "wait";
    case calls::kAcquire: return "acquire";
    case calls::kRelease: return "release";
    case calls::kCritical: return "critical";
    case calls::kGmeEnter: return "gme_enter";
    case calls::kGmeExit: return "gme_exit";
    case calls::kRecover: return "recover";
  }
  return "code" + std::to_string(code);
}

}  // namespace

void publish_ledger(MetricsRegistry& reg, const RmrLedger& ledger) {
  reg.add("ledger.total_ops", ledger.total_ops());
  reg.add("ledger.total_rmrs", ledger.total_rmrs());
  reg.add("ledger.max_rmrs", ledger.max_rmrs());
  reg.add("ledger.local_ops", ledger.total_ops() - ledger.total_rmrs());
  for (ProcId p = 0; p < ledger.nprocs(); ++p) {
    if (ledger.ops(p) == 0) continue;
    reg.observe("ledger.proc_rmrs", static_cast<double>(ledger.rmrs(p)));
  }
}

void publish_history(MetricsRegistry& reg, const History& h) {
  reg.add("history.steps", h.size());
  reg.add("history.participants", h.participants().size());
  reg.add("history.finished", h.finished().size());
  // Counter-backed so counters-only histories publish too; the counts are
  // identical to scanning the records for kCrash/kRecover events.
  reg.add("history.crashes", h.crash_events());
  reg.add("history.recoveries", h.recovery_events());
}

void publish_simulation(MetricsRegistry& reg, const Simulation& sim) {
  publish_ledger(reg, sim.memory().ledger());
  publish_history(reg, sim.history());
  reg.add("sim.schedule_entries", sim.schedule().size());
  reg.add("sim.clock", sim.now());
}

void publish_call_costs(MetricsRegistry& reg,
                        const std::vector<CallCost>& costs) {
  static constexpr std::array<double, 8> kRmrBounds = {0, 1, 2, 4,
                                                       8, 16, 32, 64};
  for (const CallCost& c : costs) {
    const std::string base = "calls." + call_name(c.call_code);
    reg.add(base + ".count");
    if (c.completed) reg.add(base + ".completed");
    reg.add(base + ".rmrs", c.rmrs);
    reg.add(base + ".mem_steps", c.mem_steps);
    reg.add(base + ".cycles", c.cycles);
    reg.observe(base + ".rmrs_summary", static_cast<double>(c.rmrs));
    reg.histogram_observe(base + ".rmrs_per_call", kRmrBounds,
                          static_cast<double>(c.rmrs));
  }
}

}  // namespace rmrsim
