#include "workload/replay.h"

#include <algorithm>
#include <unordered_map>

#include "coherence/fleet.h"
#include "common/check.h"
#include "memory/shared_memory.h"
#include "metrics/publish.h"

namespace rmrsim {

namespace {

ProcId home_for(const AddrMapSpec& map, std::uint64_t addr, ProcId toucher,
                int nprocs) {
  switch (map.policy) {
    case AddrMapSpec::Policy::kGlobal:
      return kNoProc;
    case AddrMapSpec::Policy::kFirstTouch:
      return toucher;
    case AddrMapSpec::Policy::kInterleave:
      return static_cast<ProcId>((addr / map.block) %
                                 static_cast<std::uint64_t>(nprocs));
  }
  return kNoProc;
}

MemOp to_mem_op(const TraceOp& t, VarId var) {
  switch (t.kind) {
    case TraceOpKind::kRead:
      return MemOp::read(var);
    case TraceOpKind::kWrite:
      return MemOp::write(var, t.arg0);
    case TraceOpKind::kCas:
      return MemOp::cas(var, t.arg0, t.arg1);
    case TraceOpKind::kFaa:
      return MemOp::faa(var, t.arg0);
    case TraceOpKind::kFas:
      return MemOp::fas(var, t.arg0);
    case TraceOpKind::kTas:
      return MemOp::tas(var);
    case TraceOpKind::kFence:
      break;  // handled by the caller (per-proc fence variable)
  }
  fail("replay: unexpected trace op kind");
}

}  // namespace

MetricsRegistry replay_trace_core(const Trace& trace, SharedMemory& mem,
                                  const AddrMapSpec& addr_map) {
  ensure(trace.nprocs >= 1, "replay: trace has no processors");
  ensure(mem.nprocs() == trace.nprocs,
         "replay: memory was built for a different processor count");
  ensure(addr_map.block > 0, "replay: address-map block must be positive");

  // Fence barriers first (fixed ids), then trace variables in first-touch
  // order — the allocation order, and with it every VarId, is a pure
  // function of (trace, addr_map), which byte-stable artifacts need.
  std::vector<VarId> fence(trace.nprocs);
  for (int p = 0; p < trace.nprocs; ++p) {
    fence[p] = mem.allocate_local(static_cast<ProcId>(p), 0);
  }
  std::unordered_map<std::uint64_t, VarId> vars;
  vars.reserve(1024);
  std::vector<bool> issued(trace.nprocs, false);
  std::uint64_t fences = 0;
  for (const TraceOp& t : trace.ops) {
    ensure(t.proc >= 0 && t.proc < trace.nprocs,
           "replay: trace op proc out of range");
    issued[t.proc] = true;
    if (t.kind == TraceOpKind::kFence) {
      ++fences;
      mem.apply(t.proc, MemOp::faa(fence[t.proc], 0));
      continue;
    }
    auto [it, inserted] = vars.try_emplace(t.addr, kNoVar);
    if (inserted) {
      it->second = mem.allocate(
          0, home_for(addr_map, t.addr, t.proc, trace.nprocs));
    }
    mem.apply(t.proc, to_mem_op(t, it->second));
  }

  // What a simulator run of the trace reports: every op is one step and
  // one clock tick, every processor that issues an op runs to completion,
  // and nothing crashes.
  const auto ops = static_cast<std::uint64_t>(trace.ops.size());
  const auto issuers = static_cast<std::uint64_t>(
      std::count(issued.begin(), issued.end(), true));
  MetricsRegistry reg;
  publish_ledger(reg, mem.ledger());
  reg.add("history.steps", ops);
  reg.add("history.participants", issuers);
  reg.add("history.finished", issuers);
  reg.add("history.crashes", 0);
  reg.add("history.recoveries", 0);
  reg.add("sim.schedule_entries", ops);
  reg.add("sim.clock", ops);
  reg.set("trace.ops", static_cast<double>(ops));
  reg.set("trace.procs", static_cast<double>(trace.nprocs));
  reg.set("trace.vars", static_cast<double>(vars.size()));
  reg.set("trace.fences", static_cast<double>(fences));
  reg.set("rmrs.per_op",
          static_cast<double>(mem.ledger().total_rmrs()) /
              std::max<double>(1.0,
                               static_cast<double>(mem.ledger().total_ops())));
  return reg;
}

MetricsRegistry replay_trace(const Trace& trace, SharedMemory& mem,
                             const ReplayOptions& opts) {
  ProtocolFleet fleet(trace.nprocs, opts.protocols, opts.legacy_counters,
                      opts.write_buffer, opts.costs);
  mem.set_listener(fleet.listener());
  MetricsRegistry reg = replay_trace_core(trace, mem, opts.addr_map);
  fleet.flush();
  mem.set_listener(nullptr);

  fleet.publish(reg);
  const double ops =
      std::max<double>(1.0, static_cast<double>(trace.ops.size()));
  for (const MessageCounter* c : fleet.counters()) {
    reg.set("msgs." + std::string(c->name()) + ".per_op",
            static_cast<double>(c->total_messages()) / ops);
  }
  for (const auto& cache : fleet.caches()) {
    reg.set("cycles." + std::string(cache->name()) + ".per_op",
            static_cast<double>(cache->total_cycles()) / ops);
  }
  return reg;
}

}  // namespace rmrsim
