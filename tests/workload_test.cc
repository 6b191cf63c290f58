// Workload engine tests: the trace codecs' strictness (every malformation
// rejected loudly, with a location), generator and replay determinism, the
// address-map policies' DSM pricing, the cycle-cost override, and the
// fleet/write-buffer reset path (same trace after reset() must produce
// byte-identical metrics).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "coherence/fleet.h"
#include "memory/shared_memory.h"
#include "metrics/publish.h"
#include "metrics/registry.h"
#include "runtime/simulation.h"
#include "sched/schedulers.h"
#include "workload/generators.h"
#include "workload/replay.h"
#include "workload/trace.h"

namespace rmrsim {
namespace {

// ---- reference replay: the trace driven through the simulator ----------
//
// replay_trace_core prices a trace with one apply loop in trace order. This
// is the replay it stands for, kept as the oracle: the trace's global order
// becomes a ScriptedScheduler script, each processor's subsequence becomes
// a coroutine program, and Simulation runs the copy with counters-only
// history. Every metric the loop publishes must be byte-equal to this.

ProcTask reference_program(ProcCtx& ctx, const std::vector<MemOp>* ops) {
  for (const MemOp& op : *ops) (void)co_await ctx.apply(op);
}

ProcId reference_home(const AddrMapSpec& map, std::uint64_t addr,
                      ProcId toucher, int nprocs) {
  switch (map.policy) {
    case AddrMapSpec::Policy::kGlobal:
      return kNoProc;
    case AddrMapSpec::Policy::kFirstTouch:
      return toucher;
    case AddrMapSpec::Policy::kInterleave:
      break;
  }
  return static_cast<ProcId>((addr / map.block) %
                             static_cast<std::uint64_t>(nprocs));
}

MemOp reference_op(const TraceOp& t, VarId var) {
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
      break;  // replayed on the per-processor fence variable
  }
  ADD_FAILURE() << "reference_op: unexpected trace op kind";
  return MemOp::read(var);
}

MetricsRegistry reference_replay(const Trace& trace, SharedMemory& mem,
                                 const AddrMapSpec& addr_map = {}) {
  std::vector<VarId> fence(trace.nprocs);
  for (int p = 0; p < trace.nprocs; ++p) {
    fence[p] = mem.allocate_local(static_cast<ProcId>(p), 0);
  }
  std::unordered_map<std::uint64_t, VarId> vars;
  std::vector<std::vector<MemOp>> per_proc(trace.nprocs);
  std::vector<ProcId> script;
  std::uint64_t fences = 0;
  for (const TraceOp& t : trace.ops) {
    script.push_back(t.proc);
    if (t.kind == TraceOpKind::kFence) {
      ++fences;
      per_proc[t.proc].push_back(MemOp::faa(fence[t.proc], 0));
      continue;
    }
    auto [it, inserted] = vars.try_emplace(t.addr, kNoVar);
    if (inserted) {
      it->second = mem.allocate(
          0, reference_home(addr_map, t.addr, t.proc, trace.nprocs));
    }
    per_proc[t.proc].push_back(reference_op(t, it->second));
  }
  std::vector<Program> programs;
  for (int p = 0; p < trace.nprocs; ++p) {
    const std::vector<MemOp>* ops = &per_proc[p];
    programs.emplace_back(
        [ops](ProcCtx& ctx) { return reference_program(ctx, ops); });
  }
  Simulation sim(mem, std::move(programs));
  sim.set_history_mode(HistoryMode::kCountersOnly);
  ScriptedScheduler sched(std::move(script));
  const Simulation::RunResult run = sim.run(sched, trace.ops.size() + 1);
  EXPECT_EQ(run.steps, trace.ops.size());

  MetricsRegistry reg;
  publish_simulation(reg, sim);
  reg.set("trace.ops", static_cast<double>(trace.ops.size()));
  reg.set("trace.procs", static_cast<double>(trace.nprocs));
  reg.set("trace.vars", static_cast<double>(vars.size()));
  reg.set("trace.fences", static_cast<double>(fences));
  reg.set("rmrs.per_op",
          static_cast<double>(mem.ledger().total_rmrs()) /
              std::max<double>(1.0,
                               static_cast<double>(mem.ledger().total_ops())));
  return reg;
}

/// Runs `fn`, which must throw std::logic_error, and returns the message.
template <typename Fn>
std::string error_of(Fn&& fn) {
  try {
    fn();
  } catch (const std::logic_error& e) {
    return e.what();
  }
  ADD_FAILURE() << "expected std::logic_error, got none";
  return "";
}

bool contains(const std::string& haystack, const std::string& needle) {
  return haystack.find(needle) != std::string::npos;
}

Trace small_trace() {
  return parse_trace_text(
      "rmrsim-trace v1 procs=2 ops=5\n"
      "# a comment\n"
      "0 0 WR 16 7\n"
      "1 0 RD 16\n"
      "0 1 CAS 16 7 9\n"
      "1 1 FENCE\n"
      "0 2 FAA 32 3\n");
}

// ---- codecs ------------------------------------------------------------

TEST(TraceText, ParsesAllForms) {
  const Trace t = small_trace();
  EXPECT_EQ(t.nprocs, 2);
  ASSERT_EQ(t.ops.size(), 5u);
  EXPECT_EQ(t.ops[0].kind, TraceOpKind::kWrite);
  EXPECT_EQ(t.ops[0].addr, 16u);
  EXPECT_EQ(t.ops[0].arg0, 7);
  EXPECT_EQ(t.ops[2].kind, TraceOpKind::kCas);
  EXPECT_EQ(t.ops[2].arg1, 9);
  EXPECT_EQ(t.ops[3].kind, TraceOpKind::kFence);
  EXPECT_EQ(t.ops[3].proc, 1);
}

TEST(TraceText, RoundTripsEveryGenerator) {
  for (const std::string& kind : generator_names()) {
    GenSpec g;
    g.kind = kind;
    g.procs = 5;
    g.ops = 700;
    g.seed = 42;
    const Trace t = generate_trace(g);
    EXPECT_EQ(parse_trace_text(trace_to_text(t)), t) << kind;
  }
}

TEST(TraceBinary, RoundTripsEveryGenerator) {
  for (const std::string& kind : generator_names()) {
    GenSpec g;
    g.kind = kind;
    g.procs = 5;
    g.ops = 700;
    g.seed = 42;
    const Trace t = generate_trace(g);
    EXPECT_EQ(parse_trace_binary(trace_to_binary(t)), t) << kind;
  }
}

TEST(TraceFile, SniffsEncodingFromMagic) {
  const Trace t = small_trace();
  const std::string dir = ::testing::TempDir();
  save_trace_file(dir + "/t.trace", t, /*binary=*/false);
  save_trace_file(dir + "/t.bin", t, /*binary=*/true);
  EXPECT_EQ(load_trace_file(dir + "/t.trace"), t);
  EXPECT_EQ(load_trace_file(dir + "/t.bin"), t);
  EXPECT_TRUE(contains(error_of([&] { load_trace_file(dir + "/nope"); }),
                       "cannot read trace file"));
}

// ---- malformed text: each dies loudly with a line number ---------------

TEST(TraceTextMalformed, MissingHeader) {
  const std::string e = error_of([] { parse_trace_text("0 0 RD 1\n", "f"); });
  EXPECT_TRUE(contains(e, "f:1: ")) << e;
  EXPECT_TRUE(contains(e, "expected header")) << e;
}

TEST(TraceTextMalformed, WrongVersion) {
  const std::string e = error_of(
      [] { parse_trace_text("rmrsim-trace v9 procs=1 ops=0\n", "f"); });
  EXPECT_TRUE(contains(e, "unsupported trace version 'v9'")) << e;
}

TEST(TraceTextMalformed, OverflowSizedOpCount) {
  const std::string e = error_of([] {
    parse_trace_text("rmrsim-trace v1 procs=1 ops=1000000001\n", "f");
  });
  EXPECT_TRUE(contains(e, "f:1: ")) << e;
  EXPECT_TRUE(contains(e, "exceeds the maximum trace size")) << e;
}

TEST(TraceTextMalformed, ProcCountOutOfRange) {
  const std::string e = error_of(
      [] { parse_trace_text("rmrsim-trace v1 procs=0 ops=0\n", "f"); });
  EXPECT_TRUE(contains(e, "procs=0 out of range")) << e;
}

TEST(TraceTextMalformed, OpProcOutOfRange) {
  const std::string e = error_of([] {
    parse_trace_text("rmrsim-trace v1 procs=2 ops=1\n2 0 RD 1\n", "f");
  });
  EXPECT_TRUE(contains(e, "f:2: ")) << e;
  EXPECT_TRUE(contains(e, "proc 2 out of range [0, 2)")) << e;
}

TEST(TraceTextMalformed, NonMonotonicSequence) {
  const std::string e = error_of([] {
    parse_trace_text(
        "rmrsim-trace v1 procs=1 ops=2\n0 0 RD 1\n0 2 RD 1\n", "f");
  });
  EXPECT_TRUE(contains(e, "f:3: ")) << e;
  EXPECT_TRUE(contains(e, "non-monotonic sequence for proc 0: expected seq "
                          "1, got 2"))
      << e;
}

TEST(TraceTextMalformed, TruncatedBody) {
  const std::string e = error_of([] {
    parse_trace_text("rmrsim-trace v1 procs=1 ops=3\n0 0 RD 1\n", "f");
  });
  EXPECT_TRUE(contains(e, "truncated trace: header declares ops=3 but the "
                          "file ends after 1 op(s)"))
      << e;
}

TEST(TraceTextMalformed, HostileOpCountDoesNotPreallocate) {
  // ops= is below the hard cap but ~1e9 larger than the actual file. The
  // header-driven reserve() is bounded, so this must die at the truncated-
  // trace check — not in a ~30 GB up-front allocation that the two real
  // lines never justify.
  const std::string e = error_of([] {
    parse_trace_text("rmrsim-trace v1 procs=1 ops=999999999\n0 0 RD 1\n",
                     "f");
  });
  EXPECT_TRUE(contains(e, "truncated trace: header declares ops=999999999 "
                          "but the file ends after 1 op(s)"))
      << e;
}

TEST(TraceTextMalformed, MoreOpsThanDeclared) {
  const std::string e = error_of([] {
    parse_trace_text(
        "rmrsim-trace v1 procs=1 ops=1\n0 0 RD 1\n0 1 RD 1\n", "f");
  });
  EXPECT_TRUE(contains(e, "f:3: ")) << e;
  EXPECT_TRUE(contains(e, "more ops than the header's ops=1")) << e;
}

TEST(TraceTextMalformed, UnknownMnemonic) {
  const std::string e = error_of([] {
    parse_trace_text("rmrsim-trace v1 procs=1 ops=1\n0 0 XCHG 1\n", "f");
  });
  EXPECT_TRUE(contains(e, "unknown op mnemonic 'XCHG'")) << e;
}

TEST(TraceTextMalformed, WrongArity) {
  const std::string e = error_of([] {
    parse_trace_text("rmrsim-trace v1 procs=1 ops=1\n0 0 CAS 1 2\n", "f");
  });
  EXPECT_TRUE(contains(e, "CAS expects 3 operand(s), got 2")) << e;
}

TEST(TraceTextMalformed, NegativeNumberRejected) {
  const std::string e = error_of([] {
    parse_trace_text("rmrsim-trace v1 procs=1 ops=1\n0 0 WR 4 -1\n", "f");
  });
  EXPECT_TRUE(contains(e, "expects an unsigned integer, got '-1'")) << e;
}

// ---- malformed binary --------------------------------------------------

TEST(TraceBinaryMalformed, BadMagic) {
  const std::string e =
      error_of([] { parse_trace_binary("NOTATRACE", "f"); });
  EXPECT_TRUE(contains(e, "byte offset 0")) << e;
  EXPECT_TRUE(contains(e, "bad magic")) << e;
}

TEST(TraceBinaryMalformed, TruncatedBody) {
  std::string bytes = trace_to_binary(small_trace());
  bytes.resize(bytes.size() - 10);
  const std::string e = error_of([&] { parse_trace_binary(bytes, "f"); });
  EXPECT_TRUE(contains(e, "truncated")) << e;
}

TEST(TraceBinaryMalformed, TrailingBytes) {
  std::string bytes = trace_to_binary(small_trace());
  bytes += "x";
  const std::string e = error_of([&] { parse_trace_binary(bytes, "f"); });
  EXPECT_TRUE(contains(e, "trailing bytes after the checksum")) << e;
}

TEST(TraceBinaryMalformed, CrcMismatchOnBitFlip) {
  std::string bytes = trace_to_binary(small_trace());
  bytes[bytes.size() - 6] ^= 0x10;  // flip a bit inside the last record
  const std::string e = error_of([&] { parse_trace_binary(bytes, "f"); });
  EXPECT_TRUE(contains(e, "CRC mismatch")) << e;
}

// ---- generators --------------------------------------------------------

TEST(Generators, DeterministicPerSeedAndDistinctAcrossSeeds) {
  for (const std::string& kind : generator_names()) {
    GenSpec g;
    g.kind = kind;
    g.procs = 7;
    g.ops = 900;
    g.seed = 3;
    const Trace a = generate_trace(g);
    const Trace b = generate_trace(g);
    EXPECT_EQ(a, b) << kind;
    g.seed = 4;
    EXPECT_NE(generate_trace(g), a) << kind;
  }
}

TEST(Generators, UnknownKindRejected) {
  GenSpec g;
  g.kind = "bogus";
  EXPECT_TRUE(contains(error_of([&] { generate_trace(g); }), "bogus"));
}

TEST(Generators, EveryOpInRange) {
  for (const std::string& kind : generator_names()) {
    GenSpec g;
    g.kind = kind;
    g.procs = 3;
    g.ops = 500;
    const Trace t = generate_trace(g);
    EXPECT_EQ(t.nprocs, 3);
    EXPECT_EQ(t.ops.size(), 500u);
    for (const TraceOp& op : t.ops) {
      EXPECT_GE(op.proc, 0);
      EXPECT_LT(op.proc, 3);
    }
  }
}

// ---- replay ------------------------------------------------------------

TEST(Replay, ByteIdenticalAcrossRuns) {
  GenSpec g;
  g.kind = "zipf";
  g.procs = 8;
  g.ops = 4000;
  const Trace t = generate_trace(g);
  ReplayOptions opts;
  opts.protocols = protocol_names();
  opts.write_buffer = 4;
  auto mem1 = make_cc(t.nprocs);
  auto mem2 = make_cc(t.nprocs);
  EXPECT_EQ(replay_trace(t, *mem1, opts).to_json(),
            replay_trace(t, *mem2, opts).to_json());
}

TEST(Replay, PrivateTraceIsHomeLocalUnderDsm) {
  GenSpec g;
  g.kind = "private";
  g.procs = 6;
  g.ops = 3000;
  const Trace t = generate_trace(g);
  auto mem = make_dsm(t.nprocs);
  const MetricsRegistry reg = replay_trace_core(t, *mem);
  EXPECT_EQ(reg.value("ledger.total_ops"), 3000.0);
  EXPECT_EQ(reg.value("ledger.total_rmrs"), 0.0);
}

TEST(Replay, HotsetUnderDsmCostsRmrsProportionalToOps) {
  auto total_rmrs = [](int procs) {
    GenSpec g;
    g.kind = "hotset";
    g.procs = procs;
    g.ops = static_cast<std::uint64_t>(procs) * 256;
    const Trace t = generate_trace(g);
    auto mem = make_dsm(t.nprocs);
    return replay_trace_core(t, *mem).value("ledger.total_rmrs");
  };
  const double r8 = total_rmrs(8);
  const double r32 = total_rmrs(32);
  // Total work quadruples; the DSM remote-reference bill must track it.
  EXPECT_GT(r8, 8 * 256 / 2.0);
  EXPECT_GT(r32, 3.0 * r8);
}

TEST(Replay, AddrMapPolicies) {
  GenSpec g;
  g.kind = "private";
  g.procs = 4;
  g.ops = 1000;
  const Trace t = generate_trace(g);
  // global: every variable is remote to everyone — each op is one RMR.
  {
    auto mem = make_dsm(t.nprocs);
    const MetricsRegistry reg =
        replay_trace_core(t, *mem, parse_addr_map("global"));
    EXPECT_EQ(reg.value("ledger.total_rmrs"), 1000.0);
  }
  // first-touch: private streams are touched first by their owner — local.
  {
    auto mem = make_dsm(t.nprocs);
    const MetricsRegistry reg =
        replay_trace_core(t, *mem, parse_addr_map("first-touch"));
    EXPECT_EQ(reg.value("ledger.total_rmrs"), 0.0);
  }
}

TEST(Replay, MismatchedProcCountRejected) {
  const Trace t = small_trace();
  auto mem = make_dsm(t.nprocs + 1);
  EXPECT_TRUE(contains(error_of([&] { replay_trace_core(t, *mem); }),
                       "different processor count"));
}

TEST(Replay, UnknownProtocolRejected) {
  const Trace t = small_trace();
  auto mem = make_cc(t.nprocs);
  ReplayOptions opts;
  opts.protocols = {"mesi", "bogus"};
  EXPECT_TRUE(contains(error_of([&] { replay_trace(t, *mem, opts); }),
                       "unknown protocol 'bogus'"));
}

// ---- direct replay vs the simulator-driven reference -------------------

std::unique_ptr<SharedMemory> model_for(const std::string& model, int n) {
  return model == "dsm" ? make_dsm(n) : make_cc(n);
}

TEST(ReplayOracle, EveryGeneratorModelAndAddrMapMatchesTheSimulator) {
  for (const std::string& kind : generator_names()) {
    GenSpec g;
    g.kind = kind;
    g.procs = 6;
    g.ops = 1500;
    g.seed = 9;
    const Trace t = generate_trace(g);
    for (const std::string model : {"dsm", "cc"}) {
      for (const char* map :
           {"global", "first-touch", "interleave", "interleave:4"}) {
        const AddrMapSpec spec = parse_addr_map(map);
        auto direct = model_for(model, t.nprocs);
        auto oracle = model_for(model, t.nprocs);
        EXPECT_EQ(replay_trace_core(t, *direct, spec).to_json(),
                  reference_replay(t, *oracle, spec).to_json())
            << kind << " " << model << " " << map;
      }
    }
  }
}

TEST(ReplayOracle, HandWrittenTraceWithFencesMatchesTheSimulator) {
  const Trace t = parse_trace_text(
      "rmrsim-trace v1 procs=3 ops=10\n"
      "0 0 WR 8 1\n"
      "1 0 FENCE\n"
      "2 0 RD 8\n"
      "0 1 FENCE\n"
      "1 1 TAS 16\n"
      "2 1 FAS 8 5\n"
      "0 2 CAS 16 1 0\n"
      "2 2 FENCE\n"
      "1 2 FAA 24 2\n"
      "0 3 RD 24\n");
  for (const std::string model : {"dsm", "cc"}) {
    auto direct = model_for(model, t.nprocs);
    auto oracle = model_for(model, t.nprocs);
    const MetricsRegistry reg = replay_trace_core(t, *direct);
    EXPECT_EQ(reg.value("trace.fences"), 3.0);
    EXPECT_EQ(reg.to_json(), reference_replay(t, *oracle).to_json())
        << model;
  }
}

TEST(ReplayOracle, IdleProcessorsMatchTheSimulator) {
  // Processors 1 and 3 issue nothing: they neither participate nor finish.
  const Trace t = parse_trace_text(
      "rmrsim-trace v1 procs=4 ops=5\n"
      "0 0 WR 4 1\n"
      "2 0 RD 4\n"
      "0 1 RD 8\n"
      "2 1 FENCE\n"
      "0 2 FAA 4 1\n");
  for (const std::string model : {"dsm", "cc"}) {
    auto direct = model_for(model, t.nprocs);
    auto oracle = model_for(model, t.nprocs);
    const MetricsRegistry reg = replay_trace_core(t, *direct);
    EXPECT_EQ(reg.value("history.participants"), 2.0);
    EXPECT_EQ(reg.value("history.finished"), 2.0);
    EXPECT_EQ(reg.to_json(), reference_replay(t, *oracle).to_json())
        << model;
  }
}

TEST(ReplayOracle, FleetAndWriteBufferSeeTheSimulatorsEventStream) {
  GenSpec g;
  g.kind = "zipf";
  g.procs = 8;
  g.ops = 4000;
  const Trace t = generate_trace(g);
  auto priced = [&t](bool direct) {
    ProtocolFleet fleet(t.nprocs, protocol_names(), /*legacy_counters=*/true,
                        /*write_buffer=*/4);
    auto mem = make_cc(t.nprocs);
    mem->set_listener(fleet.listener());
    MetricsRegistry reg =
        direct ? replay_trace_core(t, *mem) : reference_replay(t, *mem);
    fleet.flush();
    fleet.publish(reg);
    return reg.to_json();
  };
  EXPECT_EQ(priced(true), priced(false));
}

TEST(Replay, WriteBufferWithNothingBehindItRejected) {
  const Trace t = small_trace();
  auto mem = make_cc(t.nprocs);
  ReplayOptions opts;
  opts.write_buffer = 4;
  EXPECT_TRUE(contains(error_of([&] { replay_trace(t, *mem, opts); }),
                       "write buffer has nothing behind it"));
  opts.legacy_counters = true;
  EXPECT_EQ(replay_trace(t, *mem, opts).value("wb.buffered"), 1.0);
}

// ---- cycle-cost override ----------------------------------------------

TEST(CycleCosts, ParseDefaultsAndOverrides) {
  const CycleCosts def = parse_cycle_costs("");
  EXPECT_EQ(def.memory_fetch, CycleCosts{}.memory_fetch);
  const CycleCosts c = parse_cycle_costs(
      "fetch=7,transfer=3,signal=1,update=2,writeback=50");
  EXPECT_EQ(c.memory_fetch, 7u);
  EXPECT_EQ(c.cache_transfer, 3u);
  EXPECT_EQ(c.bus_signal, 1u);
  EXPECT_EQ(c.bus_update, 2u);
  EXPECT_EQ(c.write_back, 50u);
  const CycleCosts partial = parse_cycle_costs("fetch=9");
  EXPECT_EQ(partial.memory_fetch, 9u);
  EXPECT_EQ(partial.cache_transfer, CycleCosts{}.cache_transfer);
}

TEST(CycleCosts, ParseRejectsMalformedSpecs) {
  EXPECT_TRUE(contains(error_of([] { parse_cycle_costs("bogus=1"); }),
                       "unknown key 'bogus'"));
  EXPECT_TRUE(contains(error_of([] { parse_cycle_costs("fetch=1,fetch=2"); }),
                       "duplicate"));
  EXPECT_TRUE(
      contains(error_of([] { parse_cycle_costs("fetch=banana"); }), "fetch"));
}

TEST(CycleCosts, OverrideReprices) {
  GenSpec g;
  g.kind = "hotset";
  g.procs = 4;
  g.ops = 2000;
  const Trace t = generate_trace(g);
  auto cycles_with = [&](const std::string& spec) {
    ReplayOptions opts;
    opts.protocols = {"mesi"};
    opts.costs = parse_cycle_costs(spec);
    auto mem = make_cc(t.nprocs);
    return replay_trace(t, *mem, opts).value("cycles.mesi.total");
  };
  EXPECT_GT(cycles_with("fetch=1000"), cycles_with("fetch=1"));
}

// ---- fleet + write-buffer reset parity (the replayability guarantee) ---

TEST(FleetReset, ReplayAfterResetIsByteIdentical) {
  GenSpec g;
  g.kind = "zipf";
  g.procs = 8;
  g.ops = 5000;
  const Trace t = generate_trace(g);

  ProtocolFleet fleet(t.nprocs, protocol_names(), /*legacy_counters=*/true,
                      /*write_buffer=*/4);

  auto run_once = [&] {
    auto mem = make_cc(t.nprocs);
    mem->set_listener(fleet.listener());
    MetricsRegistry reg = replay_trace_core(t, *mem);
    fleet.flush();
    mem->set_listener(nullptr);
    fleet.publish(reg);
    EXPECT_EQ(reg.value("protocol.invariants_ok"), 1.0);
    return reg.to_json();
  };

  const std::string first = run_once();
  // Without a reset the second pass accumulates on top of the first.
  const std::string dirty = run_once();
  EXPECT_NE(first, dirty);
  // reset() must scrub BOTH the members and the write buffer in front of
  // them; after that, the same seeded trace produces the same bytes.
  fleet.reset();
  EXPECT_EQ(run_once(), first);
}

}  // namespace
}  // namespace rmrsim
