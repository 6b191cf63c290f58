// Differential tests for the coherence-protocol fleet: every protocol rides
// the SAME CoherenceEvent stream (one schedule, one RMR tally), so the
// protocols can only disagree because their state machines differ — and the
// ways they differ are theorems this file checks on seeded random traces:
//
//   - broadcast-bus messages == RMRs (Section 8 "at par");
//   - MESI / MESIF / MOESI destroy exactly the copies the ideal directory
//     says exist (identical valid sets, zero superfluous invalidations),
//     and pay identical transfer-message counts;
//   - Dragon never invalidates; its update messages dominate the ideal
//     directory's invalidation count (every copy the others would destroy,
//     Dragon refreshes — and it may hold strictly more copies);
//   - MOESI == MESI minus write-backs, exactly: same messages, and the
//     cycle gap is precisely write_back * (MESI write-backs);
//   - MESIF == MESI cycle-for-cycle until an F holder crashes, after which
//     MESIF can only be dearer (the only-S memory-fetch fallback);
//   - per-protocol cycle totals decompose exactly over the cost table, and
//     per-processor cycles sum to the total.
//
// The same harness doubles as the property-based invariant sweep (fleet
// invariants checked after EVERY event, crashes included), and the file
// also covers counter reset/reproducibility, listener re-registration
// across Simulation::fork, and the write-buffer front end.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "coherence/fleet.h"
#include "coherence/protocols/mesi.h"
#include "coherence/write_buffer.h"
#include "common/rng.h"
#include "memory/cc_model.h"
#include "memory/shared_memory.h"
#include "runtime/simulation.h"

namespace rmrsim {
namespace {

// A CC world with the full fleet listening.
struct World {
  std::unique_ptr<SharedMemory> mem;
  ProtocolFleet fleet;
  std::vector<VarId> vars;

  World(int nprocs, int nvars, int write_buffer = 0)
      : mem(make_cc(nprocs)),
        fleet(nprocs, protocol_names(), /*legacy_counters=*/true,
              write_buffer) {
    mem->set_listener(fleet.listener());
    for (int i = 0; i < nvars; ++i) vars.push_back(mem->allocate_global(0));
  }
};

// Applies `steps` random accesses (reads, writes, CAS, FAA — hits and
// misses, contended and not), optionally crashing processors along the way,
// and checks every fleet invariant after every single event.
void drive_random(World& w, std::uint64_t seed, int steps, bool crashes) {
  SplitMix64 rng(seed);
  const int n = w.fleet.nprocs();
  std::vector<bool> alive(static_cast<std::size_t>(n), true);
  int live = n;
  for (int i = 0; i < steps; ++i) {
    const auto p = static_cast<ProcId>(rng.below(static_cast<std::uint64_t>(n)));
    if (!alive[static_cast<std::size_t>(p)]) continue;
    if (crashes && live > 2 && rng.chance(1, 40)) {
      w.mem->notify_crash(p);
      alive[static_cast<std::size_t>(p)] = false;
      --live;
    } else {
      const VarId v = w.vars[rng.below(w.vars.size())];
      switch (rng.below(6)) {
        case 0:
        case 1:
          w.mem->apply(p, MemOp::read(v));
          break;
        case 2:
        case 3:
          w.mem->apply(p, MemOp::write(v, static_cast<Word>(rng.below(4))));
          break;
        case 4:
          w.mem->apply(p, MemOp::cas(v, static_cast<Word>(rng.below(4)),
                                     static_cast<Word>(rng.below(4))));
          break;
        default:
          w.mem->apply(p, MemOp::faa(v, 1));
          break;
      }
    }
    const auto viol = w.fleet.check_invariants();
    ASSERT_FALSE(viol.has_value())
        << "seed " << seed << " step " << i << ": " << *viol;
  }
}

// The cycle ledger must decompose exactly over the default cost table, and
// transfers must be exactly the two fill kinds.
void expect_cycle_arithmetic(const SnoopingCache& c) {
  const ProtocolStats& s = c.stats();
  EXPECT_EQ(s.cycles, 100 * s.memory_fetches + 12 * s.cache_transfers +
                          2 * s.bus_signals + 2 * s.bus_updates +
                          100 * s.write_backs)
      << c.name();
  EXPECT_EQ(c.transfer_messages(), s.memory_fetches + s.cache_transfers)
      << c.name();
  std::uint64_t per_proc = 0;
  for (ProcId p = 0; p < c.nprocs(); ++p) per_proc += c.proc_cycles(p);
  EXPECT_EQ(per_proc, s.cycles) << c.name();
}

void expect_relations(World& w, bool crashed) {
  ProtocolFleet& f = w.fleet;
  SnoopingCache& mesi = *f.cache("mesi");
  SnoopingCache& mesif = *f.cache("mesif");
  SnoopingCache& moesi = *f.cache("moesi");
  SnoopingCache& dragon = *f.cache("dragon");

  // (a) Broadcast bus at par with RMRs.
  EXPECT_EQ(f.bus().transfer_messages(), w.mem->ledger().total_rmrs());

  // (b) The invalidation protocols destroy exactly the copies the ideal
  // directory says exist — and a snooping cache never sends a superfluous
  // invalidation.
  EXPECT_EQ(mesi.useful_invalidations(), f.ideal().invalidation_messages());
  EXPECT_EQ(mesif.useful_invalidations(), mesi.useful_invalidations());
  EXPECT_EQ(moesi.useful_invalidations(), mesi.useful_invalidations());
  for (SnoopingCache* c : {&mesi, &mesif, &moesi, &dragon}) {
    EXPECT_EQ(c->superfluous_invalidations(), 0u) << c->name();
    expect_cycle_arithmetic(*c);
  }

  // (c) Identical valid sets => identical miss pattern => identical
  // transfer-message counts across the invalidation family.
  EXPECT_EQ(mesif.transfer_messages(), mesi.transfer_messages());
  EXPECT_EQ(moesi.transfer_messages(), mesi.transfer_messages());

  // (d) Dragon is pure write-update: zero invalidations ever; its updates
  // dominate the copies the others destroy (it refreshes each of those and
  // possibly more, since its copies never die); its copies outliving
  // everything means it can only miss less.
  EXPECT_EQ(dragon.invalidation_messages(), 0u);
  EXPECT_GE(dragon.update_messages(), f.ideal().invalidation_messages());
  EXPECT_LE(dragon.transfer_messages(), mesi.transfer_messages());

  // (e) MOESI is exactly MESI minus the write-backs: same messages, and
  // the cycle gap is precisely the write-back traffic MESI paid.
  EXPECT_EQ(moesi.stats().write_backs, 0u);
  EXPECT_EQ(moesi.invalidation_messages(), mesi.invalidation_messages());
  EXPECT_EQ(mesi.total_cycles() - moesi.total_cycles(),
            100 * mesi.stats().write_backs);

  // (f) MESIF matches MESI cycle-for-cycle on crash-free traces; once an F
  // holder has crashed it can only be dearer (memory-fetch fallback).
  EXPECT_EQ(mesif.invalidation_messages(), mesi.invalidation_messages());
  if (crashed) {
    EXPECT_GE(mesif.total_cycles(), mesi.total_cycles());
  } else {
    EXPECT_EQ(mesif.total_cycles(), mesi.total_cycles());
  }
}

// Process counts for the random-trace suites: the small one they were
// written for, plus one full sharer-mask word (64), one past it (65), and
// three words (130), so mask walks and popcounts cross word boundaries.
constexpr int kProcCounts[] = {6, 64, 65, 130};

TEST(CoherenceDifferential, CrossProtocolRelationsOnRandomTraces) {
  for (const int n : kProcCounts) {
    for (const std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
      World w(n, /*nvars=*/3);
      drive_random(w, seed, /*steps=*/250, /*crashes=*/false);
      SCOPED_TRACE("nprocs " + std::to_string(n) + " seed " +
                   std::to_string(seed));
      expect_relations(w, /*crashed=*/false);
    }
  }
}

TEST(CoherenceDifferential, CrossProtocolRelationsSurviveCrashes) {
  for (const int n : kProcCounts) {
    for (const std::uint64_t seed : {11u, 12u, 13u}) {
      World w(n, /*nvars=*/3);
      drive_random(w, seed, /*steps=*/250, /*crashes=*/true);
      SCOPED_TRACE("nprocs " + std::to_string(n) + " seed " +
                   std::to_string(seed));
      expect_relations(w, /*crashed=*/true);
    }
  }
}

// MessageCounter::reset must restore every fleet member to a truly blank
// slate: replaying the identical trace after reset reproduces the identical
// tallies, bit for bit.
TEST(CoherenceDifferential, ResetReproducesIdenticalTallies) {
  World w(/*nprocs=*/6, /*nvars=*/3);
  drive_random(w, /*seed=*/99, /*steps=*/250, /*crashes=*/false);

  struct Tally {
    std::uint64_t transfers, invals, useful, updates, total;
  };
  std::vector<Tally> before;
  for (MessageCounter* c : w.fleet.counters()) {
    before.push_back({c->transfer_messages(), c->invalidation_messages(),
                      c->useful_invalidations(), c->update_messages(),
                      c->total_messages()});
  }
  std::vector<std::uint64_t> cycles_before;
  for (const auto& c : w.fleet.caches()) {
    cycles_before.push_back(c->total_cycles());
  }

  w.fleet.reset();
  for (MessageCounter* c : w.fleet.counters()) {
    EXPECT_EQ(c->transfer_messages(), 0u) << c->name();
    EXPECT_EQ(c->invalidation_messages(), 0u) << c->name();
    EXPECT_EQ(c->update_messages(), 0u) << c->name();
    EXPECT_EQ(c->total_messages(), 0u) << c->name();
  }
  for (const auto& c : w.fleet.caches()) {
    EXPECT_EQ(c->total_cycles(), 0u) << c->name();
    for (ProcId p = 0; p < c->nprocs(); ++p) {
      EXPECT_EQ(c->proc_cycles(p), 0u) << c->name();
    }
  }

  w.mem->reset();  // keeps the listener attached (callers own it)
  drive_random(w, /*seed=*/99, /*steps=*/250, /*crashes=*/false);
  std::size_t i = 0;
  for (MessageCounter* c : w.fleet.counters()) {
    EXPECT_EQ(c->transfer_messages(), before[i].transfers) << c->name();
    EXPECT_EQ(c->invalidation_messages(), before[i].invals) << c->name();
    EXPECT_EQ(c->useful_invalidations(), before[i].useful) << c->name();
    EXPECT_EQ(c->update_messages(), before[i].updates) << c->name();
    EXPECT_EQ(c->total_messages(), before[i].total) << c->name();
    ++i;
  }
  i = 0;
  for (const auto& c : w.fleet.caches()) {
    EXPECT_EQ(c->total_cycles(), cycles_before[i++]) << c->name();
  }
}

// ---- listener re-registration across Simulation::fork -------------------

ProcTask pingpong(ProcCtx& ctx, VarId v, int rounds) {
  for (int i = 0; i < rounds; ++i) {
    co_await ctx.write(v, ctx.id());
    co_await ctx.read(v);
  }
}

void run_round_robin(Simulation& sim, int nprocs) {
  while (!sim.all_terminated()) {
    for (ProcId p = 0; p < nprocs; ++p) {
      if (sim.runnable(p)) sim.step(p);
    }
  }
}

// A restored world deliberately carries NO coherence listener (snapshots
// capture the priced world, not the pricing observers): callers must
// re-register. The supported recipe — copy the cache at the fork point,
// attach the copy to the restored memory — must make the fork's tallies
// indistinguishable from the original's under the same schedule.
TEST(CoherenceDifferential, ForkedWorldNeedsListenerReRegistration) {
  const int n = 2;
  auto mem = make_cc(n);
  const VarId v = mem->allocate_global(0);
  MesiCache mesi(n);
  mem->set_listener(&mesi);

  Simulation sim(*mem, {[v](ProcCtx& ctx) { return pingpong(ctx, v, 4); },
                        [v](ProcCtx& ctx) { return pingpong(ctx, v, 4); }});
  sim.enable_fork_log();
  for (int i = 0; i < 6; ++i) sim.step(i % 2);

  MesiCache forked_cache = mesi;  // counter state at the fork point
  Simulation::ForkedWorld fw = sim.fork();
  // The clone has no listener: re-registration is the caller's job.
  EXPECT_EQ(fw.mem->listener(), nullptr);
  fw.mem->set_listener(&forked_cache);

  run_round_robin(sim, n);
  run_round_robin(*fw.sim, n);

  EXPECT_EQ(forked_cache.transfer_messages(), mesi.transfer_messages());
  EXPECT_EQ(forked_cache.invalidation_messages(),
            mesi.invalidation_messages());
  EXPECT_EQ(forked_cache.useful_invalidations(),
            mesi.useful_invalidations());
  EXPECT_EQ(forked_cache.total_cycles(), mesi.total_cycles());
  EXPECT_EQ(forked_cache.check_invariants(), std::nullopt);
  EXPECT_EQ(mesi.check_invariants(), std::nullopt);
  EXPECT_GT(mesi.total_cycles(), 0u);
}

// ---- write-buffer front end ---------------------------------------------

struct RecordingListener final : CoherenceListener {
  std::vector<CoherenceEvent> events;
  std::vector<ProcId> crashes;
  int flushes = 0;
  void on_event(const CoherenceEvent& e) override { events.push_back(e); }
  void on_crash(ProcId p) override { crashes.push_back(p); }
  void flush() override { ++flushes; }
};

CoherenceEvent make_event(ProcId p, VarId v, OpType op) {
  CoherenceEvent e;
  e.proc = p;
  e.var = v;
  e.op = op;
  e.rmr = true;
  e.nontrivial = op != OpType::kRead;
  return e;
}

TEST(WriteBufferTest, CoalescesStoresAndForwardsOwnReads) {
  RecordingListener rec;
  WriteBuffer wb(&rec, /*nprocs=*/2, /*capacity=*/4);
  wb.on_event(make_event(0, 0, OpType::kWrite));
  wb.on_event(make_event(0, 0, OpType::kWrite));
  wb.on_event(make_event(0, 0, OpType::kWrite));
  EXPECT_EQ(wb.pending(0), 1);  // coalesced in place
  EXPECT_EQ(wb.buffered_writes(), 1u);
  EXPECT_EQ(wb.coalesced_writes(), 2u);

  wb.on_event(make_event(0, 0, OpType::kRead));  // store forwarding
  EXPECT_EQ(wb.forwarded_reads(), 1u);
  EXPECT_TRUE(rec.events.empty());  // protocol saw nothing yet

  wb.flush();
  ASSERT_EQ(rec.events.size(), 1u);  // the single surviving store
  EXPECT_EQ(rec.events[0].op, OpType::kWrite);
  EXPECT_EQ(wb.drained_writes(), 1u);
  EXPECT_EQ(wb.pending(0), 0);
  EXPECT_EQ(rec.flushes, 1);
}

TEST(WriteBufferTest, CrossProcessorConflictDrainsBeforeTheAccess) {
  // {nprocs, holder, accessor}: the last three put the two processors in
  // different words of the buffer's holder mask.
  struct Case {
    int nprocs;
    ProcId holder;
    ProcId accessor;
  };
  for (const Case c : {Case{2, 0, 1}, Case{65, 64, 0}, Case{130, 0, 129},
                       Case{130, 129, 64}}) {
    SCOPED_TRACE("nprocs " + std::to_string(c.nprocs) + " holder " +
                 std::to_string(c.holder));
    RecordingListener rec;
    WriteBuffer wb(&rec, c.nprocs, /*capacity=*/4);
    wb.on_event(make_event(c.holder, 7, OpType::kWrite));
    EXPECT_TRUE(rec.events.empty());

    // The accessor touches the same variable: the holder's buffered store
    // must become visible first, then the accessor's read reaches the
    // protocol.
    wb.on_event(make_event(c.accessor, 7, OpType::kRead));
    ASSERT_EQ(rec.events.size(), 2u);
    EXPECT_EQ(rec.events[0].proc, c.holder);
    EXPECT_EQ(rec.events[0].op, OpType::kWrite);
    EXPECT_EQ(rec.events[1].proc, c.accessor);
    EXPECT_EQ(rec.events[1].op, OpType::kRead);

    // A read of an unrelated variable passes straight through.
    wb.on_event(make_event(c.accessor, 8, OpType::kRead));
    EXPECT_EQ(rec.events.size(), 3u);
  }
}

TEST(WriteBufferTest, AtomicsAreAFullBarrierForTheIssuer) {
  RecordingListener rec;
  WriteBuffer wb(&rec, /*nprocs=*/2, /*capacity=*/4);
  wb.on_event(make_event(0, 1, OpType::kWrite));
  wb.on_event(make_event(0, 2, OpType::kWrite));
  wb.on_event(make_event(0, 9, OpType::kCas));
  ASSERT_EQ(rec.events.size(), 3u);  // both stores, FIFO order, then the CAS
  EXPECT_EQ(rec.events[0].var, 1);
  EXPECT_EQ(rec.events[1].var, 2);
  EXPECT_EQ(rec.events[2].op, OpType::kCas);
  EXPECT_EQ(wb.pending(0), 0);
}

TEST(WriteBufferTest, CapacityOverflowDrainsTheFifo) {
  RecordingListener rec;
  WriteBuffer wb(&rec, /*nprocs=*/1, /*capacity=*/2);
  wb.on_event(make_event(0, 0, OpType::kWrite));
  wb.on_event(make_event(0, 1, OpType::kWrite));
  EXPECT_EQ(wb.pending(0), 2);
  wb.on_event(make_event(0, 2, OpType::kWrite));  // overflows: drain first
  EXPECT_EQ(rec.events.size(), 2u);
  EXPECT_EQ(wb.pending(0), 1);
}

TEST(WriteBufferTest, CrashDrainsThenPowersDown) {
  RecordingListener rec;
  WriteBuffer wb(&rec, /*nprocs=*/2, /*capacity=*/4);
  wb.on_event(make_event(0, 3, OpType::kWrite));
  wb.on_crash(0);
  // Drain-then-die: the buffered store became visible before the crash
  // reached the protocol.
  ASSERT_EQ(rec.events.size(), 1u);
  EXPECT_EQ(rec.events[0].op, OpType::kWrite);
  ASSERT_EQ(rec.crashes.size(), 1u);
  EXPECT_EQ(rec.crashes[0], 0);
  EXPECT_EQ(wb.pending(0), 0);
}

// Behind a live SharedMemory, a buffered fleet still ends every run with
// all invariants intact and conserves events: everything buffered is
// eventually drained, and the protocol sees exactly the applied ops minus
// coalesced stores and forwarded reads.
TEST(WriteBufferTest, FleetBehindBufferConservesEventsAndInvariants) {
  for (const int n : {4, 64, 65, 130}) {
    SCOPED_TRACE("nprocs " + std::to_string(n));
    World w(n, /*nvars=*/3, /*write_buffer=*/4);
    const WriteBuffer& wb = *w.fleet.write_buffer();

    SplitMix64 rng(7);
    std::uint64_t applied = 0;
    for (int i = 0; i < 300; ++i) {
      const auto p = static_cast<ProcId>(rng.below(n));
      const VarId v = w.vars[rng.below(w.vars.size())];
      if (rng.chance(1, 2)) {
        w.mem->apply(p, MemOp::write(v, static_cast<Word>(rng.below(4))));
      } else {
        w.mem->apply(p, MemOp::read(v));
      }
      ++applied;
    }
    w.fleet.flush();
    EXPECT_EQ(wb.drained_writes(), wb.buffered_writes());
    ASSERT_EQ(w.fleet.check_invariants(), std::nullopt);

    // Event conservation at the protocol boundary: the bus counter ticks
    // once per event it sees, all of which are RMRs here (write-through
    // CC, and reads that would be local hits were absorbed by the buffer
    // or the schedule's own locality).
    const std::uint64_t seen = w.fleet.bus().transfer_messages();
    EXPECT_LE(seen + wb.coalesced_writes() + wb.forwarded_reads(), applied);
    EXPECT_GT(seen, 0u);
  }
}

}  // namespace
}  // namespace rmrsim
