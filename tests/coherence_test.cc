// Tests for the Section 8 interconnect-message accounting: RMRs are "at
// par" with messages on a broadcast bus, an ideal directory never sends
// superfluous invalidations (so messages track RMRs amortized), and a coarse
// directory broadcasts blindly (messages can exceed RMRs asymptotically).
#include <gtest/gtest.h>

#include "coherence/fleet.h"
#include "memory/cc_model.h"
#include "memory/shared_memory.h"
#include "sched/schedulers.h"
#include "signaling/cc_flag.h"

namespace rmrsim {
namespace {

TEST(Coherence, BusMessagesEqualRmrs) {
  const int n = 8;
  auto mem = make_cc(n);
  ProtocolFleet c(n, {}, /*legacy_counters=*/true);
  mem->set_listener(c.listener());
  const VarId v = mem->allocate_global(0);
  for (int round = 0; round < 5; ++round) {
    for (ProcId p = 0; p < n; ++p) mem->apply(p, MemOp::read(v));
    mem->apply(0, MemOp::write(v, round));
  }
  EXPECT_EQ(c.bus().transfer_messages(), mem->ledger().total_rmrs());
}

TEST(Coherence, IdealDirectoryInvalidatesOnlyRealCopies) {
  const int n = 8;
  auto mem = make_cc(n);
  ProtocolFleet c(n, {}, /*legacy_counters=*/true);
  mem->set_listener(c.listener());
  const VarId v = mem->allocate_global(0);
  // 3 readers cache v, then p0 writes: exactly 3 remote copies existed
  // (readers) — p0 had no copy, so 3 useful invalidations, 0 superfluous.
  for (ProcId p = 1; p <= 3; ++p) mem->apply(p, MemOp::read(v));
  mem->apply(0, MemOp::write(v, 1));
  EXPECT_EQ(c.ideal().invalidation_messages(), 3u);
  EXPECT_EQ(c.ideal().superfluous_invalidations(), 0u);
}

TEST(Coherence, CoarseDirectoryBroadcastsBlindly) {
  const int n = 16;
  auto mem = make_cc(n);
  ProtocolFleet c(n, {}, /*legacy_counters=*/true);
  mem->set_listener(c.listener());
  const VarId v = mem->allocate_global(0);
  // One reader caches v, then p0 writes. The coarse directory only knows
  // "someone may hold it" and blasts all N-1 others.
  mem->apply(1, MemOp::read(v));
  mem->apply(0, MemOp::write(v, 1));
  EXPECT_EQ(c.coarse().invalidation_messages(), static_cast<std::uint64_t>(n - 1));
  EXPECT_EQ(c.coarse().useful_invalidations(), 1u);
  EXPECT_EQ(c.coarse().superfluous_invalidations(),
            static_cast<std::uint64_t>(n - 2));
  // The ideal directory sent exactly one.
  EXPECT_EQ(c.ideal().invalidation_messages(), 1u);
}

TEST(Coherence, InvalidationsBoundedByRmrsUnderIdealDirectory) {
  // Section 8's key observation: a cached copy is invalidated at most once
  // and creating it took an RMR, so (ideal-directory) invalidations <= RMRs.
  const int n = 8;
  auto mem = make_cc(n);
  ProtocolFleet c(n, {}, /*legacy_counters=*/true);
  mem->set_listener(c.listener());
  const VarId a = mem->allocate_global(0);
  const VarId b = mem->allocate_global(0);
  SplitMix64 rng(2024);
  for (int step = 0; step < 2000; ++step) {
    const ProcId p = static_cast<ProcId>(rng.below(n));
    const VarId v = rng.chance(1, 2) ? a : b;
    if (rng.chance(1, 3)) {
      mem->apply(p, MemOp::write(v, static_cast<Word>(step)));
    } else {
      mem->apply(p, MemOp::read(v));
    }
  }
  EXPECT_LE(c.ideal().useful_invalidations(), mem->ledger().total_rmrs());
}

TEST(Coherence, SignalingWorkloadMessageExchangeRate) {
  // The paper's practical caveat (end of Section 8): under a coarse
  // directory, the broadcast write of the CC flag algorithm triggers ~N
  // messages although it is a single RMR, so amortized message complexity
  // exceeds amortized RMR complexity.
  const int n_waiters = 4;
  const int n_idle = 12;  // processors that never cache the flag
  const int nprocs = n_waiters + n_idle + 1;
  auto mem = make_cc(nprocs);
  ProtocolFleet c(nprocs, {}, /*legacy_counters=*/true);
  mem->set_listener(c.listener());
  CcFlagSignal alg(*mem);
  std::vector<Program> programs;
  for (int i = 0; i < n_waiters; ++i) {
    programs.emplace_back(
        [&alg](ProcCtx& ctx) { return polling_waiter(ctx, &alg, 100'000); });
  }
  for (int i = 0; i < n_idle; ++i) programs.emplace_back(Program{});
  programs.emplace_back([&alg](ProcCtx& ctx) { return signaler(ctx, &alg, 4); });
  Simulation sim(*mem, std::move(programs));
  RoundRobinScheduler rr;
  ASSERT_TRUE(sim.run(rr, 10'000'000).all_terminated);

  // Bus: messages == RMRs ("at par").
  EXPECT_EQ(c.bus().transfer_messages(), mem->ledger().total_rmrs());
  // Coarse directory: the one flag write invalidated all N-1 caches.
  EXPECT_GE(c.coarse().invalidation_messages(),
            static_cast<std::uint64_t>(nprocs - 1));
  EXPECT_GT(c.coarse().superfluous_invalidations(), 0u);
  // Ideal directory: one invalidation per waiter copy that actually existed.
  EXPECT_LE(c.ideal().invalidation_messages(),
            static_cast<std::uint64_t>(n_waiters + 1));
}

TEST(Coherence, DsmHasNoRealInvalidationTraffic) {
  // In DSM (no caches, remote_copies_before always 0) an exact directory
  // never invalidates anything: "any RMR generates a fixed amount of
  // communication" (Section 8) — transfers only.
  const int n = 4;
  auto mem = make_dsm(n);
  ProtocolFleet c(n, {}, /*legacy_counters=*/true);
  mem->set_listener(c.listener());
  const VarId v = mem->allocate_global(0);
  for (ProcId p = 0; p < n; ++p) {
    mem->apply(p, MemOp::write(v, p));
    mem->apply(p, MemOp::read(v));
  }
  EXPECT_EQ(c.bus().transfer_messages(), mem->ledger().total_rmrs());
  EXPECT_EQ(c.ideal().invalidation_messages(), 0u);  // no copies ever exist
}

}  // namespace
}  // namespace rmrsim
