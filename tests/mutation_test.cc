// Mutation tests: each subject algorithm contains one load-bearing
// instruction ordering (register FIRST, then check the global flag — the
// race the paper's prose calls out: "we must handle correctly the race
// condition when waiters register while the signaler is calling Signal()").
// Here we build mutated (wrong-order) variants and demand that the
// explorers FIND their violating schedules — proving both that the order
// matters and that our verification tooling can tell.
//
// Every schedule-level mutant is convicted twice — by the naive exhaustive
// explorer and by the DPOR engine — and the DPOR counterexample is then
// shrunk. The shrunk witness must still reproduce the exact violation and
// must be no longer than the naive explorer's counterexample, pinning both
// the reduction's completeness and the shrinker's usefulness. The
// crash-conditional mutant (BrokenRecoveryLock) is convicted by the
// crash x schedule product, with the correct RecoverableSpinLock passing
// the identical sweep as the differential control.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "explore_fixtures.h"
#include "memory/shared_memory.h"
#include "mutex/lock.h"
#include "mutex/recoverable_lock.h"
#include "sched/schedulers.h"
#include "signaling/algorithm.h"
#include "signaling/broken.h"
#include "verify/dpor.h"
#include "verify/explorer.h"
#include "verify/shrink.h"
#include "verify/snapshot_cache.h"

namespace rmrsim {
namespace {

// DsmRegistrationSignal with the first-call order flipped: check S BEFORE
// registering. Wrong: the signaler can sweep between our S read (false) and
// our registration, completing Signal() while knowing nothing about us; our
// next polls spin on a V that will never be written... and the *first* call
// already returned a legal false. The violation appears at the second
// completed poll after Signal() completed.
class RacyRegistrationSignal final : public SignalingAlgorithm {
 public:
  RacyRegistrationSignal(SharedMemory& mem, ProcId signaler)
      : signaler_(signaler), s_(mem.allocate_global(0, "S")) {
    for (ProcId i = 0; i < mem.nprocs(); ++i) {
      reg_.push_back(
          mem.allocate_local(signaler_, 0, "Reg[" + std::to_string(i) + "]"));
      v_.push_back(mem.allocate_local(i, 0, "V[" + std::to_string(i) + "]"));
      first_done_.push_back(
          mem.allocate_local(i, 0, "First[" + std::to_string(i) + "]"));
    }
  }

  SubTask<bool> poll(ProcCtx& ctx) override {
    const ProcId me = ctx.id();
    const Word done = co_await ctx.read(first_done_[me]);
    if (done == 0) {
      const Word s = co_await ctx.read(s_);  // BUG: S checked before...
      co_await ctx.write(reg_[me], 1);       // ...registering
      co_await ctx.write(first_done_[me], 1);
      co_return s != 0;
    }
    const Word v = co_await ctx.read(v_[me]);
    co_return v != 0;
  }

  SubTask<void> signal(ProcCtx& ctx) override {
    co_await ctx.write(s_, 1);
    for (ProcId i = 0; i < static_cast<ProcId>(reg_.size()); ++i) {
      const Word r = co_await ctx.read(reg_[i]);
      if (r != 0) co_await ctx.write(v_[i], 1);
    }
  }

  std::string_view name() const override { return "racy-registration"; }

 private:
  ProcId signaler_;
  VarId s_;
  std::vector<VarId> reg_;
  std::vector<VarId> v_;
  std::vector<VarId> first_done_;
};

// The signaler side of the single-waiter algorithm with ITS order flipped:
// read W before writing S. Wrong: the waiter can register and read S = 0
// (legal false) after we read W = NIL but before we set S — then nobody
// ever writes its V, and its next poll falsely returns false after our
// Signal() completed.
class RacySingleWaiterSignal final : public SignalingAlgorithm {
 public:
  explicit RacySingleWaiterSignal(SharedMemory& mem)
      : w_(mem.allocate_global(-1, "W")), s_(mem.allocate_global(0, "S")) {
    for (ProcId i = 0; i < mem.nprocs(); ++i) {
      v_.push_back(mem.allocate_local(i, 0, "V[" + std::to_string(i) + "]"));
      registered_.push_back(
          mem.allocate_local(i, 0, "Reg[" + std::to_string(i) + "]"));
    }
  }

  SubTask<bool> poll(ProcCtx& ctx) override {
    const ProcId me = ctx.id();
    const Word reg = co_await ctx.read(registered_[me]);
    if (reg == 0) {
      co_await ctx.write(w_, me);
      co_await ctx.write(registered_[me], 1);
      const Word s = co_await ctx.read(s_);
      co_return s != 0;
    }
    const Word v = co_await ctx.read(v_[me]);
    co_return v != 0;
  }

  SubTask<void> signal(ProcCtx& ctx) override {
    const Word w = co_await ctx.read(w_);  // BUG: W read before...
    co_await ctx.write(s_, 1);             // ...publishing S
    if (w != -1) {
      co_await ctx.write(v_[static_cast<ProcId>(w)], 1);
    }
  }

  std::string_view name() const override { return "racy-single-waiter"; }

 private:
  VarId w_;
  VarId s_;
  std::vector<VarId> v_;
  std::vector<VarId> registered_;
};

// signaling_explore_builder's world, but each waiter gets its own poll
// budget.
template <typename Alg, typename... Args>
ExploreBuilder mixed_polls_builder(std::vector<int> waiter_polls,
                                   Args... args) {
  return [=]() {
    ExploreInstance inst;
    inst.mem = make_dsm(static_cast<int>(waiter_polls.size()) + 1);
    auto alg = std::make_shared<Alg>(*inst.mem, args...);
    std::vector<Program> programs;
    SignalingAlgorithm* a = alg.get();
    for (const int polls : waiter_polls) {
      programs.emplace_back(
          [a, polls](ProcCtx& ctx) { return polling_waiter(ctx, a, polls); });
    }
    programs.emplace_back([a](ProcCtx& ctx) { return signaler(ctx, a); });
    inst.sim = std::make_unique<Simulation>(*inst.mem, std::move(programs));
    inst.keepalive = alg;
    return inst;
  };
}

// Convicts a mutant with both explorers and shrinks the DPOR witness.
// Asserted invariants: both find a violation; the shrunk schedule still
// reproduces the DPOR violation's exact message; the shrunk schedule is no
// longer than the naive explorer's counterexample. Both search to
// `max_depth`; DPOR within 2M nodes.
void convict(const ExploreBuilder& build, const ExploreChecker& check,
             int max_depth, std::uint64_t naive_max_nodes = 2'000'000) {
  const ExploreOptions naive_options{.max_depth = max_depth,
                                     .max_nodes = naive_max_nodes};
  DporOptions dpor_options;
  dpor_options.max_depth = max_depth;
  dpor_options.max_nodes = 2'000'000;
  const ExploreResult naive =
      explore_all_schedules(build, check, naive_options);
  ASSERT_TRUE(naive.violation.has_value())
      << "mutant not convicted by the naive explorer";
  ASSERT_FALSE(naive.violating_schedule.empty());

  const ExploreResult dpor = explore_dpor(build, check, dpor_options);
  ASSERT_TRUE(dpor.violation.has_value())
      << "mutant not convicted by the DPOR explorer (naive found: "
      << *naive.violation << ")";
  ASSERT_FALSE(dpor.violating_schedule.empty());

  const auto shrunk =
      shrink_counterexample(build, check, dpor.violating_schedule);
  ASSERT_TRUE(shrunk.has_value())
      << "DPOR counterexample did not reproduce on replay";
  EXPECT_EQ(shrunk->message, *dpor.violation);
  EXPECT_LE(shrunk->schedule.size(), naive.violating_schedule.size())
      << "shrunk witness longer than the naive counterexample";

  // The shrunk schedule is a real witness: replay it once more.
  const auto replayed = reproduce_violation(build, check, shrunk->schedule);
  ASSERT_TRUE(replayed.has_value());
  EXPECT_EQ(replayed->first, shrunk->message);
}

TEST(Mutation, RacyRegistrationConvictedAndShrunk) {
  convict(signaling_explore_builder(
              "dsm", signal_factory<RacyRegistrationSignal>(ProcId{1}), 1, 2),
          polling_spec_checker(), 24);
}

TEST(Mutation, RacySingleWaiterConvictedAndShrunk) {
  convict(signaling_explore_builder(
              "dsm", signal_factory<RacySingleWaiterSignal>(), 1, 2),
          polling_spec_checker(), 24);
}

TEST(Mutation, LateFlagConvictedAndShrunk) {
  // Signal() sweeps before writing S: the waiter registers after the sweep
  // passed it, reads S = 0 (legal false), and is never delivered — its
  // second poll returns false after Signal() completed.
  convict(signaling_explore_builder(
              "dsm", signal_factory<LateFlagSignal>(ProcId{1}), 1, 2),
          polling_spec_checker(), 24);
}

TEST(Mutation, DroppedRecheckCasConvictedAndShrunk) {
  // Two waiters race their single-attempt pushes; the loser proceeds as if
  // registered. The winner (one poll) is process 0 and the loser (two
  // polls — the second reads a V no sweep will write) is process 1: the
  // naive DFS's leftmost subtrees then run the winner's push to its CAS
  // first, so the racing deviation (loser reads Head before that CAS) is
  // reached after thousands of nodes instead of after the millions-deep
  // "loser registers cleanly first" subtree it would face the other way
  // round.
  convict(mixed_polls_builder<DroppedRecheckCasSignal>({1, 2}),
          polling_spec_checker(), 26, 20'000'000);
}

// ---------------------------------------------------------------------------
// BrokenRecoveryLock: crash-conditional, so schedule exploration alone must
// acquit it and the crash x schedule product must convict it.
// ---------------------------------------------------------------------------

// A recoverable worker with a wide critical section: one occupancy slot
// write, several spacer reads, then the slot clear. The spacers keep the
// holder inside the CS long enough for a recovering victim's bogus free —
// plus the thief's doorway and CAS — to land while the slot is still up.
ProcTask slot_mutex_worker(ProcCtx& ctx, RecoverableMutexAlgorithm* lock,
                           VarId slot, VarId spacer) {
  co_await lock->recover(ctx);
  co_await lock->acquire(ctx);
  co_await ctx.write(slot, 1);
  for (int i = 0; i < 6; ++i) co_await ctx.read(spacer);
  co_await ctx.write(slot, 0);
  co_await lock->release(ctx);
}

template <typename Lock>
ExploreBuilder slot_mutex_builder(int nprocs) {
  return [=]() {
    ExploreInstance inst;
    inst.mem = make_dsm(nprocs);
    const VarId spacer = inst.mem->allocate_global(0, "spacer");
    std::vector<VarId> slots;
    for (ProcId p = 0; p < nprocs; ++p) {
      slots.push_back(inst.mem->allocate_local(
          p, 0, "slot[" + std::to_string(p) + "]"));
    }
    auto lock = std::make_shared<Lock>(*inst.mem);
    std::vector<Program> programs;
    RecoverableMutexAlgorithm* l = lock.get();
    for (ProcId p = 0; p < nprocs; ++p) {
      const VarId slot = slots[p];
      programs.emplace_back([l, slot, spacer](ProcCtx& ctx) {
        return slot_mutex_worker(ctx, l, slot, spacer);
      });
    }
    inst.sim = std::make_unique<Simulation>(*inst.mem, std::move(programs));
    inst.keepalive = lock;
    return inst;
  };
}

// Crash-aware occupancy checker over the slot writes: a crash aborts the
// victim's passage, so its raised slot stops counting (the stale 1 in
// memory is exactly what a real post-crash state looks like). Two slots
// raised by live processes at once = two processes in the CS.
ExploreChecker slot_checker(std::vector<VarId> slots) {
  return [slots = std::move(slots)](
             const History& h) -> std::optional<std::string> {
    std::vector<bool> up(slots.size(), false);
    int raised = 0;
    for (const StepRecord& r : h.records()) {
      if (r.kind == StepRecord::Kind::kEvent) {
        if (r.event == EventKind::kCrash && r.proc >= 0 &&
            r.proc < static_cast<ProcId>(slots.size()) && up[r.proc]) {
          up[r.proc] = false;
          --raised;
        }
        continue;
      }
      if (r.op.type != OpType::kWrite) continue;
      for (std::size_t p = 0; p < slots.size(); ++p) {
        if (r.op.var != slots[p]) continue;
        if (r.op.arg0 != 0 && !up[p]) {
          up[p] = true;
          if (++raised >= 2) {
            return "two processes in the critical section simultaneously";
          }
        } else if (r.op.arg0 == 0 && up[p]) {
          up[p] = false;
          --raised;
        }
      }
    }
    return std::nullopt;
  };
}

// Variable ids are deterministic (allocation order), so one throwaway build
// yields the slot ids every rebuilt world will use.
std::vector<VarId> probe_slot_ids(const ExploreBuilder& build, int nprocs) {
  const ExploreInstance inst = build();
  std::vector<VarId> slots;
  for (ProcId p = 0; p < nprocs; ++p) {
    // Allocation order in slot_mutex_builder: spacer first (VarId 0), then
    // one slot per process.
    slots.push_back(static_cast<VarId>(1 + p));
  }
  EXPECT_EQ(inst.mem->nprocs(), nprocs);
  return slots;
}

CrashProductOptions slot_product_options() {
  CrashProductOptions o;
  o.explore.max_depth = 40;
  o.explore.max_nodes = 2'000'000;
  o.max_schedules = 1024;
  // Recover the victim immediately: its (broken) recovery section then runs
  // concurrently with whatever the survivors were mid-flight on.
  o.recover_after = 0;
  o.max_steps = 100'000;
  return o;
}

// Replays `prefix`, crashes + immediately recovers the victim, drives the
// run fairly, and returns the final-history verdict. The reproduction
// primitive for crash-product counterexamples (the analogue of
// reproduce_violation for the crash axis).
std::optional<std::string> reproduce_crash_violation(
    const ExploreBuilder& build, const ExploreChecker& check, ProcId victim,
    const std::vector<ProcId>& prefix) {
  ExploreInstance inst = materialize_schedule(build, {}, ReplayUnit::kMacro,
                                              /*counters_only=*/false,
                                              /*cache=*/nullptr);
  Simulation& sim = *inst.sim;
  for (const ProcId p : prefix) {
    ensure(sim.runnable(p), "macro schedule replay diverged");
    sim.macro_step(p);
  }
  if (sim.terminated(victim)) return std::nullopt;
  sim.crash(victim);
  sim.recover(victim);
  fair_drive(sim, 100'000);
  return check(sim.history());
}

TEST(Mutation, BrokenRecoveryLockConvictedByCrashProduct) {
  constexpr int kProcs = 2;
  // The victim must be process 0: the product sweeps crash points along the
  // LEX-LEAST representatives of the reduced schedule classes, and those
  // representatives front-load the low-id process's failed CAS spins right
  // after the other process's winning CAS — i.e. with the winner's critical
  // section still entirely ahead. Crashing 0 at such a spin leaves want[0]
  // raised while 1 holds; 0's bogus recovery frees the lock and 0 steals
  // the CS while 1's slot is still up. (With victim 1 the representatives
  // place 1's spins after 0 has already cleared its slot, and every crash
  // point is harmlessly late — a real coverage property of reduced-schedule
  // sweeping, not an accident.)
  constexpr ProcId kVictim = 0;
  const auto build = slot_mutex_builder<BrokenRecoveryLock>(kProcs);
  const auto check = slot_checker(probe_slot_ids(build, kProcs));

  const CrashProductResult r =
      sweep_crash_product(build, check, kVictim, slot_product_options());

  // Crash-conditional: exploration alone (no crashes) must acquit it...
  EXPECT_FALSE(r.schedule_violation.has_value())
      << *r.schedule_violation << " — the mutant is supposed to be "
      << "indistinguishable from the correct lock in crash-free runs";
  // ...and the crash sweep along explored schedules must convict it.
  ASSERT_TRUE(r.sweep.violation.has_value())
      << "crash x schedule product failed to convict the broken recovery "
      << "(swept " << r.schedules_swept << " schedules, "
      << r.sweep.crash_points << " crash points)";
  ASSERT_FALSE(r.violating_schedule.empty());
  ASSERT_GE(r.sweep.violating_crash_point, 0);

  // The product's counterexample is a (schedule prefix, crash point) pair;
  // check it reproduces, then shrink the prefix greedily: drop steps while
  // the crash still reproduces the violation.
  std::vector<ProcId> prefix(
      r.violating_schedule.begin(),
      r.violating_schedule.begin() + r.sweep.violating_crash_point);
  ASSERT_EQ(reproduce_crash_violation(build, check, kVictim, prefix),
            r.sweep.violation);
  for (std::size_t i = 0; i < prefix.size();) {
    std::vector<ProcId> cand = prefix;
    cand.erase(cand.begin() + static_cast<std::ptrdiff_t>(i));
    if (reproduce_crash_violation(build, check, kVictim, cand) ==
        r.sweep.violation) {
      prefix = std::move(cand);  // the element now at i is new: retry slot i
    } else {
      ++i;
    }
  }
  EXPECT_LE(prefix.size(),
            static_cast<std::size_t>(r.sweep.violating_crash_point));
  ASSERT_EQ(reproduce_crash_violation(build, check, kVictim, prefix),
            r.sweep.violation);
}

TEST(Mutation, CorrectRecoverableLockPassesTheSameCrashProduct) {
  // Differential control: the correct lock survives the identical sweep.
  constexpr int kProcs = 2;
  constexpr ProcId kVictim = 0;
  const auto build = slot_mutex_builder<RecoverableSpinLock>(kProcs);
  const auto check = slot_checker(probe_slot_ids(build, kProcs));

  const CrashProductResult r =
      sweep_crash_product(build, check, kVictim, slot_product_options());

  EXPECT_FALSE(r.schedule_violation.has_value());
  EXPECT_FALSE(r.sweep.violation.has_value())
      << *r.sweep.violation << " at crash point "
      << r.sweep.violating_crash_point;
  EXPECT_GT(r.schedules_swept, 0);
  EXPECT_GT(r.sweep.completed, 0);
}

}  // namespace
}  // namespace rmrsim
