// Explore fixtures shared by the model-checking test suites, and the one
// corpus of explore worlds the oracle matrix (oracle_matrix_test.cc) runs
// every engine pair on. Signal and mutex worlds come from harness/drive.h
// (signaling_explore_builder, mutex_explore_builder), the builders
// `rmrsim_cli explore` uses; what is here exists only in tests.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/check.h"
#include "gme/session_gme.h"
#include "harness/drive.h"
#include "mutex/lock.h"
#include "mutex/mcs_lock.h"
#include "mutex/simple_locks.h"
#include "mutex/ya_lock.h"
#include "signaling/broken.h"
#include "verify/explorer.h"

namespace rmrsim {

/// Factory for a signaling algorithm constructed as Alg(mem, args...) —
/// how a test-only variant reaches signaling_explore_builder.
template <typename Alg, typename... Args>
SignalingFactory signal_factory(Args... args) {
  return [=](SharedMemory& m) { return std::make_unique<Alg>(m, args...); };
}

/// A "lock" that never locks: the checkers' sharpness control.
class NoLock final : public MutexAlgorithm {
 public:
  explicit NoLock(SharedMemory&) {}
  SubTask<void> acquire(ProcCtx& ctx) override { co_await ctx.mark(0); }
  SubTask<void> release(ProcCtx& ctx) override { co_await ctx.mark(1); }
  std::string_view name() const override { return "no-lock"; }
};

// Mutual exclusion, memory-level: an occupancy gauge inside the CS. The
// gauge FAA's recorded result is the number of peers already inside — any
// nonzero result is a violation, visible in every macro-stepped schedule
// (event positions are not; see verify/explorer.h).
//
// Variable ids are allocation-ordered and the gauge is allocated first, so
// it is always VarId 0: build() writes no shared state and is safe to call
// from several explore workers at once.
constexpr VarId kGauge = 0;

inline ProcTask gauge_mutex_worker(ProcCtx& ctx, MutexAlgorithm* lock,
                                   int passages) {
  for (int i = 0; i < passages; ++i) {
    co_await lock->acquire(ctx);
    co_await ctx.faa(kGauge, 1);
    co_await ctx.faa(kGauge, -1);
    co_await lock->release(ctx);
  }
}

template <typename Lock>
ExploreBuilder gauge_mutex_builder(int nprocs, int passages,
                                   const std::string& model = "dsm") {
  return [=]() {
    ExploreInstance inst;
    inst.mem = make_model_by_name(model, nprocs);
    ensure(inst.mem->allocate_global(0, "cs-gauge") == kGauge,
           "the gauge is the first variable");
    auto lock = std::make_shared<Lock>(*inst.mem);
    std::vector<Program> programs;
    MutexAlgorithm* l = lock.get();
    for (int i = 0; i < nprocs; ++i) {
      programs.emplace_back([l, passages](ProcCtx& ctx) {
        return gauge_mutex_worker(ctx, l, passages);
      });
    }
    inst.sim = std::make_unique<Simulation>(*inst.mem, std::move(programs));
    inst.keepalive = lock;
    return inst;
  };
}

inline ExploreChecker gauge_checker() {
  return [](const History& h) -> std::optional<std::string> {
    for (const StepRecord& r : h.records()) {
      if (r.kind == StepRecord::Kind::kMemOp && r.op.type == OpType::kFaa &&
          r.op.var == kGauge && r.op.arg0 == 1 && r.outcome.result != 0) {
        return "two processes inside the critical section (gauge=" +
               std::to_string(r.outcome.result + 1) + ")";
      }
    }
    return std::nullopt;
  };
}

// GME, memory-level: one gauge per session; after entering session s a
// process bumps gauge[s] and reads gauge[1-s], which must be zero. As with
// kGauge, the gauges are the first variables, so build() writes no shared
// state.
constexpr VarId kSessionGauge[2] = {0, 1};

inline ProcTask session_gme_worker(ProcCtx& ctx, GmeAlgorithm* g, Word s) {
  co_await g->enter(ctx, s);
  co_await ctx.faa(kSessionGauge[s], 1);
  co_await ctx.read(kSessionGauge[1 - s]);  // recorded; must be 0
  co_await ctx.faa(kSessionGauge[s], -1);
  co_await g->exit(ctx);
}

/// Two processes, process i in session i, over SessionGme on a TAS lock.
inline ExploreBuilder session_gme_builder() {
  return []() {
    ExploreInstance inst;
    inst.mem = make_dsm(2);
    ensure(inst.mem->allocate_global(0, "g0") == kSessionGauge[0] &&
               inst.mem->allocate_global(0, "g1") == kSessionGauge[1],
           "the session gauges are the first variables");
    auto alg = std::make_shared<SessionGme>(
        *inst.mem, std::make_unique<TasLock>(*inst.mem));
    std::vector<Program> programs;
    GmeAlgorithm* g = alg.get();
    for (Word s = 0; s < 2; ++s) {
      programs.emplace_back(
          [g, s](ProcCtx& ctx) { return session_gme_worker(ctx, g, s); });
    }
    inst.sim = std::make_unique<Simulation>(*inst.mem, std::move(programs));
    inst.keepalive = alg;
    return inst;
  };
}

inline ExploreChecker session_gme_checker() {
  return [](const History& h) -> std::optional<std::string> {
    for (const StepRecord& r : h.records()) {
      if (r.kind == StepRecord::Kind::kMemOp && r.op.type == OpType::kRead &&
          (r.op.var == kSessionGauge[0] || r.op.var == kSessionGauge[1]) &&
          r.outcome.result != 0) {
        return "two sessions share the critical section";
      }
    }
    return std::nullopt;
  };
}

/// A checker that reads aggregate counters only, so it also runs on
/// counters-only histories: no step is charged more than one RMR.
inline ExploreChecker counter_grade_checker() {
  return [](const History& h) -> std::optional<std::string> {
    if (h.total_rmrs() > h.size()) return "more RMRs than steps";
    return std::nullopt;
  };
}

/// What the naive explorer does on a corpus world under its node budget.
enum class NaiveReach {
  kExhausts,  ///< finishes: every schedule, or up to the first violation
  kBudget,    ///< trips the node budget (the reduction's reach claim)
  kSkipped,   ///< not run: the world exists for the crash/shrink rows
};

/// How the depth bound cuts a clean world's schedules, as every engine
/// that exhausts it must report.
enum class DepthCut {
  kNone,  ///< every schedule runs to completion
  kSome,  ///< some complete, some are truncated
  kAll,   ///< every schedule is truncated
};

/// One world of the oracle corpus, with what every engine must say on it.
/// Every member has a default so rows name only what they set.
struct ExploreWorld {
  std::string name = {};
  ExploreBuilder build = {};
  ExploreChecker check = {};
  int depth = 0;
  std::uint64_t max_nodes = 0;
  bool violates = false;  ///< expected verdict of every engine
  /// Known defect, pinned so that a fix has to flip it: DPOR reports this
  /// violating world clean. Not yet diagnosed; a plausible cause is that
  /// explore_dpor only sees races between steps it has executed, so a race
  /// with a step past the depth bound never adds its backtrack point.
  bool dpor_misses = false;
  NaiveReach naive = NaiveReach::kExhausts;
  DepthCut cut = DepthCut::kNone;  ///< clean worlds only
  /// Cheap enough for the naive explorer in replay mode too.
  bool small = false;
  /// Minimum naive/DPOR node ratio (0 = none claimed).
  std::uint64_t min_ratio = 0;
  /// Replay-vs-snapshot rows for the crash-point sweep of process 0, the
  /// crash x schedule product and the shrinker of the DPOR witness.
  bool crash_sweep = false;
  bool crash_product = false;
  bool shrink = false;
};

/// The oracle corpus: one row per explore world.
inline std::vector<ExploreWorld> explore_corpus() {
  const auto signal = [](const std::string& model, const std::string& alg,
                         int waiters, int polls) {
    return signaling_explore_builder(
        model, make_signal_factory_by_name(alg, waiters), waiters, polls);
  };
  const auto recoverable = [](int nprocs) {
    return mutex_explore_builder("dsm", lock_factory_by_name("recoverable"),
                                 nprocs, 2);
  };
  const ExploreBuilder late_flag = signaling_explore_builder(
      "dsm", signal_factory<LateFlagSignal>(ProcId{2}), 2, 2);
  const ExploreChecker spec = polling_spec_checker();
  return {
      {.name = "flag_cc_2w2p", .build = signal("cc", "flag", 2, 2),
       .check = spec, .depth = 16, .max_nodes = 500'000, .small = true},
      {.name = "flag_dsm_2w2p", .build = signal("dsm", "flag", 2, 2),
       .check = spec, .depth = 16, .max_nodes = 500'000, .small = true},
      {.name = "registration_1w2p",
       .build = signal("dsm", "registration", 1, 2), .check = spec,
       .depth = 24, .max_nodes = 500'000, .small = true},
      // A `_cc` row is the world before it over the ideal cache-coherent
      // model, the paper's other memory, so every pair also runs over CC
      // memory.
      {.name = "registration_1w2p_cc",
       .build = signal("cc", "registration", 1, 2), .check = spec,
       .depth = 24, .max_nodes = 500'000, .small = true},
      // The world of `explore --target signal --alg registration --waiters
      // 2 --polls 1 --depth 24`: DPOR's node cut against the naive tree.
      {.name = "registration_2w1p",
       .build = signal("dsm", "registration", 2, 1), .check = spec,
       .depth = 24, .max_nodes = 10'000'000, .min_ratio = 10},
      // One waiter larger: the naive tree dwarfs the budget DPOR fits in.
      {.name = "registration_3w1p",
       .build = signal("dsm", "registration", 3, 1), .check = spec,
       .depth = 28, .max_nodes = 2'000'000, .naive = NaiveReach::kBudget},
      {.name = "single_waiter_1w3p",
       .build = signal("dsm", "single-waiter", 1, 3), .check = spec,
       .depth = 24, .max_nodes = 500'000, .small = true},
      {.name = "single_waiter_1w3p_cc",
       .build = signal("cc", "single-waiter", 1, 3), .check = spec,
       .depth = 24, .max_nodes = 500'000, .small = true},
      {.name = "broken_1w1p", .build = signal("dsm", "broken", 1, 1),
       .check = spec, .depth = 16, .max_nodes = 100'000, .violates = true,
       .small = true},
      {.name = "broken_1w2p", .build = signal("dsm", "broken", 1, 2),
       .check = spec, .depth = 20, .max_nodes = 200'000, .violates = true,
       .small = true, .shrink = true},
      // Only the interleaving that slips a waiter past the registration
      // sweep violates. At depth 12 the naive explorer finds it
      // (020002222000) and DPOR does not; at depth 20 both do.
      {.name = "late_flag_2w2p", .build = late_flag, .check = spec,
       .depth = 20, .max_nodes = 2'000'000, .violates = true, .small = true},
      {.name = "late_flag_2w2p_d12", .build = late_flag, .check = spec,
       .depth = 12, .max_nodes = 2'000'000, .violates = true,
       .dpor_misses = true, .small = true},
      {.name = "tas_2p1", .build = gauge_mutex_builder<TasLock>(2, 1),
       .check = gauge_checker(), .depth = 17, .max_nodes = 2'000'000,
       .cut = DepthCut::kSome},
      {.name = "mcs_2p1", .build = gauge_mutex_builder<McsLock>(2, 1),
       .check = gauge_checker(), .depth = 18, .max_nodes = 2'000'000,
       .cut = DepthCut::kSome},
      {.name = "tas_2p1_cc",
       .build = gauge_mutex_builder<TasLock>(2, 1, "cc"),
       .check = gauge_checker(), .depth = 17, .max_nodes = 2'000'000,
       .cut = DepthCut::kSome},
      {.name = "mcs_2p1_cc",
       .build = gauge_mutex_builder<McsLock>(2, 1, "cc"),
       .check = gauge_checker(), .depth = 18, .max_nodes = 2'000'000,
       .cut = DepthCut::kSome},
      {.name = "ya_2p1", .build = gauge_mutex_builder<YangAndersonLock>(2, 1),
       .check = gauge_checker(), .depth = 18, .max_nodes = 2'000'000,
       .cut = DepthCut::kSome},
      {.name = "nolock_2p1", .build = gauge_mutex_builder<NoLock>(2, 1),
       .check = gauge_checker(), .depth = 12, .max_nodes = 100'000,
       .violates = true, .small = true},
      {.name = "nolock_3p1", .build = gauge_mutex_builder<NoLock>(3, 1),
       .check = gauge_checker(), .depth = 15, .max_nodes = 10'000'000,
       .violates = true},
      // The session lock's full run is ~24 macro steps per process; depth
      // 20 covers the whole entry race and truncates the quiet tails.
      {.name = "session_gme_2p", .build = session_gme_builder(),
       .check = session_gme_checker(), .depth = 20, .max_nodes = 3'000'000,
       .cut = DepthCut::kAll},
      {.name = "recoverable_3p2", .build = recoverable(3),
       .check = mutual_exclusion_checker(), .depth = 16,
       .max_nodes = 2'000'000, .naive = NaiveReach::kSkipped,
       .cut = DepthCut::kAll, .crash_sweep = true},
      {.name = "recoverable_2p2", .build = recoverable(2),
       .check = mutual_exclusion_checker(), .depth = 30,
       .max_nodes = 2'000'000, .naive = NaiveReach::kSkipped,
       .cut = DepthCut::kSome, .crash_product = true},
  };
}

}  // namespace rmrsim
