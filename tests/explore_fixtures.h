// Explore fixtures shared by the model-checking test suites. Signal and
// mutex worlds come from harness/drive.h (signaling_explore_builder,
// mutex_explore_builder), the builders `rmrsim_cli explore` uses; what is
// here exists only in tests.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/check.h"
#include "harness/drive.h"
#include "mutex/lock.h"
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
ExploreBuilder gauge_mutex_builder(int nprocs, int passages) {
  return [=]() {
    ExploreInstance inst;
    inst.mem = make_dsm(nprocs);
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

}  // namespace rmrsim
