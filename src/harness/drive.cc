#include "harness/drive.h"

#include "common/check.h"
#include "memory/cc_model.h"
#include "metrics/publish.h"
#include "mutex/bakery_lock.h"
#include "mutex/clh_lock.h"
#include "mutex/mcs_lock.h"
#include "mutex/peterson_lock.h"
#include "mutex/recoverable_lock.h"
#include "mutex/simple_locks.h"
#include "mutex/ya_lock.h"
#include "primitives/blocking_leader.h"
#include "primitives/rw_cas_registration.h"
#include "sched/fault.h"
#include "sched/schedulers.h"
#include "signaling/broken.h"
#include "signaling/cas_registration.h"
#include "signaling/cc_flag.h"
#include "signaling/dsm_queue.h"
#include "signaling/dsm_registration.h"
#include "signaling/dsm_single_waiter.h"
#include "signaling/llsc_registration.h"
#include "trace/call_stats.h"

namespace rmrsim {

namespace {

/// Factory for a signaling algorithm built from the memory alone.
template <class Alg>
SignalingFactory factory_of() {
  return [](SharedMemory& m) { return std::make_unique<Alg>(m); };
}

/// What every mutex run publishes, crashy or not.
void publish_mutex_common(MetricsRegistry& reg, const MutexRunOutcome& o) {
  publish_simulation(reg, *o.world.sim);
  reg.set("run.completed", o.completed ? 1.0 : 0.0);
  reg.set("spec.ok", o.violation.has_value() ? 0.0 : 1.0);
}

}  // namespace

std::unique_ptr<SharedMemory> make_model_by_name(const std::string& name,
                                                 int nprocs) {
  if (name == "dsm") return make_dsm(nprocs);
  if (name == "cc") return make_cc(nprocs, CcPolicy::kWriteThrough);
  if (name == "cc-wb") return make_cc(nprocs, CcPolicy::kWriteBack);
  if (name == "cc-mesi") return make_cc(nprocs, CcPolicy::kMesi);
  if (name == "cc-lfcu") return make_cc(nprocs, CcPolicy::kLfcu);
  fail("unknown model '" + name + "' (dsm|cc|cc-wb|cc-mesi|cc-lfcu)");
}

bool is_model_name(const std::string& name) {
  return name == "dsm" || name == "cc" || name == "cc-wb" ||
         name == "cc-mesi" || name == "cc-lfcu";
}

SignalingFactory make_signal_factory_by_name(const std::string& name,
                                             int fixed_home) {
  if (name == "flag") return factory_of<CcFlagSignal>();
  if (name == "single-waiter") return factory_of<DsmSingleWaiterSignal>();
  if (name == "registration") {
    return [fixed_home](SharedMemory& m) {
      return std::make_unique<DsmRegistrationSignal>(
          m, static_cast<ProcId>(fixed_home));
    };
  }
  if (name == "queue") return factory_of<DsmQueueSignal>();
  if (name == "cas") return factory_of<CasRegistrationSignal>();
  if (name == "llsc") return factory_of<LlscRegistrationSignal>();
  if (name == "rw-cas") return factory_of<RwCasRegistrationSignal>();
  if (name == "blocking-leader") return factory_of<DsmBlockingLeaderSignal>();
  if (name == "broken") return factory_of<BrokenLocalSignal>();
  fail("unknown algorithm '" + name +
       "' (flag|single-waiter|registration|queue|cas|llsc|rw-cas|"
       "blocking-leader|broken)");
}

bool signal_alg_polls(const std::string& name) {
  return name != "blocking-leader";
}

const char* polling_signal_alg_names() {
  return "flag|single-waiter|registration|queue|cas|llsc|rw-cas|broken";
}

std::shared_ptr<MutexAlgorithm> make_lock_by_name(const std::string& name,
                                                  SharedMemory& mem) {
  if (name == "mcs") return std::make_shared<McsLock>(mem);
  if (name == "ya") return std::make_shared<YangAndersonLock>(mem);
  if (name == "anderson") return std::make_shared<AndersonArrayLock>(mem);
  if (name == "ticket") return std::make_shared<TicketLock>(mem);
  if (name == "tas") return std::make_shared<TasLock>(mem);
  if (name == "clh") return std::make_shared<ClhLock>(mem);
  if (name == "bakery") return std::make_shared<BakeryLock>(mem);
  if (name == "peterson") return std::make_shared<PetersonTournamentLock>(mem);
  if (name == "recoverable") return std::make_shared<RecoverableSpinLock>(mem);
  fail("unknown lock '" + name +
       "' (mcs|ya|anderson|ticket|tas|clh|bakery|peterson|recoverable)");
}

LockFactory lock_factory_by_name(const std::string& name) {
  // Validate eagerly against a throwaway memory so a typo fails at spec
  // build time, not inside a worker thread.
  make_lock_by_name(name, *make_dsm(1));
  return [name](SharedMemory& mem) { return make_lock_by_name(name, mem); };
}

MutexWorld build_mutex_world(const MutexRunOptions& opt) {
  ensure(static_cast<bool>(opt.make_lock), "mutex run needs a lock factory");
  MutexWorld w;
  w.mem = make_model_by_name(opt.model, opt.nprocs);
  if (opt.listener != nullptr) w.mem->set_listener(opt.listener);
  w.lock = opt.make_lock(*w.mem);
  // Each program holds the lock: snapshots share the programs and may
  // outlive this world.
  std::vector<Program> programs;
  programs.reserve(static_cast<std::size_t>(opt.nprocs));
  if (auto* rec = dynamic_cast<RecoverableMutexAlgorithm*>(w.lock.get())) {
    for (int p = 0; p < opt.nprocs; ++p) {
      w.done.push_back(w.mem->allocate_global(0, "done"));
    }
    for (const VarId dv : w.done) {
      programs.emplace_back(
          [lock = w.lock, rec, dv, passages = opt.passages](ProcCtx& ctx) {
            return recoverable_mutex_worker(ctx, rec, dv, passages);
          });
    }
  } else {
    for (int p = 0; p < opt.nprocs; ++p) {
      programs.emplace_back(
          [lock = w.lock, passages = opt.passages](ProcCtx& ctx) {
            return mutex_worker(ctx, lock.get(), passages);
          });
    }
  }
  w.sim = std::make_unique<Simulation>(*w.mem, std::move(programs));
  return w;
}

MutexRunOutcome run_mutex_workload(const MutexRunOptions& opt) {
  MutexRunOutcome out;
  out.world = build_mutex_world(opt);
  Simulation& sim = *out.world.sim;

  std::unique_ptr<Scheduler> inner;
  if (opt.gap_delta > 0) {
    inner = std::make_unique<BoundedGapScheduler>(opt.seed, opt.gap_delta);
  } else if (opt.seed != 0) {
    inner = std::make_unique<RandomScheduler>(opt.seed);
  } else {
    inner = std::make_unique<RoundRobinScheduler>();
  }
  Simulation::RunResult result{};
  if (opt.fault_plan.empty()) {
    result = sim.run(*inner, opt.max_steps);
  } else {
    FaultScheduler faulty(*inner, parse_fault_plan(opt.fault_plan));
    result = sim.run(faulty, opt.max_steps);
  }

  if (opt.listener != nullptr) opt.listener->flush();
  out.completed = result.all_terminated;
  out.violation = check_mutual_exclusion(sim.history());
  if (!out.world.done.empty()) {
    for (const VarId v : out.world.done) {
      out.passages_done += static_cast<int>(out.world.mem->store().value(v));
    }
  } else {
    // One pass; passages_completed(h, p) per process would rescan N times.
    for (const StepRecord& r : sim.history().records()) {
      if (r.kind == StepRecord::Kind::kEvent &&
          r.event == EventKind::kCallEnd && r.code == calls::kCritical) {
        ++out.passages_done;
      }
    }
  }
  out.rmrs_per_passage =
      static_cast<double>(out.world.mem->ledger().total_rmrs()) /
      static_cast<double>(opt.nprocs * opt.passages);
  return out;
}

ExploreBuilder signaling_explore_builder(const std::string& model,
                                         SignalingFactory factory,
                                         int waiters, int polls) {
  const int nprocs = waiters + 1;
  make_model_by_name(model, nprocs);
  return [=]() {
    ExploreInstance inst;
    inst.mem = make_model_by_name(model, nprocs);
    std::shared_ptr<SignalingAlgorithm> alg{factory(*inst.mem)};
    std::vector<Program> programs;
    for (int i = 0; i < waiters; ++i) {
      programs.emplace_back([a = alg.get(), polls](ProcCtx& ctx) {
        return polling_waiter(ctx, a, polls);
      });
    }
    programs.emplace_back(
        [a = alg.get()](ProcCtx& ctx) { return signaler(ctx, a); });
    inst.sim = std::make_unique<Simulation>(*inst.mem, std::move(programs));
    inst.keepalive = alg;
    return inst;
  };
}

ExploreBuilder mutex_explore_builder(const std::string& model,
                                     LockFactory factory, int nprocs,
                                     int passages) {
  make_model_by_name(model, nprocs);
  MutexRunOptions opt;
  opt.model = model;
  opt.nprocs = nprocs;
  opt.passages = passages;
  opt.make_lock = std::move(factory);
  return [opt]() {
    MutexWorld w = build_mutex_world(opt);
    ExploreInstance inst;
    inst.mem = std::move(w.mem);
    inst.sim = std::move(w.sim);
    inst.keepalive = std::move(w.lock);
    return inst;
  };
}

ExploreChecker polling_spec_checker() {
  return [](const History& h) -> std::optional<std::string> {
    if (const auto v = check_polling_spec(h)) return v->what;
    return std::nullopt;
  };
}

ExploreChecker mutual_exclusion_checker() {
  return [](const History& h) -> std::optional<std::string> {
    if (const auto v = check_mutual_exclusion(h)) return v->what;
    return std::nullopt;
  };
}

std::optional<SpecViolation> publish_signaling_run(MetricsRegistry& reg,
                                                   const SignalingRun& run,
                                                   bool blocking) {
  publish_simulation(reg, *run.sim);
  publish_call_costs(reg, per_call_costs(run.sim->history()));
  reg.set("rmrs.max_waiter", static_cast<double>(run.max_waiter_rmrs()));
  reg.set("rmrs.signaler", static_cast<double>(run.signaler_rmrs()));
  reg.set("rmrs.amortized", run.amortized_rmrs());
  auto violation = blocking ? check_blocking_spec(run.sim->history())
                            : check_polling_spec(run.sim->history());
  reg.set("spec.ok", violation.has_value() ? 0.0 : 1.0);
  return violation;
}

void publish_mutex_run(MetricsRegistry& reg, const MutexRunOutcome& o) {
  publish_mutex_common(reg, o);
  publish_call_costs(reg, per_call_costs(o.world.sim->history()));
  reg.set("rmrs.per_passage", o.rmrs_per_passage);
}

void publish_crash_run(MetricsRegistry& reg, const MutexRunOutcome& o) {
  publish_mutex_common(reg, o);
  const CrashRunReport rep = analyze_crash_run(o.world.sim->history());
  reg.set("crash.fifo_inversions", static_cast<double>(rep.fifo_inversions));
  reg.set("crash.failed_recoveries",
          static_cast<double>(rep.failed_recoveries));
  reg.set("run.passages_done", static_cast<double>(o.passages_done));
  reg.set("rmrs.per_exit",
          o.passages_done > 0
              ? static_cast<double>(o.world.mem->ledger().total_rmrs()) /
                    o.passages_done
              : -1.0);
}

}  // namespace rmrsim
