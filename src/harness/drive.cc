#include "harness/drive.h"

#include "common/check.h"
#include "memory/cc_model.h"
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

namespace rmrsim {

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
  if (name == "flag") {
    return [](SharedMemory& m) { return std::make_unique<CcFlagSignal>(m); };
  }
  if (name == "single-waiter") {
    return [](SharedMemory& m) {
      return std::make_unique<DsmSingleWaiterSignal>(m);
    };
  }
  if (name == "registration") {
    return [fixed_home](SharedMemory& m) {
      return std::make_unique<DsmRegistrationSignal>(
          m, static_cast<ProcId>(fixed_home));
    };
  }
  if (name == "queue") {
    return [](SharedMemory& m) { return std::make_unique<DsmQueueSignal>(m); };
  }
  if (name == "cas") {
    return [](SharedMemory& m) {
      return std::make_unique<CasRegistrationSignal>(m);
    };
  }
  if (name == "llsc") {
    return [](SharedMemory& m) {
      return std::make_unique<LlscRegistrationSignal>(m);
    };
  }
  if (name == "rw-cas") {
    return [](SharedMemory& m) {
      return std::make_unique<RwCasRegistrationSignal>(m);
    };
  }
  if (name == "blocking-leader") {
    return [](SharedMemory& m) {
      return std::make_unique<DsmBlockingLeaderSignal>(m);
    };
  }
  if (name == "broken") {
    return
        [](SharedMemory& m) { return std::make_unique<BrokenLocalSignal>(m); };
  }
  fail("unknown algorithm '" + name +
       "' (flag|single-waiter|registration|queue|cas|llsc|rw-cas|"
       "blocking-leader|broken)");
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

std::vector<Program> make_mutex_programs(
    SharedMemory& mem, const std::shared_ptr<MutexAlgorithm>& lock,
    int passages) {
  const int nprocs = mem.nprocs();
  std::vector<Program> programs;
  programs.reserve(static_cast<std::size_t>(nprocs));
  if (auto* rec = dynamic_cast<RecoverableMutexAlgorithm*>(lock.get())) {
    std::vector<VarId> done;
    for (int p = 0; p < nprocs; ++p) {
      done.push_back(mem.allocate_global(0, "done"));
    }
    for (int p = 0; p < nprocs; ++p) {
      programs.emplace_back([lock, rec, dv = done[p], passages](ProcCtx& ctx) {
        return recoverable_mutex_worker(ctx, rec, dv, passages);
      });
    }
  } else {
    for (int p = 0; p < nprocs; ++p) {
      programs.emplace_back([lock, passages](ProcCtx& ctx) {
        return mutex_worker(ctx, lock.get(), passages);
      });
    }
  }
  return programs;
}

MutexWorld build_mutex_world(const MutexRunOptions& opt) {
  ensure(static_cast<bool>(opt.make_lock), "mutex run needs a lock factory");
  MutexWorld w;
  w.mem = make_model_by_name(opt.model, opt.nprocs);
  if (opt.listener != nullptr) w.mem->set_listener(opt.listener);
  w.lock = opt.make_lock(*w.mem);
  w.sim = std::make_unique<Simulation>(
      *w.mem, make_mutex_programs(*w.mem, w.lock, opt.passages));
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
  for (ProcId p = 0; p < opt.nprocs; ++p) {
    out.passages_done += passages_completed(sim.history(), p);
  }
  out.rmrs_per_passage =
      static_cast<double>(out.world.mem->ledger().total_rmrs()) /
      static_cast<double>(opt.nprocs * opt.passages);
  return out;
}

}  // namespace rmrsim
