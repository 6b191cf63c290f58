#include "mutex/lock.h"

#include <map>

namespace rmrsim {

ProcTask mutex_worker(ProcCtx& ctx, MutexAlgorithm* lock, int passages) {
  for (int i = 0; i < passages; ++i) {
    co_await ctx.call_begin(calls::kAcquire);
    co_await lock->acquire(ctx);
    co_await ctx.call_end(calls::kAcquire);
    co_await ctx.call_begin(calls::kCritical);
    co_await ctx.call_end(calls::kCritical);
    co_await ctx.call_begin(calls::kRelease);
    co_await lock->release(ctx);
    co_await ctx.call_end(calls::kRelease);
  }
}

ProcTask recoverable_mutex_worker(ProcCtx& ctx, RecoverableMutexAlgorithm* lock,
                                  VarId done_var, int passages) {
  co_await ctx.call_begin(calls::kRecover);
  co_await lock->recover(ctx);
  co_await ctx.call_end(calls::kRecover);
  for (;;) {
    // Progress check reads shared memory, not a loop counter: a crash wipes
    // the frame, so only `done_var` remembers how far this process got.
    const Word done = co_await ctx.read(done_var);
    if (done >= passages) break;
    co_await ctx.call_begin(calls::kAcquire);
    co_await lock->acquire(ctx);
    co_await ctx.call_end(calls::kAcquire);
    co_await ctx.call_begin(calls::kCritical);
    co_await ctx.faa(done_var, 1);
    co_await ctx.call_end(calls::kCritical);
    co_await ctx.call_begin(calls::kRelease);
    co_await lock->release(ctx);
    co_await ctx.call_end(calls::kRelease);
  }
}

std::optional<MutexViolation> check_mutual_exclusion(const History& h) {
  ProcId inside = kNoProc;
  for (const StepRecord& r : h.records()) {
    if (r.kind != StepRecord::Kind::kEvent) continue;
    if (r.event == EventKind::kCrash) {
      // The crash ends the victim's passage; its open CS span (if any) is
      // closed here, not violated. Whether *another* process can now slip
      // into the CS while the crashed holder's shared state still claims it
      // is exactly what this checker decides on the remaining records.
      if (inside == r.proc) inside = kNoProc;
      continue;
    }
    if (r.code != calls::kCritical) continue;
    if (r.event == EventKind::kCallBegin) {
      if (inside != kNoProc) {
        return MutexViolation{
            r.index, inside, r.proc,
            "two processes in the critical section simultaneously"};
      }
      inside = r.proc;
    } else if (r.event == EventKind::kCallEnd) {
      if (inside != r.proc) {
        return MutexViolation{r.index, inside, r.proc,
                              "critical-section exit without matching entry"};
      }
      inside = kNoProc;
    }
  }
  return std::nullopt;
}

int passages_completed(const History& h, ProcId p) {
  int n = 0;
  for (const StepRecord& r : h.records()) {
    if (r.proc == p && r.kind == StepRecord::Kind::kEvent &&
        r.event == EventKind::kCallEnd && r.code == calls::kCritical) {
      ++n;
    }
  }
  return n;
}

CrashRunReport analyze_crash_run(const History& h) {
  CrashRunReport rep;
  std::map<ProcId, std::int64_t> acquiring;  // open kAcquire span -> begin idx
  std::map<ProcId, bool> recovering;         // open kRecover span
  for (const StepRecord& r : h.records()) {
    if (r.kind != StepRecord::Kind::kEvent) continue;
    if (r.event == EventKind::kCrash) {
      if (recovering[r.proc]) ++rep.failed_recoveries;
      acquiring.erase(r.proc);
      recovering[r.proc] = false;
      continue;
    }
    if (r.event == EventKind::kCallBegin && r.code == calls::kRecover) {
      recovering[r.proc] = true;
    } else if (r.event == EventKind::kCallEnd && r.code == calls::kRecover) {
      recovering[r.proc] = false;
    } else if (r.event == EventKind::kCallBegin && r.code == calls::kAcquire) {
      acquiring[r.proc] = r.index;
    } else if (r.event == EventKind::kCallBegin &&
               r.code == calls::kCritical) {
      // Everyone still waiting who started acquiring before this process did
      // has just been overtaken once.
      const auto me = acquiring.find(r.proc);
      if (me != acquiring.end()) {
        for (const auto& [q, begin] : acquiring) {
          if (q != r.proc && begin < me->second) ++rep.fifo_inversions;
        }
        acquiring.erase(me);
      }
    }
  }
  return rep;
}

}  // namespace rmrsim
