// SharedMemory: the composed memory system of one simulated multiprocessor.
//
// Binds together the value store (variables + primitive semantics), one cost
// model (DSM or a CC policy), the RMR ledger, and an optional coherence
// listener. This is the only memory interface the runtime uses, so a single
// algorithm implementation is priced under any architecture by swapping the
// cost model — the paper's core exercise.
#pragma once

#include <memory>
#include <string>

#include "memory/cc_model.h"
#include "memory/cost_model.h"
#include "memory/ledger.h"
#include "memory/memop.h"
#include "memory/store.h"

namespace rmrsim {

class SharedMemory {
 public:
  SharedMemory(int nprocs, std::unique_ptr<CostModel> model);

  /// Rehydrates a memory system from captured parts (world forking): the
  /// store and ledger are copied in, the cost model is adopted as-is. Used
  /// by Simulation::restore; the coherence listener is NOT part of a
  /// snapshot (it aggregates across runs and callers own its lifecycle), so
  /// a restored memory starts with no listener.
  SharedMemory(MemoryStore store, std::unique_ptr<CostModel> model,
               RmrLedger ledger);

  /// Deep copy: values, writer/reservation masks, cache state, and ledger
  /// all duplicated; the clone's future pricing is independent of (and
  /// initially identical to) the original's. The listener is not carried
  /// over (see the parts constructor).
  std::unique_ptr<SharedMemory> clone() const {
    return std::make_unique<SharedMemory>(store_, model_->clone(), ledger_);
  }

  /// Allocates a variable homed at `home` (kNoProc = detached module).
  VarId allocate(Word initial, ProcId home, std::string name = {});

  /// Convenience: a variable in processor `p`'s own module (the co-location
  /// idiom RMR-efficient DSM algorithms are built on).
  VarId allocate_local(ProcId p, Word initial, std::string name = {}) {
    return allocate(initial, p, std::move(name));
  }

  /// Convenience: a variable in a detached module (global; remote to every
  /// process in DSM, cacheable by every process in CC).
  VarId allocate_global(Word initial, std::string name = {}) {
    return allocate(initial, kNoProc, std::move(name));
  }

  /// Classifies the pending op without applying it — the adversary's "about
  /// to perform an RMR" test (Section 6.1).
  bool classify_rmr(ProcId p, const MemOp& op) const {
    return model_->classify_rmr(p, op, store_);
  }

  /// Applies `op` atomically for `p`: store semantics, pricing, ledger, and
  /// coherence-event publication.
  OpOutcome apply(ProcId p, const MemOp& op);

  int nprocs() const { return store_.nprocs(); }
  const MemoryStore& store() const { return store_; }
  const RmrLedger& ledger() const { return ledger_; }

  /// Mutable store/ledger access — used only by process erasure
  /// (Simulation::erase_process) to rewrite state outside of process steps.
  MemoryStore& store() { return store_; }
  RmrLedger& ledger() { return ledger_; }
  const CostModel& model() const { return *model_; }
  CostModel& model() { return *model_; }

  /// Registers (or clears, with nullptr) the coherence message counter.
  void set_listener(CoherenceListener* listener) { listener_ = listener; }
  CoherenceListener* listener() const { return listener_; }

  /// Process `p` crashed: forwards to the cost model (cached copies die
  /// with the processor) and to the coherence listener, whose protocol
  /// state must track the same architectural event. Called by
  /// Simulation::crash, never during a step.
  void notify_crash(ProcId p) {
    model_->on_crash(p);
    if (listener_ != nullptr) listener_->on_crash(p);
  }

  /// Resets values, caches, and the ledger to the initial state; variable
  /// ids stay valid. The listener, if any, is NOT reset here (callers own
  /// its lifecycle).
  void reset();

 private:
  MemoryStore store_;
  std::unique_ptr<CostModel> model_;
  RmrLedger ledger_;
  CoherenceListener* listener_ = nullptr;
};

/// Factory helpers so call sites read like the paper: make_dsm(n),
/// make_cc(n) (ideal/write-through), make_cc(n, CcPolicy::kWriteBack), ...
std::unique_ptr<SharedMemory> make_dsm(int nprocs);
std::unique_ptr<SharedMemory> make_cc(int nprocs,
                                      CcPolicy policy = CcPolicy::kWriteThrough);

}  // namespace rmrsim
