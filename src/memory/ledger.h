// RMR accounting.
//
// The paper's complexity measure: worst-case RMRs per process, and *amortized*
// RMR complexity — total RMRs divided by the number of participating
// processes (Section 1, Theorem 6.2). The ledger tracks, per process, total
// operations and RMRs, so both measures (and per-procedure-call breakdowns
// computed by callers) fall out directly.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.h"
#include "memory/memop.h"

namespace rmrsim {

class RmrLedger {
 public:
  explicit RmrLedger(int nprocs);

  void record(ProcId p, const MemOp& op, bool rmr);

  /// Batch charge: equivalent to `ops` record() calls of which `rmrs` were
  /// RMRs. Used to rebuild a ledger from its serialized counters
  /// (runtime/snapshot_codec.cc); the step loop charges per op via record().
  void charge(ProcId p, std::uint64_t ops, std::uint64_t rmrs);

  /// Total shared-memory operations applied by `p`.
  std::uint64_t ops(ProcId p) const;

  /// RMRs incurred by `p`.
  std::uint64_t rmrs(ProcId p) const;

  /// Local (non-RMR) accesses by `p`.
  std::uint64_t locals(ProcId p) const { return ops(p) - rmrs(p); }

  std::uint64_t total_ops() const { return total_ops_; }
  std::uint64_t total_rmrs() const { return total_rmrs_; }

  int nprocs() const { return static_cast<int>(per_proc_.size()); }

  /// Maximum RMRs incurred by any single process.
  std::uint64_t max_rmrs() const;

  /// Removes `p`'s contribution from all counters (process erasure).
  void forget(ProcId p);

  void reset();

 private:
  struct Counters {
    std::uint64_t ops = 0;
    std::uint64_t rmrs = 0;
  };
  std::vector<Counters> per_proc_;
  std::uint64_t total_ops_ = 0;
  std::uint64_t total_rmrs_ = 0;
};

}  // namespace rmrsim
