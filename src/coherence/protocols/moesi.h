// MOESI (AMD-style): MESI plus the Owned state. A Modified line snooped by
// a read demotes to O instead of S — the holder keeps supplying the dirty
// data cache-to-cache and memory is never updated until the line would be
// evicted (which this one-word-line model never does). The write-backs
// Illinois MESI pays on every M -> S demotion vanish; message counts stay
// identical to MESI, so the MESI/MOESI cycle gap isolates exactly the
// write-back traffic — the per-protocol "exchange rate" Section 8 is about.
//
// Differences from MesiCache:
//   snooped read of M  -> M holder demotes to O (no write-back), supplies
//   read miss with O   -> O supplies cache-to-cache, stays O
//   write O -> M       BusUpgr, other copies invalidated
#pragma once

#include "coherence/cache_controller.h"

namespace rmrsim {

class MoesiCache : public SnoopingCache {
 public:
  explicit MoesiCache(int nprocs, CycleCosts costs = {},
                      std::string name = "moesi")
      : SnoopingCache(std::move(name), nprocs, costs) {}

 protected:
  void read(Line& l, ProcId p) override;
  void write(Line& l, ProcId p) override;
  std::optional<std::string> check_line(const LineState* st,
                                        bool memory_stale,
                                        VarId v) const override;
};

}  // namespace rmrsim
