// Full MESI — the Illinois protocol (Papamarcos & Patel 1984), with
// clean-sharing: any cache holding the line (M, E, or S) responds to a read
// miss, inhibiting memory. The E state makes the read-then-write pattern
// one bus transaction instead of two (silent E -> M upgrade), the
// refinement experiment E8's cost-model ablation quantifies.
//
// Transition summary (requester column; snoopers react as noted):
//   read  I -> E  (no other copy; memory fetch)
//   read  I -> S  (copies exist; cache-to-cache transfer. A Modified
//                  supplier flushes to memory — write-back — and demotes
//                  to S; an Exclusive supplier demotes to S)
//   read  M/E/S  -> hit, no bus
//   write M      -> hit, no bus
//   write E -> M  silently (no bus)
//   write S -> M  BusUpgr: address-only signal, all other copies invalid
//   write I -> M  BusRdX: fill (cache transfer if any copy exists, else
//                  memory fetch), all other copies invalidated
#pragma once

#include "coherence/cache_controller.h"

namespace rmrsim {

class MesiCache : public SnoopingCache {
 public:
  explicit MesiCache(int nprocs, CycleCosts costs = {},
                     std::string name = "mesi")
      : SnoopingCache(std::move(name), nprocs, costs) {}

 protected:
  void read(Line& l, ProcId p) override;
  void write(Line& l, ProcId p) override;
  std::optional<std::string> check_line(const LineState* st,
                                        bool memory_stale,
                                        VarId v) const override;
};

}  // namespace rmrsim
