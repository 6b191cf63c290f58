// Dragon (Xerox PARC) — the fleet's write-update protocol. Where the MESI
// family destroys remote copies on a write, Dragon broadcasts the new word
// and refreshes them in place: its invalidation count is identically zero,
// and a sharer never misses twice on the same line. The trade is one bus
// update per write to a shared line — on the paper's flag-spin workloads
// that exchange is exactly the RMR-per-busy-wait separation E4 measures,
// priced in update messages instead of invalidation + refill pairs.
//
// States: E (sole, clean), Sc (shared clean — others may exist), Sm (shared
// dirty — this copy services the line and owes memory the value), M (sole,
// dirty). Only one Sm or M holder may exist; every valid copy always holds
// the current version because writes push updates instead of invalidating.
//
// Transition summary:
//   read  I, no copies  -> E   (memory fetch)
//   read  I, copies     -> Sc  (cache transfer; a sole M/E supplier demotes
//                               to Sm/Sc because it is no longer alone)
//   read  E/Sc/Sm/M     -> hit
//   write M             -> hit
//   write E -> M        silently (no bus)
//   write Sc/Sm, others -> Sm   (bus update refreshes every other copy;
//                               the previous Sm, if different, demotes to Sc)
//   write Sc/Sm, alone  -> M   (update signal finds no takers)
//   write I, copies     -> Sm  (fill + bus update to the existing sharers)
//   write I, no copies  -> M   (memory fetch)
#pragma once

#include "coherence/cache_controller.h"

namespace rmrsim {

class DragonCache : public SnoopingCache {
 public:
  explicit DragonCache(int nprocs, CycleCosts costs = {},
                       std::string name = "dragon")
      : SnoopingCache(std::move(name), nprocs, costs) {}

 protected:
  void read(Line& l, ProcId p) override;
  void write(Line& l, ProcId p) override;
  std::optional<std::string> check_line(const LineState* st,
                                        bool memory_stale,
                                        VarId v) const override;
};

}  // namespace rmrsim
