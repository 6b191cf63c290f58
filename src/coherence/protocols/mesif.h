// MESIF (Intel QuickPath): MESI plus the Forward state. Exactly one clean
// copy — the most recent requester's — is designated F and is the only
// clean responder; plain S copies stay silent. This bounds the responder
// count at one (on a point-to-point fabric, N sharers would otherwise all
// answer), at a price this model makes measurable: when no F/E/M copy
// exists (the F holder crashed), a read miss must fall back to a memory
// fetch even though S copies are present — the case where Illinois MESI's
// any-sharer clean-sharing is strictly cheaper in cycles, while message
// counts stay identical.
//
// Differences from MesiCache:
//   read  I with copies -> S via the F/E/M responder; requester takes F
//                          (newest-sharer-holds-F), old F demotes to S
//   read  I with only-S copies -> memory fetch (nobody responds), take F
//   write F -> M   BusUpgr, like S (F is just S plus response duty)
#pragma once

#include "coherence/cache_controller.h"

namespace rmrsim {

class MesifCache : public SnoopingCache {
 public:
  explicit MesifCache(int nprocs, CycleCosts costs = {},
                      std::string name = "mesif")
      : SnoopingCache(std::move(name), nprocs, costs) {}

 protected:
  void read(Line& l, ProcId p) override;
  void write(Line& l, ProcId p) override;
  std::optional<std::string> check_line(const LineState* st,
                                        bool memory_stale,
                                        VarId v) const override;
};

}  // namespace rmrsim
