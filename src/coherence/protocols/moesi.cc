#include "coherence/protocols/moesi.h"

namespace rmrsim {

void MoesiCache::read(Line& l, ProcId p) {
  switch (l.st[p]) {
    case LineState::kModified:
    case LineState::kExclusive:
    case LineState::kShared:
    case LineState::kOwned:
      charge_hit(p);
      return;
    default:
      break;
  }
  // Read miss. A dirty holder (M or O) supplies without flushing: M merely
  // demotes to O and keeps ownership — the write-back MESI pays here is the
  // entire MOESI saving.
  const ProcId owner = find_other(l, p, LineState::kModified);
  if (owner != kNoProc) {
    charge_cache_transfer(p);
    l.st[owner] = LineState::kOwned;
    fill(l, p, LineState::kShared);
    return;
  }
  const ProcId keeper = find_other(l, p, LineState::kOwned);
  if (keeper != kNoProc) {
    // The O holder is the designated responder for a dirty line.
    charge_cache_transfer(p);
    fill(l, p, LineState::kShared);
    return;
  }
  if (any_valid_other(l, p)) {
    // Clean copies exist: Illinois-style clean sharing, like MESI.
    charge_cache_transfer(p);
    const ProcId excl = find_other(l, p, LineState::kExclusive);
    if (excl != kNoProc) {
      l.st[excl] = LineState::kShared;
    }
    fill(l, p, LineState::kShared);
    return;
  }
  charge_memory_fetch(p);
  fill(l, p, LineState::kExclusive);
}

void MoesiCache::write(Line& l, ProcId p) {
  switch (l.st[p]) {
    case LineState::kModified:
      charge_hit(p);
      bump_version(l, p);
      return;
    case LineState::kExclusive:
      charge_hit(p);
      l.st[p] = LineState::kModified;
      bump_version(l, p);
      l.memory_stale = true;
      return;
    case LineState::kOwned:
    case LineState::kShared:
      // BusUpgr: address-only signal, every other copy invalidated. An O
      // writer already has the data; it just reclaims exclusivity.
      charge_bus_signal(p);
      invalidate_others(l, p);
      l.st[p] = LineState::kModified;
      bump_version(l, p);
      l.memory_stale = true;
      return;
    default:
      break;
  }
  // Write miss: BusRdX, fill + invalidate in one transaction.
  if (any_valid_other(l, p)) {
    charge_cache_transfer(p);
  } else {
    charge_memory_fetch(p);
  }
  invalidate_others(l, p);
  fill(l, p, LineState::kModified);
  bump_version(l, p);
  l.memory_stale = true;
}

std::optional<std::string> MoesiCache::check_line(const LineState* st,
                                                  bool memory_stale,
                                                  VarId v) const {
  int owner_like = 0;   // M, E, or O — at most one of these may exist
  int valid = 0;
  bool sole_only = false;  // M/E demand being the only copy
  bool dirty = false;
  for (int q = 0; q < nprocs_; ++q) {
    switch (st[q]) {
      case LineState::kInvalid:
        break;
      case LineState::kShared:
        ++valid;
        break;
      case LineState::kExclusive:
        ++valid;
        ++owner_like;
        sole_only = true;
        break;
      case LineState::kOwned:
        ++valid;
        ++owner_like;
        dirty = true;
        break;
      case LineState::kModified:
        ++valid;
        ++owner_like;
        sole_only = true;
        dirty = true;
        break;
      default:
        return std::string(name()) + ": illegal state " +
               std::string(to_string(st[q])) +
               " on v" + std::to_string(v);
    }
  }
  if (owner_like > 1) {
    return std::string(name()) + ": two M/E/O holders on v" +
           std::to_string(v);
  }
  if (sole_only && valid > 1) {
    return std::string(name()) + ": M/E coexists with other copies on v" +
           std::to_string(v);
  }
  if (memory_stale && !dirty) {
    return std::string(name()) + ": memory stale with no M/O holder on v" +
           std::to_string(v);
  }
  return std::nullopt;
}

}  // namespace rmrsim
