#include "coherence/protocols/mesi.h"

namespace rmrsim {

void MesiCache::read(Line& l, ProcId p) {
  switch (l.st[p]) {
    case LineState::kModified:
    case LineState::kExclusive:
    case LineState::kShared:
      charge_hit(p);
      return;
    default:
      break;
  }
  // Read miss.
  const ProcId owner = find_other(l, p, LineState::kModified);
  if (owner != kNoProc) {
    // The Modified holder supplies the line and flushes it: S is a clean
    // state in MESI, so memory must be made current on the demotion. This
    // write-back is exactly what MOESI's O state avoids.
    charge_cache_transfer(p);
    charge_write_back(owner);
    l.st[owner] = LineState::kShared;
    l.memory_stale = false;
    fill(l, p, LineState::kShared);
    return;
  }
  if (any_valid_other(l, p)) {
    // Illinois clean-sharing: an E or S holder supplies cache-to-cache.
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

void MesiCache::write(Line& l, ProcId p) {
  switch (l.st[p]) {
    case LineState::kModified:
      charge_hit(p);
      bump_version(l, p);
      return;
    case LineState::kExclusive:
      // The silent upgrade: sole clean holder writes locally, no bus.
      charge_hit(p);
      l.st[p] = LineState::kModified;
      bump_version(l, p);
      l.memory_stale = true;
      return;
    case LineState::kShared:
      // BusUpgr: address-only invalidation broadcast, no data moves.
      charge_bus_signal(p);
      invalidate_others(l, p);
      l.st[p] = LineState::kModified;
      bump_version(l, p);
      l.memory_stale = true;
      return;
    default:
      break;
  }
  // Write miss: BusRdX. The fill and the invalidation are one transaction.
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

std::optional<std::string> MesiCache::check_line(const LineState* st,
                                                 bool memory_stale,
                                                 VarId v) const {
  int exclusive_like = 0;
  int valid = 0;
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
        ++exclusive_like;
        break;
      case LineState::kModified:
        ++valid;
        ++exclusive_like;
        dirty = true;
        break;
      default:
        return std::string(name()) + ": illegal state " +
               std::string(to_string(st[q])) +
               " on v" + std::to_string(v);
    }
  }
  if (exclusive_like > 1) {
    return std::string(name()) + ": two M/E holders on v" + std::to_string(v);
  }
  if (exclusive_like == 1 && valid > 1) {
    return std::string(name()) + ": M/E coexists with other copies on v" +
           std::to_string(v);
  }
  if (memory_stale && !dirty) {
    return std::string(name()) + ": memory stale with no M holder on v" +
           std::to_string(v);
  }
  return std::nullopt;
}

}  // namespace rmrsim
