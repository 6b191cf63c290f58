#include "coherence/protocols/dragon.h"

namespace rmrsim {

void DragonCache::read(Line& l, ProcId p) {
  switch (l.st[p]) {
    case LineState::kExclusive:
    case LineState::kSharedClean:
    case LineState::kSharedModified:
    case LineState::kModified:
      charge_hit(p);
      return;
    default:
      break;
  }
  // Read miss. Any holder supplies; a sole holder learns it is no longer
  // alone and demotes (M -> Sm keeps update-ownership, E -> Sc).
  if (any_valid_other(l, p)) {
    charge_cache_transfer(p);
    const ProcId m = find_other(l, p, LineState::kModified);
    if (m != kNoProc) {
      l.st[m] = LineState::kSharedModified;
    }
    const ProcId e = find_other(l, p, LineState::kExclusive);
    if (e != kNoProc) {
      l.st[e] = LineState::kSharedClean;
    }
    fill(l, p, LineState::kSharedClean);
    return;
  }
  charge_memory_fetch(p);
  fill(l, p, LineState::kExclusive);
}

void DragonCache::write(Line& l, ProcId p) {
  switch (l.st[p]) {
    case LineState::kModified:
      charge_hit(p);
      bump_version(l, p);
      return;
    case LineState::kExclusive:
      // Sole clean holder: silent upgrade, exactly like MESI's E -> M.
      charge_hit(p);
      l.st[p] = LineState::kModified;
      bump_version(l, p);
      l.memory_stale = true;
      return;
    case LineState::kSharedClean:
    case LineState::kSharedModified: {
      // The defining Dragon move: broadcast the new word instead of
      // invalidating. The SharedLine tells the writer whether anyone is
      // still listening; if not, it takes M and future writes go silent.
      charge_bus_update(p);
      bump_version(l, p);
      if (any_valid_other(l, p)) {
        update_others(l, p);
        const ProcId sm = find_other(l, p, LineState::kSharedModified);
        if (sm != kNoProc) {
          l.st[sm] = LineState::kSharedClean;
        }
        l.st[p] = LineState::kSharedModified;
      } else {
        l.st[p] = LineState::kModified;
      }
      l.memory_stale = true;
      return;
    }
    default:
      break;
  }
  // Write miss.
  if (any_valid_other(l, p)) {
    // Fill from a sharer, then push the new word to everyone: the writer
    // becomes the update-owner (Sm), previous owners demote to Sc.
    charge_cache_transfer(p);
    fill(l, p, LineState::kSharedModified);
    bump_version(l, p);
    charge_bus_update(p);
    update_others(l, p);
    for_each_other(l, p, [&](ProcId q) {
      LineState& s = l.st[q];
      if (s == LineState::kModified || s == LineState::kSharedModified ||
          s == LineState::kExclusive) {
        s = LineState::kSharedClean;
      }
    });
    l.memory_stale = true;
    return;
  }
  charge_memory_fetch(p);
  fill(l, p, LineState::kModified);
  bump_version(l, p);
  l.memory_stale = true;
}

std::optional<std::string> DragonCache::check_line(const LineState* st,
                                                   bool memory_stale,
                                                   VarId v) const {
  int owner_like = 0;   // M, E, or Sm — at most one may exist
  int valid = 0;
  bool sole_only = false;
  bool dirty = false;
  for (int q = 0; q < nprocs_; ++q) {
    switch (st[q]) {
      case LineState::kInvalid:
        break;
      case LineState::kSharedClean:
        ++valid;
        break;
      case LineState::kSharedModified:
        ++valid;
        ++owner_like;
        dirty = true;
        break;
      case LineState::kExclusive:
        ++valid;
        ++owner_like;
        sole_only = true;
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
    return std::string(name()) + ": two M/E/Sm holders on v" +
           std::to_string(v);
  }
  if (sole_only && valid > 1) {
    return std::string(name()) + ": M/E coexists with other copies on v" +
           std::to_string(v);
  }
  if (memory_stale && !dirty) {
    return std::string(name()) + ": memory stale with no M/Sm holder on v" +
           std::to_string(v);
  }
  return std::nullopt;
}

}  // namespace rmrsim
