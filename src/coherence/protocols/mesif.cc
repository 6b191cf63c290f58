#include "coherence/protocols/mesif.h"

namespace rmrsim {

void MesifCache::read(Line& l, ProcId p) {
  switch (l.st[p]) {
    case LineState::kModified:
    case LineState::kExclusive:
    case LineState::kShared:
    case LineState::kForward:
      charge_hit(p);
      return;
    default:
      break;
  }
  // Read miss. Only an M, E, or F holder responds.
  const ProcId owner = find_other(l, p, LineState::kModified);
  if (owner != kNoProc) {
    charge_cache_transfer(p);
    charge_write_back(owner);  // M -> S is clean, memory made current
    l.st[owner] = LineState::kShared;
    l.memory_stale = false;
    fill(l, p, LineState::kForward);
    return;
  }
  const ProcId excl = find_other(l, p, LineState::kExclusive);
  if (excl != kNoProc) {
    charge_cache_transfer(p);
    l.st[excl] = LineState::kShared;
    fill(l, p, LineState::kForward);
    return;
  }
  const ProcId fwd = find_other(l, p, LineState::kForward);
  if (fwd != kNoProc) {
    // The F holder responds and hands the forwarding duty to the newest
    // sharer (it is the least likely to evict soon in real MESIF).
    charge_cache_transfer(p);
    l.st[fwd] = LineState::kShared;
    fill(l, p, LineState::kForward);
    return;
  }
  if (any_valid_other(l, p)) {
    // Only plain S copies remain (the F holder crashed) — nobody responds,
    // memory supplies. Same transfer-message count as MESI, more cycles;
    // the requester picks up the forwarding duty.
    charge_memory_fetch(p);
    fill(l, p, LineState::kForward);
    return;
  }
  // Truly cold: memory supplies and the sole copy takes E, enabling the
  // same silent E -> M upgrade MESI gets.
  charge_memory_fetch(p);
  fill(l, p, LineState::kExclusive);
}

void MesifCache::write(Line& l, ProcId p) {
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
    case LineState::kShared:
    case LineState::kForward:
      charge_bus_signal(p);
      invalidate_others(l, p);
      l.st[p] = LineState::kModified;
      bump_version(l, p);
      l.memory_stale = true;
      return;
    default:
      break;
  }
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

std::optional<std::string> MesifCache::check_line(const LineState* st,
                                                  bool memory_stale,
                                                  VarId v) const {
  int exclusive_like = 0;
  int forward = 0;
  int valid = 0;
  bool dirty = false;
  for (int q = 0; q < nprocs_; ++q) {
    switch (st[q]) {
      case LineState::kInvalid:
        break;
      case LineState::kShared:
        ++valid;
        break;
      case LineState::kForward:
        ++valid;
        ++forward;
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
  if (forward > 1) {
    return std::string(name()) + ": two F holders on v" + std::to_string(v);
  }
  if (forward == 1 && memory_stale) {
    // F is a clean state: it can only exist while memory is current.
    return std::string(name()) + ": F held while memory is stale on v" +
           std::to_string(v);
  }
  if (memory_stale && !dirty) {
    return std::string(name()) + ": memory stale with no M holder on v" +
           std::to_string(v);
  }
  return std::nullopt;
}

}  // namespace rmrsim
