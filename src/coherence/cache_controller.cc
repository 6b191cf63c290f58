#include "coherence/cache_controller.h"

#include <bit>
#include <utility>

#include "common/check.h"

namespace rmrsim {

std::string_view to_string(LineState s) {
  switch (s) {
    case LineState::kInvalid: return "I";
    case LineState::kShared: return "S";
    case LineState::kExclusive: return "E";
    case LineState::kModified: return "M";
    case LineState::kOwned: return "O";
    case LineState::kForward: return "F";
    case LineState::kSharedClean: return "Sc";
    case LineState::kSharedModified: return "Sm";
  }
  return "?";
}

SnoopingCache::SnoopingCache(std::string name, int nprocs, CycleCosts costs)
    : nprocs_(nprocs), mask_words_(mask_words(nprocs)), costs_(costs),
      name_(std::move(name)),
      proc_cycles_(static_cast<std::size_t>(nprocs), 0) {
  ensure(nprocs > 0, "SnoopingCache needs at least one processor");
}

SnoopingCache::Line SnoopingCache::line(VarId v) {
  ensure(v >= 0, "variable id out of range");
  const auto i = static_cast<std::size_t>(v);
  if (i >= meta_.size()) {
    meta_.resize(i + 1);
    st_.resize(meta_.size() * static_cast<std::size_t>(nprocs_),
               LineState::kInvalid);
    ver_.resize(meta_.size() * static_cast<std::size_t>(nprocs_), 0);
    valid_.resize(meta_.size() * static_cast<std::size_t>(mask_words_), 0);
  }
  const std::size_t at = i * static_cast<std::size_t>(nprocs_);
  LineMeta& m = meta_[i];
  return Line{st_.data() + at, ver_.data() + at,
              valid_.data() + i * static_cast<std::size_t>(mask_words_),
              m.version, m.memory_stale};
}

LineState SnoopingCache::state(ProcId p, VarId v) const {
  if (v < 0 || static_cast<std::size_t>(v) >= meta_.size() || p < 0 ||
      p >= nprocs_) {
    return LineState::kInvalid;
  }
  return st_[static_cast<std::size_t>(v) * static_cast<std::size_t>(nprocs_) +
             static_cast<std::size_t>(p)];
}

std::uint64_t SnoopingCache::proc_cycles(ProcId p) const {
  ensure(p >= 0 && p < nprocs_, "proc id out of range");
  return proc_cycles_[static_cast<std::size_t>(p)];
}

void SnoopingCache::on_event(const CoherenceEvent& e) {
  access(e.proc, e.var, e.nontrivial);
}

void SnoopingCache::access(ProcId p, VarId v, bool write_access) {
  ensure(p >= 0 && p < nprocs_, "access by out-of-range proc");
  Line l = line(v);
  event_cycles_ = 0;
  if (write_access) {
    write(l, p);
  } else {
    read(l, p);
  }
  if (cycle_log_enabled_) cycle_log_.push_back(event_cycles_);
}

void SnoopingCache::on_crash(ProcId p) {
  ensure(p >= 0 && p < nprocs_, "crash of out-of-range proc");
  for (std::size_t i = 0; i < meta_.size(); ++i) {
    std::uint64_t* valid =
        valid_.data() + i * static_cast<std::size_t>(mask_words_);
    if (!mask_test(valid, p)) continue;
    const std::size_t at = i * static_cast<std::size_t>(nprocs_) +
                           static_cast<std::size_t>(p);
    // A dirty owner's copy is treated as flushed before the power-off, so
    // memory is current again and later fills cannot see stale data. No
    // cycles are charged: crashes are free in the pricing model.
    const LineState s = st_[at];
    const bool dirty_owner = s == LineState::kModified ||
                             s == LineState::kOwned ||
                             s == LineState::kSharedModified;
    st_[at] = LineState::kInvalid;
    ver_[at] = 0;
    mask_clear(valid, p);
    if (dirty_owner) meta_[i].memory_stale = false;
  }
}

void SnoopingCache::reset() {
  MessageCounter::reset();
  updates_ = 0;
  stats_.reset();
  st_.clear();
  ver_.clear();
  valid_.clear();
  meta_.clear();
  proc_cycles_.assign(static_cast<std::size_t>(nprocs_), 0);
  cycle_log_.clear();
}

void SnoopingCache::charge_cycles(ProcId p, std::uint64_t cycles) {
  stats_.cycles += cycles;
  proc_cycles_[static_cast<std::size_t>(p)] += cycles;
  event_cycles_ += cycles;
}

void SnoopingCache::charge_hit(ProcId p) {
  ++stats_.cache_hits;
  (void)p;  // hits are free; the tally still names the proc's access
}

void SnoopingCache::charge_memory_fetch(ProcId p) {
  ++stats_.memory_fetches;
  ++transfers_;
  charge_cycles(p, costs_.memory_fetch);
}

void SnoopingCache::charge_cache_transfer(ProcId p) {
  ++stats_.cache_transfers;
  ++transfers_;
  charge_cycles(p, costs_.cache_transfer);
}

void SnoopingCache::charge_bus_signal(ProcId p) {
  ++stats_.bus_signals;
  charge_cycles(p, costs_.bus_signal);
}

void SnoopingCache::charge_bus_update(ProcId p) {
  ++stats_.bus_updates;
  charge_cycles(p, costs_.bus_update);
}

void SnoopingCache::charge_write_back(ProcId p) {
  ++stats_.write_backs;
  charge_cycles(p, costs_.write_back);
}

void SnoopingCache::invalidate_others(Line& l, ProcId p) {
  for_each_other(l, p, [&](ProcId q) {
    l.st[q] = LineState::kInvalid;
    l.ver[q] = 0;
    mask_clear(l.valid, q);
    ++invalidations_;
    ++useful_;  // a snooping cache only invalidates copies that exist
  });
}

void SnoopingCache::update_others(Line& l, ProcId p) {
  for_each_other(l, p, [&](ProcId q) {
    l.ver[q] = l.version;
    ++updates_;
  });
}

void SnoopingCache::fill(Line& l, ProcId p, LineState s) {
  l.st[p] = s;
  l.ver[p] = l.version;
  mask_set(l.valid, p);
}

void SnoopingCache::bump_version(Line& l, ProcId p) {
  ++l.version;
  l.ver[p] = l.version;
}

int SnoopingCache::count_valid_others(const Line& l, ProcId p) const {
  return mask_count(l.valid, mask_words_) - (mask_test(l.valid, p) ? 1 : 0);
}

ProcId SnoopingCache::find_other(const Line& l, ProcId p, LineState s) const {
  for (int w = 0; w < mask_words_; ++w) {
    for (std::uint64_t bits = l.valid[w]; bits != 0; bits &= bits - 1) {
      const auto q = static_cast<ProcId>(w * 64 + std::countr_zero(bits));
      if (q != p && l.st[q] == s) return q;
    }
  }
  return kNoProc;
}

std::optional<std::string> SnoopingCache::check_invariants() const {
  // Tally consistency first: it catches miscounting even on empty lines.
  if (useful_ > invalidations_) {
    return "useful invalidations exceed invalidation messages";
  }
  if (total_messages() != transfers_ + invalidations_ + updates_) {
    return "total_messages out of sync with its components";
  }
  for (std::size_t i = 0; i < meta_.size(); ++i) {
    const auto v = static_cast<VarId>(i);
    const LineState* st = st_.data() + i * static_cast<std::size_t>(nprocs_);
    const std::uint64_t* ver =
        ver_.data() + i * static_cast<std::size_t>(nprocs_);
    const std::uint64_t* valid =
        valid_.data() + i * static_cast<std::size_t>(mask_words_);
    const LineMeta& m = meta_[i];
    for (int q = 0; q < nprocs_; ++q) {
      // The sharer mask is a cache of the states; every mask walk trusts
      // it, so a drifted bit would silently skip (or invent) a copy.
      const bool holds = st[q] != LineState::kInvalid;
      if (mask_test(valid, q) != holds) {
        return "sharer mask out of sync: proc " + std::to_string(q) +
               " is " + std::string(to_string(st[q])) + " on v" +
               std::to_string(v) + " but its mask bit is " +
               (holds ? "clear" : "set");
      }
      // Every valid copy must hold the latest value — invalidation
      // protocols guarantee it by destroying stale copies, Dragon by
      // refreshing them.
      if (holds && ver[q] != m.version) {
        return "stale valid copy: proc " + std::to_string(q) + " holds v" +
               std::to_string(v) + " at version " + std::to_string(ver[q]) +
               " of " + std::to_string(m.version);
      }
    }
    if (auto err = check_line(st, m.memory_stale, v)) return err;
  }
  return std::nullopt;
}

}  // namespace rmrsim
