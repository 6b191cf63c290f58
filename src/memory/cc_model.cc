#include "memory/cc_model.h"

#include <algorithm>

#include "common/check.h"
#include "common/codec.h"

namespace rmrsim {

std::string_view to_string(CcPolicy policy) {
  switch (policy) {
    case CcPolicy::kWriteThrough: return "CC/write-through";
    case CcPolicy::kWriteBack: return "CC/write-back";
    case CcPolicy::kMesi: return "CC/MESI";
    case CcPolicy::kLfcu: return "CC/LFCU";
  }
  return "CC/?";
}

std::string_view CcModel::name() const { return to_string(policy_); }

const CcModel::Line* CcModel::line(VarId v) const {
  if (v < 0 || static_cast<std::size_t>(v) >= lines_.size()) return nullptr;
  return &lines_[static_cast<std::size_t>(v)];
}

CcModel::Line& CcModel::line_mut(VarId v) {
  ensure(v >= 0, "variable id out of range");
  if (static_cast<std::size_t>(v) >= lines_.size()) {
    lines_.resize(static_cast<std::size_t>(v) + 1);
  }
  return lines_[static_cast<std::size_t>(v)];
}

bool CcModel::contains(const std::vector<ProcId>& set, ProcId p) {
  return std::binary_search(set.begin(), set.end(), p);
}

void CcModel::insert(std::vector<ProcId>& set, ProcId p) {
  auto it = std::lower_bound(set.begin(), set.end(), p);
  if (it == set.end() || *it != p) set.insert(it, p);
}

bool CcModel::holds_copy(ProcId p, VarId v) const {
  const Line* l = line(v);
  return l != nullptr && contains(l->sharers, p);
}

bool CcModel::owns_exclusive(ProcId p, VarId v) const {
  const Line* l = line(v);
  return l != nullptr && l->owner == p;
}

bool CcModel::holds_exclusive_clean(ProcId p, VarId v) const {
  const Line* l = line(v);
  return l != nullptr && l->exclusive == p;
}

void CcModel::on_crash(ProcId p) {
  for (Line& l : lines_) {
    auto it = std::lower_bound(l.sharers.begin(), l.sharers.end(), p);
    if (it != l.sharers.end() && *it == p) l.sharers.erase(it);
    if (l.owner == p) l.owner = kNoProc;
    if (l.exclusive == p) l.exclusive = kNoProc;
  }
}

bool CcModel::read_like(ProcId p, const MemOp& op,
                        const MemoryStore& store) const {
  switch (op.type) {
    case OpType::kRead:
    case OpType::kLl:
      return true;
    case OpType::kWrite:
    case OpType::kFaa:
    case OpType::kFas:
      return false;
    case OpType::kCas:
    case OpType::kSc:
    case OpType::kTas:
      // A comparison that would not overwrite behaves read-like only under
      // LFCU (local failed comparisons); standard caches still arbitrate the
      // line for an atomic op.
      return policy_ == CcPolicy::kLfcu && !store.would_write(p, op);
  }
  fail("unknown op type");
}

bool CcModel::classify_rmr(ProcId p, const MemOp& op,
                           const MemoryStore& store) const {
  const Line* l = line(op.var);
  const bool cached = l != nullptr && contains(l->sharers, p);
  if (read_like(p, op, store)) {
    // Paper Section 2: repeated reads of a validly cached location cost one
    // RMR in total — i.e., a hit is local, a miss is the single RMR.
    return !cached;
  }
  if (policy_ == CcPolicy::kWriteBack) {
    // Writing a line held in M state is a cache hit.
    return !(l != nullptr && l->owner == p);
  }
  if (policy_ == CcPolicy::kMesi) {
    // M hit, or the silent E -> M upgrade: both local.
    return !(l != nullptr && (l->owner == p || l->exclusive == p));
  }
  // Write-through and LFCU: every overwrite engages the interconnect.
  return true;
}

void CcModel::on_applied(ProcId p, const MemOp& op, bool wrote,
                         const MemoryStore& /*store*/,
                         int* remote_copies_before) {
  Line& l = line_mut(op.var);
  int remote = 0;
  for (ProcId q : l.sharers) {
    if (q != p) ++remote;
  }
  *remote_copies_before = remote;

  if (!wrote) {
    // Read-like completion (including failed comparisons): the process now
    // holds a valid copy. Under write-back/MESI, another process's access
    // demotes a Modified owner to shared; under MESI a read miss that found
    // the line uncached anywhere takes Exclusive-clean, and any access by a
    // second process demotes the E holder.
    const bool was_cached = contains(l.sharers, p);
    insert(l.sharers, p);
    if ((policy_ == CcPolicy::kWriteBack || policy_ == CcPolicy::kMesi) &&
        l.owner != kNoProc && l.owner != p) {
      l.owner = kNoProc;
    }
    if (policy_ == CcPolicy::kMesi) {
      if (l.exclusive != kNoProc && l.exclusive != p) {
        l.exclusive = kNoProc;  // a second sharer exists now
      } else if (!was_cached && remote == 0) {
        l.exclusive = p;  // read miss, no other copies: E state
      }
    }
    return;
  }

  // Overwrite.
  switch (policy_) {
    case CcPolicy::kWriteThrough:
      // Invalidate all other copies; writer keeps a valid copy.
      l.sharers.clear();
      l.sharers.push_back(p);
      l.owner = kNoProc;
      break;
    case CcPolicy::kWriteBack:
      // Writer takes the line exclusively; all other copies invalidated.
      l.sharers.clear();
      l.sharers.push_back(p);
      l.owner = p;
      break;
    case CcPolicy::kMesi:
      // As write-back; an E holder upgrades to M (silently if it was p).
      l.sharers.clear();
      l.sharers.push_back(p);
      l.owner = p;
      l.exclusive = kNoProc;
      break;
    case CcPolicy::kLfcu:
      // Write-update: remote copies are refreshed in place and stay valid.
      insert(l.sharers, p);
      l.owner = kNoProc;
      break;
  }
}

void CcModel::save_state(std::string& out) const {
  put_u32(out, static_cast<std::uint32_t>(lines_.size()));
  for (const Line& l : lines_) {
    put_schedule(out, l.sharers);
    put_u32(out, static_cast<std::uint32_t>(l.owner));
    put_u32(out, static_cast<std::uint32_t>(l.exclusive));
  }
}

void CcModel::load_state(ByteReader& r) {
  lines_.clear();
  const std::uint32_t n = r.u32();
  r.need(std::size_t{12} * n);  // untrusted count: a line is >= 12 bytes
  lines_.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    Line l;
    l.sharers = r.schedule();
    l.owner = static_cast<ProcId>(r.u32());
    l.exclusive = static_cast<ProcId>(r.u32());
    lines_.push_back(std::move(l));
  }
}

}  // namespace rmrsim
