#include "memory/store.h"

#include <algorithm>

#include "common/bitmask.h"
#include "common/check.h"

namespace rmrsim {

MemoryStore::MemoryStore(int nprocs)
    : nprocs_(nprocs), mask_words_(mask_words(nprocs)),
      names_(std::make_shared<std::vector<std::string>>()) {
  ensure(nprocs > 0, "store needs at least one processor");
}

VarId MemoryStore::allocate(Word initial, ProcId home, std::string name) {
  ensure(home == kNoProc || (home >= 0 && home < nprocs_),
         "variable home must be a processor id or kNoProc");
  values_.push_back(initial);
  initials_.push_back(initial);
  homes_.push_back(home);
  last_writers_.push_back(kNoProc);
  if (names_.use_count() > 1) {
    // A snapshot still shares our name table — copy-on-write before growing.
    names_ = std::make_shared<std::vector<std::string>>(*names_);
  }
  names_->push_back(std::move(name));
  writers_bits_.resize(values_.size() * static_cast<std::size_t>(mask_words_),
                       0);
  reservation_bits_.resize(
      values_.size() * static_cast<std::size_t>(mask_words_), 0);
  return static_cast<VarId>(values_.size() - 1);
}

std::uint64_t* MemoryStore::writer_mask(VarId v) {
  return writers_bits_.data() +
         static_cast<std::size_t>(v) * static_cast<std::size_t>(mask_words_);
}

const std::uint64_t* MemoryStore::writer_mask(VarId v) const {
  return writers_bits_.data() +
         static_cast<std::size_t>(v) * static_cast<std::size_t>(mask_words_);
}

std::uint64_t* MemoryStore::reservation_mask(VarId v) {
  return reservation_bits_.data() +
         static_cast<std::size_t>(v) * static_cast<std::size_t>(mask_words_);
}

const std::uint64_t* MemoryStore::reservation_mask(VarId v) const {
  return reservation_bits_.data() +
         static_cast<std::size_t>(v) * static_cast<std::size_t>(mask_words_);
}

bool MemoryStore::any_reservation(VarId v) const {
  const std::uint64_t* m = reservation_mask(v);
  for (int w = 0; w < mask_words_; ++w) {
    if (m[w] != 0) return true;
  }
  return false;
}

void MemoryStore::clear_slot_reservations(VarId v) {
  std::uint64_t* m = reservation_mask(v);
  for (int w = 0; w < mask_words_; ++w) m[w] = 0;
}

Word MemoryStore::value(VarId v) const { return values_[index(v)]; }
Word MemoryStore::initial(VarId v) const { return initials_[index(v)]; }
ProcId MemoryStore::last_writer(VarId v) const {
  return last_writers_[index(v)];
}

int MemoryStore::distinct_writers(VarId v) const {
  return mask_count(writer_mask(static_cast<VarId>(index(v))), mask_words_);
}

const std::string& MemoryStore::name(VarId v) const {
  return (*names_)[index(v)];
}

bool MemoryStore::would_write(ProcId p, const MemOp& op) const {
  const Word value = values_[index(op.var)];
  switch (op.type) {
    case OpType::kRead:
    case OpType::kLl:
      return false;
    case OpType::kWrite:
    case OpType::kFaa:
    case OpType::kFas:
      return true;
    case OpType::kTas:
      // Modeled as the comparison primitive CAS(v, 0, 1) returning the old
      // value: a TAS on an already-set flag fails the comparison and does
      // not overwrite. This is the reading under which LFCU systems service
      // failed TAS locally (Section 3, [1]).
      return value == 0;
    case OpType::kCas:
      return value == op.arg0;
    case OpType::kSc:
      return mask_test(reservation_mask(op.var), p);
  }
  fail("unknown op type");
}

void MemoryStore::note_write(VarId v, ProcId p) {
  last_writers_[static_cast<std::size_t>(v)] = p;
  mask_set(writer_mask(v), p);
  // An overwrite invalidates every other process's LL reservation on this
  // variable; the writer's own reservation also dies (standard LL/SC: SC
  // succeeds at most once per LL, and an intervening write by anyone clears
  // reservations).
  clear_slot_reservations(v);
}

MemoryStore::ApplyResult MemoryStore::apply(ProcId p, const MemOp& op) {
  ensure(p >= 0 && p < nprocs_, "process id out of range");
  const std::size_t i = index(op.var);
  Word& value = values_[i];
  ApplyResult r;
  r.prev_writer = last_writers_[i];
  switch (op.type) {
    case OpType::kRead:
      r.result = value;
      break;
    case OpType::kWrite:
      r.result = op.arg0;
      note_write(op.var, p);
      value = op.arg0;
      r.wrote = true;
      break;
    case OpType::kCas:
      r.result = value;
      if (value == op.arg0) {
        note_write(op.var, p);
        value = op.arg1;
        r.wrote = true;
      }
      break;
    case OpType::kLl:
      r.result = value;
      mask_set(reservation_mask(op.var), p);
      break;
    case OpType::kSc: {
      if (mask_test(reservation_mask(op.var), p)) {
        note_write(op.var, p);
        value = op.arg0;
        r.wrote = true;
        r.result = 1;
      } else {
        r.result = 0;
      }
      break;
    }
    case OpType::kFaa:
      r.result = value;
      note_write(op.var, p);
      value += op.arg0;
      r.wrote = true;
      break;
    case OpType::kFas:
      r.result = value;
      note_write(op.var, p);
      value = op.arg0;
      r.wrote = true;
      break;
    case OpType::kTas:
      r.result = value;
      if (value == 0) {
        note_write(op.var, p);
        value = 1;
        r.wrote = true;
      }
      break;
  }
  return r;
}

void MemoryStore::poke(VarId v, Word value, ProcId last_writer) {
  const std::size_t i = index(v);
  values_[i] = value;
  last_writers_[i] = last_writer;
}

void MemoryStore::forget_writer(VarId v, ProcId p) {
  mask_clear(writer_mask(static_cast<VarId>(index(v))), p);
}

void MemoryStore::clear_reservations(ProcId p) {
  ensure(p >= 0 && p < nprocs_, "process id out of range");
  const int word = p >> 6;
  const std::uint64_t bit = std::uint64_t{1} << (p & 63);
  for (std::size_t base = static_cast<std::size_t>(word);
       base < reservation_bits_.size();
       base += static_cast<std::size_t>(mask_words_)) {
    reservation_bits_[base] &= ~bit;
  }
}

bool MemoryStore::has_reservation(ProcId p, VarId v) const {
  return mask_test(reservation_mask(static_cast<VarId>(index(v))), p);
}

void MemoryStore::encode(std::string& out) const {
  put_u32(out, static_cast<std::uint32_t>(nprocs_));
  put_u32(out, static_cast<std::uint32_t>(values_.size()));
  for (std::size_t i = 0; i < values_.size(); ++i) {
    put_u64(out, static_cast<std::uint64_t>(initials_[i]));
    put_u32(out, static_cast<std::uint32_t>(homes_[i]));
    put_u64(out, static_cast<std::uint64_t>(values_[i]));
    put_u32(out, static_cast<std::uint32_t>(last_writers_[i]));
  }
  put_u32(out, static_cast<std::uint32_t>(writers_bits_.size()));
  for (const std::uint64_t w : writers_bits_) put_u64(out, w);
  for (const std::uint64_t w : reservation_bits_) put_u64(out, w);
}

void MemoryStore::decode(ByteReader& r) {
  const auto nprocs = static_cast<int>(r.u32());
  const auto nvars = r.u32();
  if (nprocs != nprocs_ || nvars != values_.size()) {
    throw std::runtime_error("snapshot store layout mismatch");
  }
  for (std::size_t i = 0; i < values_.size(); ++i) {
    const Word initial = static_cast<Word>(r.u64());
    const ProcId home = static_cast<ProcId>(r.u32());
    if (initial != initials_[i] || home != homes_[i]) {
      throw std::runtime_error("snapshot store layout mismatch");
    }
    values_[i] = static_cast<Word>(r.u64());
    last_writers_[i] = static_cast<ProcId>(r.u32());
  }
  const auto nwords = r.u32();
  if (nwords != writers_bits_.size()) {
    throw std::runtime_error("snapshot store layout mismatch");
  }
  for (std::size_t i = 0; i < writers_bits_.size(); ++i) {
    writers_bits_[i] = r.u64();
  }
  for (std::size_t i = 0; i < reservation_bits_.size(); ++i) {
    reservation_bits_[i] = r.u64();
  }
}

void MemoryStore::reset() {
  values_ = initials_;
  std::fill(last_writers_.begin(), last_writers_.end(), kNoProc);
  std::fill(writers_bits_.begin(), writers_bits_.end(), 0);
  std::fill(reservation_bits_.begin(), reservation_bits_.end(), 0);
}

}  // namespace rmrsim
