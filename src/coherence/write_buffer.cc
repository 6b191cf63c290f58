#include "coherence/write_buffer.h"

#include "common/bitmask.h"
#include "common/check.h"

namespace rmrsim {

WriteBuffer::WriteBuffer(CoherenceListener* inner, int nprocs, int capacity)
    : inner_(inner), nprocs_(nprocs), capacity_(capacity),
      mask_words_(mask_words(nprocs)),
      pending_(static_cast<std::size_t>(nprocs)) {
  ensure(inner != nullptr, "WriteBuffer needs a backing listener");
  ensure(nprocs > 0, "WriteBuffer needs at least one processor");
  ensure(capacity > 0, "WriteBuffer capacity must be positive");
}

const std::uint64_t* WriteBuffer::holder_set(VarId v) const {
  const std::size_t at =
      static_cast<std::size_t>(v) * static_cast<std::size_t>(mask_words_);
  return at < holders_.size() ? holders_.data() + at : nullptr;
}

bool WriteBuffer::holds(ProcId p, VarId v) const {
  const std::uint64_t* set = holder_set(v);
  return set != nullptr && mask_test(set, p);
}

std::uint64_t* WriteBuffer::holders(VarId v) {
  const std::size_t at =
      static_cast<std::size_t>(v) * static_cast<std::size_t>(mask_words_);
  if (at >= holders_.size()) {
    holders_.resize(at + static_cast<std::size_t>(mask_words_), 0);
  }
  return holders_.data() + at;
}

int WriteBuffer::find_pending(ProcId p, VarId v) const {
  if (!holds(p, v)) return -1;
  const auto& q = pending_[static_cast<std::size_t>(p)];
  for (std::size_t i = 0; i < q.size(); ++i) {
    if (q[i].var == v) return static_cast<int>(i);
  }
  return -1;
}

void WriteBuffer::drain(ProcId p) {
  auto& q = pending_[static_cast<std::size_t>(p)];
  for (const CoherenceEvent& e : q) {
    inner_->on_event(e);
    ++drained_;
    mask_clear(holders(e.var), p);
  }
  q.clear();
}

void WriteBuffer::drain_conflicting(ProcId p, VarId v) {
  const std::uint64_t* set = holder_set(v);
  if (set == nullptr) return;  // nobody ever buffered a write to v
  // Ascending processor order, as the drains have always run. Draining q
  // only clears q's own bits, so the walk sees every other holder.
  mask_for_each(set, mask_words_, [&](ProcId q) {
    if (q != p) drain(q);
  });
}

void WriteBuffer::on_event(const CoherenceEvent& e) {
  ensure(e.proc >= 0 && e.proc < nprocs_, "event from out-of-range proc");
  ensure(e.var >= 0, "event on out-of-range variable");
  // Coherence point: before this access can proceed, any *other* processor's
  // buffered store to the same variable must become visible.
  drain_conflicting(e.proc, e.var);

  if (e.op == OpType::kWrite) {
    const int i = find_pending(e.proc, e.var);
    if (i >= 0) {
      // Same-variable repeat store coalesces in place, keeping its slot in
      // the FIFO so drain order still respects the first store's position.
      pending_[static_cast<std::size_t>(e.proc)][static_cast<std::size_t>(i)] =
          e;
      ++coalesced_;
      return;
    }
    auto& q = pending_[static_cast<std::size_t>(e.proc)];
    if (static_cast<int>(q.size()) >= capacity_) drain(e.proc);
    q.push_back(e);
    mask_set(holders(e.var), e.proc);
    ++buffered_;
    return;
  }

  if (e.op == OpType::kRead) {
    if (holds(e.proc, e.var)) {
      // Store forwarding: the youngest buffered value satisfies the read;
      // the backing protocol never sees a transaction.
      ++forwarded_;
      return;
    }
    inner_->on_event(e);
    return;
  }

  // Atomic primitives are a full drain barrier for the issuing processor.
  drain(e.proc);
  inner_->on_event(e);
}

void WriteBuffer::on_crash(ProcId p) {
  ensure(p >= 0 && p < nprocs_, "crash of out-of-range proc");
  // Mirrors the fleet's flushed-then-lost crash rule: the store already
  // holds the buffered values, so they become visible, then the cache dies.
  drain(p);
  inner_->on_crash(p);
}

void WriteBuffer::flush() {
  for (int p = 0; p < nprocs_; ++p) drain(p);
  inner_->flush();
}

void WriteBuffer::reset() {
  for (auto& q : pending_) q.clear();
  holders_.clear();
  buffered_ = 0;
  coalesced_ = 0;
  forwarded_ = 0;
  drained_ = 0;
}

int WriteBuffer::pending(ProcId p) const {
  ensure(p >= 0 && p < nprocs_, "proc id out of range");
  return static_cast<int>(pending_[static_cast<std::size_t>(p)].size());
}

}  // namespace rmrsim
