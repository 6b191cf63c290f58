#include "history/history.h"

#include <algorithm>
#include <map>

#include "common/check.h"

namespace rmrsim {

std::string StepRecord::to_string() const {
  std::string out = "#" + std::to_string(index) + " p" + std::to_string(proc) + " ";
  if (kind == Kind::kMemOp) {
    out += rmrsim::to_string(op);
    out += " -> " + std::to_string(outcome.result);
    out += outcome.rmr ? " [RMR]" : " [local]";
  } else {
    switch (event) {
      case EventKind::kCallBegin:
        out += "begin(call=" + std::to_string(code) + ")";
        break;
      case EventKind::kCallEnd:
        out += "end(call=" + std::to_string(code) +
               ", ret=" + std::to_string(value) + ")";
        break;
      case EventKind::kDirective:
        out += "directive(action=" + std::to_string(code) +
               ", arg=" + std::to_string(value) + ")";
        break;
      case EventKind::kMark:
        out += "mark(" + std::to_string(code) + ", " + std::to_string(value) + ")";
        break;
      case EventKind::kDelay:
        out += "delay(" + std::to_string(value) + ")";
        break;
      case EventKind::kCrash:
        out += "CRASH";
        break;
      case EventKind::kRecover:
        out += "recover";
        break;
    }
  }
  if (terminated_after) out += " [terminated]";
  return out;
}

void History::require_full(const char* what) const {
  ensure(mode_ == HistoryMode::kFull,
         std::string(what) + " requires a full history (HistoryMode::kFull); "
                             "this history records counters only");
}

void History::set_mode(HistoryMode mode) {
  ensure(size_ == 0, "history mode can only change while the history is "
                     "empty (counters cannot be rehydrated into records)");
  mode_ = mode;
}

const std::vector<StepRecord>& History::records() const {
  require_full("records()");
  compact();
  return records_;
}

void History::compact() const {
  ErasureIndex* ix = index_.ptr.get();
  if (ix == nullptr || ix->tombstones == 0) return;
  std::erase_if(records_, [](const StepRecord& r) { return r.index < 0; });
  ix->tombstones = 0;
  for (auto& ps : ix->positions) ps.clear();
  for (std::size_t i = 0; i < records_.size(); ++i) {
    records_[i].index = static_cast<std::int64_t>(i);
    ix->positions[static_cast<std::size_t>(records_[i].proc)].push_back(
        static_cast<std::uint32_t>(i));
  }
}

void History::ErasureIndex::add(const StepRecord& r, std::uint32_t position) {
  const auto grow = [](auto& lanes, std::size_t i) -> auto& {
    if (i >= lanes.size()) lanes.resize(i + 1);
    return lanes[i];
  };
  grow(positions, static_cast<std::size_t>(r.proc)).push_back(position);
  if (r.kind != StepRecord::Kind::kMemOp) return;
  const ProcId q = r.outcome.prev_writer;
  if (reads_value(r.op.type) && q != kNoProc && q != r.proc) {
    ++grow(seen_by, static_cast<std::size_t>(q));
  }
  if (r.outcome.nontrivial) {
    grow(overwrites, static_cast<std::size_t>(r.op.var))
        .push_back({r.proc, written_value(r)});
  }
}

History::ErasureIndex& History::index() const {
  if (index_.ptr == nullptr) {
    // Tombstones live in the index, so without one records_ is compact.
    index_.ptr = std::make_unique<ErasureIndex>();
    for (std::size_t i = 0; i < records_.size(); ++i) {
      index_.ptr->add(records_[i], static_cast<std::uint32_t>(i));
    }
  }
  return *index_.ptr;
}

History::ProcCounters& History::counters_for(ProcId p) {
  const auto idx = static_cast<std::size_t>(p);
  if (idx >= per_proc_.size()) [[unlikely]] per_proc_.resize(idx + 1);
  return per_proc_[idx];
}

void History::fold_into_counters(const StepRecord& r) {
  ProcCounters& c = counters_for(r.proc);
  ++c.steps;
  ++size_;
  if (r.terminated_after) c.finished = true;
  if (r.kind == StepRecord::Kind::kMemOp) {
    ++c.mem_steps;
    if (r.outcome.rmr) {
      ++c.rmrs;
      ++total_rmrs_;
    }
    if (r.op.type == OpType::kLl || r.op.type == OpType::kSc) {
      saw_ll_sc_ = true;
    }
  } else {
    if (r.event == EventKind::kCrash) ++crash_events_;
    if (r.event == EventKind::kRecover) ++recovery_events_;
  }
}

const StepRecord& History::append(StepRecord record) {
  // Numbered among the live records: the tombstones before it are dropped
  // by the next compaction.
  record.index = static_cast<std::int64_t>(size_);
  fold_into_counters(record);
  if (mode_ == HistoryMode::kFull) {
    records_.push_back(std::move(record));
    if (index_.ptr != nullptr) [[unlikely]] {
      index_.ptr->add(records_.back(),
                      static_cast<std::uint32_t>(records_.size() - 1));
    }
    return records_.back();
  }
  scratch_ = std::move(record);
  return scratch_;
}

std::vector<ProcId> History::participants() const {
  std::vector<ProcId> out;
  for (std::size_t p = 0; p < per_proc_.size(); ++p) {
    if (per_proc_[p].steps > 0) out.push_back(static_cast<ProcId>(p));
  }
  return out;
}

bool History::participated(ProcId p) const {
  const auto idx = static_cast<std::size_t>(p);
  return idx < per_proc_.size() && per_proc_[idx].steps > 0;
}

bool History::is_finished(ProcId p) const {
  const auto idx = static_cast<std::size_t>(p);
  return idx < per_proc_.size() && per_proc_[idx].finished;
}

std::vector<ProcId> History::finished() const {
  std::vector<ProcId> out;
  for (ProcId p : participants()) {
    if (is_finished(p)) out.push_back(p);
  }
  return out;
}

std::vector<ProcId> History::active() const {
  std::vector<ProcId> out;
  for (ProcId p : participants()) {
    if (!is_finished(p)) out.push_back(p);
  }
  return out;
}

bool History::sees(ProcId p, ProcId q) const {
  require_full("sees()");
  compact();
  return std::any_of(records_.begin(), records_.end(), [&](const StepRecord& r) {
    return r.proc == p && r.kind == StepRecord::Kind::kMemOp &&
           reads_value(r.op.type) && r.outcome.prev_writer == q;
  });
}

bool History::seen_by_other(ProcId q) const {
  require_full("seen_by_other()");
  const std::vector<std::uint64_t>& seen = index().seen_by;
  const auto idx = static_cast<std::size_t>(q);
  return idx < seen.size() && seen[idx] > 0;
}

bool History::touches(ProcId p, ProcId q) const {
  require_full("touches()");
  compact();
  return std::any_of(records_.begin(), records_.end(), [&](const StepRecord& r) {
    return r.proc == p && r.kind == StepRecord::Kind::kMemOp && r.var_home == q;
  });
}

bool History::touched_by_other(ProcId q) const {
  require_full("touched_by_other()");
  compact();
  return std::any_of(records_.begin(), records_.end(), [&](const StepRecord& r) {
    return r.proc != q && r.kind == StepRecord::Kind::kMemOp && r.var_home == q;
  });
}

bool History::is_regular() const {
  require_full("is_regular()");
  compact();
  // Conditions 1 and 2 of Definition 6.6, quantified over *participants*
  // (a non-participant owning a touched module is outside the definition).
  for (const StepRecord& r : records_) {
    if (r.kind != StepRecord::Kind::kMemOp) continue;
    const ProcId p = r.proc;
    if (reads_value(r.op.type)) {
      const ProcId q = r.outcome.prev_writer;
      if (q != kNoProc && q != p && !is_finished(q)) return false;
    }
    const ProcId h = r.var_home;
    if (h != kNoProc && h != p && participated(h) && !is_finished(h)) {
      return false;
    }
  }
  // Condition 3: for every variable written by more than one process, the
  // last writer must be finished.
  std::map<VarId, std::vector<ProcId>> writers;   // distinct writers per var
  std::map<VarId, ProcId> last_writer;
  for (const StepRecord& r : records_) {
    if (r.kind != StepRecord::Kind::kMemOp || !r.outcome.nontrivial) continue;
    auto& ws = writers[r.op.var];
    if (std::find(ws.begin(), ws.end(), r.proc) == ws.end()) ws.push_back(r.proc);
    last_writer[r.op.var] = r.proc;
  }
  for (const auto& [var, ws] : writers) {
    if (ws.size() > 1 && !is_finished(last_writer.at(var))) return false;
  }
  return true;
}

std::uint64_t History::rmrs(ProcId p) const {
  const auto idx = static_cast<std::size_t>(p);
  return idx < per_proc_.size() ? per_proc_[idx].rmrs : 0;
}

std::uint64_t History::total_rmrs() const { return total_rmrs_; }

std::uint64_t History::mem_steps(ProcId p) const {
  const auto idx = static_cast<std::size_t>(p);
  return idx < per_proc_.size() ? per_proc_[idx].mem_steps : 0;
}

void History::remove_proc(ProcId p) {
  require_full("remove_proc()");
  ensure(!saw_ll_sc_, "remove_proc() does not support LL/SC histories");
  const auto idx = static_cast<std::size_t>(p);
  if (idx >= per_proc_.size() || per_proc_[idx].steps == 0) return;
  ErasureIndex& ix = index();
  std::vector<VarId> written;
  for (const std::uint32_t pos : ix.positions[idx]) {
    StepRecord& r = records_[pos];
    if (r.kind == StepRecord::Kind::kMemOp) {
      const ProcId q = r.outcome.prev_writer;
      if (reads_value(r.op.type) && q != kNoProc && q != p) {
        --ix.seen_by[static_cast<std::size_t>(q)];
      }
      if (r.outcome.nontrivial) written.push_back(r.op.var);
    } else if (r.event == EventKind::kCrash) {
      --crash_events_;
    } else if (r.event == EventKind::kRecover) {
      --recovery_events_;
    }
    r.index = -1;  // tombstone, dropped by compact()
  }
  ix.tombstones += ix.positions[idx].size();
  ix.positions[idx].clear();
  std::sort(written.begin(), written.end());
  written.erase(std::unique(written.begin(), written.end()), written.end());
  for (const VarId v : written) {
    std::erase_if(ix.overwrites[static_cast<std::size_t>(v)],
                  [p](const Overwrite& w) { return w.writer == p; });
  }
  // Subtract p's counters; drop the trailing entries of processes with no
  // step left, as counting the remaining records afresh would.
  size_ -= per_proc_[idx].steps;
  total_rmrs_ -= per_proc_[idx].rmrs;
  per_proc_[idx] = ProcCounters{};
  while (!per_proc_.empty() && per_proc_.back().steps == 0) {
    per_proc_.pop_back();
  }
}

std::vector<VarId> History::vars_written_by(ProcId p) const {
  require_full("vars_written_by()");
  const ErasureIndex& ix = index();
  std::vector<VarId> out;
  const auto idx = static_cast<std::size_t>(p);
  if (idx >= ix.positions.size()) return out;
  for (const std::uint32_t pos : ix.positions[idx]) {
    const StepRecord& r = records_[pos];
    if (r.kind == StepRecord::Kind::kMemOp && r.outcome.nontrivial &&
        std::find(out.begin(), out.end(), r.op.var) == out.end()) {
      out.push_back(r.op.var);
    }
  }
  return out;
}

std::vector<ProcId> History::writers_of(VarId v) const {
  require_full("writers_of()");
  const ErasureIndex& ix = index();
  std::vector<ProcId> out;
  const auto idx = static_cast<std::size_t>(v);
  if (idx >= ix.overwrites.size()) return out;
  for (const Overwrite& w : ix.overwrites[idx]) {
    if (std::find(out.begin(), out.end(), w.writer) == out.end()) {
      out.push_back(w.writer);
    }
  }
  return out;
}

std::optional<std::pair<Word, ProcId>> History::last_write_excluding(
    VarId v, ProcId exclude) const {
  require_full("last_write_excluding()");
  const ErasureIndex& ix = index();
  const auto idx = static_cast<std::size_t>(v);
  if (idx >= ix.overwrites.size()) return std::nullopt;
  const std::vector<Overwrite>& ws = ix.overwrites[idx];
  for (auto it = ws.rbegin(); it != ws.rend(); ++it) {
    if (it->writer != exclude) return std::pair{it->value, it->writer};
  }
  return std::nullopt;
}

bool History::uses_ll_sc() const { return saw_ll_sc_; }

bool History::module_written(ProcId p) const {
  require_full("module_written()");
  compact();
  return std::any_of(records_.begin(), records_.end(), [p](const StepRecord& r) {
    return r.kind == StepRecord::Kind::kMemOp && r.outcome.nontrivial &&
           r.var_home == p;
  });
}

Word written_value(const StepRecord& r) {
  switch (r.op.type) {
    case OpType::kWrite:
    case OpType::kFas:
    case OpType::kSc:
      return r.op.arg0;
    case OpType::kCas:
      return r.op.arg1;
    case OpType::kFaa:
      return r.outcome.result + r.op.arg0;
    case OpType::kTas:
      return 1;
    case OpType::kRead:
    case OpType::kLl:
      break;
  }
  fail("record did not overwrite its variable");
}

void History::encode_counters(std::string& out) const {
  put_u32(out, static_cast<std::uint32_t>(per_proc_.size()));
  for (const ProcCounters& c : per_proc_) {
    put_u64(out, c.steps);
    put_u64(out, c.mem_steps);
    put_u64(out, c.rmrs);
    put_u32(out, c.finished ? 1 : 0);
  }
  put_u64(out, static_cast<std::uint64_t>(size_));
  put_u64(out, total_rmrs_);
  put_u64(out, crash_events_);
  put_u64(out, recovery_events_);
  put_u32(out, saw_ll_sc_ ? 1 : 0);
}

void History::encode(std::string& out) const {
  put_u32(out, static_cast<std::uint32_t>(mode_));
  encode_counters(out);
  if (mode_ == HistoryMode::kFull) {
    compact();
    put_u32(out, static_cast<std::uint32_t>(records_.size()));
    for (const StepRecord& r : records_) {
      put_u64(out, static_cast<std::uint64_t>(r.index));
      put_u32(out, static_cast<std::uint32_t>(r.proc));
      put_u32(out, static_cast<std::uint32_t>(r.kind));
      put_u32(out, static_cast<std::uint32_t>(r.op.type));
      put_u32(out, static_cast<std::uint32_t>(r.op.var));
      put_u64(out, static_cast<std::uint64_t>(r.op.arg0));
      put_u64(out, static_cast<std::uint64_t>(r.op.arg1));
      put_u64(out, static_cast<std::uint64_t>(r.outcome.result));
      put_u32(out, r.outcome.rmr ? 1 : 0);
      put_u32(out, r.outcome.nontrivial ? 1 : 0);
      put_u32(out, static_cast<std::uint32_t>(r.outcome.prev_writer));
      put_u32(out, static_cast<std::uint32_t>(r.var_home));
      put_u32(out, static_cast<std::uint32_t>(r.event));
      put_u64(out, static_cast<std::uint64_t>(r.code));
      put_u64(out, static_cast<std::uint64_t>(r.value));
      put_u32(out, r.terminated_after ? 1 : 0);
    }
  }
}

void History::decode(ByteReader& r) {
  const auto mode = static_cast<HistoryMode>(r.u32());
  if (mode != HistoryMode::kFull && mode != HistoryMode::kCountersOnly) {
    throw std::runtime_error("bad history mode");
  }
  mode_ = mode;
  // Untrusted counts: the input must hold that many minimum-size entries.
  const std::uint32_t nprocs = r.u32();
  r.need(std::size_t{28} * nprocs);
  per_proc_.clear();
  per_proc_.resize(nprocs);
  for (ProcCounters& c : per_proc_) {
    c.steps = r.u64();
    c.mem_steps = r.u64();
    c.rmrs = r.u64();
    c.finished = r.u32() != 0;
  }
  size_ = static_cast<std::size_t>(r.u64());
  total_rmrs_ = r.u64();
  crash_events_ = r.u64();
  recovery_events_ = r.u64();
  saw_ll_sc_ = r.u32() != 0;
  records_.clear();
  index_.ptr.reset();
  if (mode_ == HistoryMode::kFull) {
    const std::uint32_t n = r.u32();
    r.need(std::size_t{88} * n);
    records_.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) {
      StepRecord rec;
      rec.index = static_cast<std::int64_t>(r.u64());
      rec.proc = static_cast<ProcId>(r.u32());
      rec.kind = static_cast<StepRecord::Kind>(r.u32());
      rec.op.type = static_cast<OpType>(r.u32());
      rec.op.var = static_cast<VarId>(r.u32());
      rec.op.arg0 = static_cast<Word>(r.u64());
      rec.op.arg1 = static_cast<Word>(r.u64());
      rec.outcome.result = static_cast<Word>(r.u64());
      rec.outcome.rmr = r.u32() != 0;
      rec.outcome.nontrivial = r.u32() != 0;
      rec.outcome.prev_writer = static_cast<ProcId>(r.u32());
      rec.var_home = static_cast<ProcId>(r.u32());
      rec.event = static_cast<EventKind>(r.u32());
      rec.code = static_cast<Word>(r.u64());
      rec.value = static_cast<Word>(r.u64());
      rec.terminated_after = r.u32() != 0;
      records_.push_back(rec);
    }
  }
}

std::string History::to_string() const {
  require_full("to_string()");
  compact();
  std::string out;
  for (const StepRecord& r : records_) {
    out += r.to_string();
    out += '\n';
  }
  return out;
}

}  // namespace rmrsim
