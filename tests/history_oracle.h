// Linear-scan answers to the erasure queries of Lemma 6.7: the definitions,
// read straight off a history's records, that the erasure index
// (History::seen_by_other, vars_written_by, writers_of,
// last_write_excluding), the store's last-writer lane and the counters that
// History::remove_proc subtracts must agree with. Each scan is O(H); tests
// only.
#pragma once

#include <algorithm>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "history/history.h"

namespace rmrsim::oracle {

inline bool overwrites(const StepRecord& r) {
  return r.kind == StepRecord::Kind::kMemOp && r.outcome.nontrivial;
}

/// Last process that overwrote `v` (kNoProc if never written).
inline ProcId last_writer(const History& h, VarId v) {
  ProcId w = kNoProc;
  for (const StepRecord& r : h.records()) {
    if (overwrites(r) && r.op.var == v) w = r.proc;
  }
  return w;
}

/// Distinct processes that overwrote `v`, in first-write order.
inline std::vector<ProcId> writers_of(const History& h, VarId v) {
  std::vector<ProcId> out;
  for (const StepRecord& r : h.records()) {
    if (overwrites(r) && r.op.var == v &&
        std::find(out.begin(), out.end(), r.proc) == out.end()) {
      out.push_back(r.proc);
    }
  }
  return out;
}

/// Variables `p` overwrote, in first-write order.
inline std::vector<VarId> vars_written_by(const History& h, ProcId p) {
  std::vector<VarId> out;
  for (const StepRecord& r : h.records()) {
    if (overwrites(r) && r.proc == p &&
        std::find(out.begin(), out.end(), r.op.var) == out.end()) {
      out.push_back(r.op.var);
    }
  }
  return out;
}

/// Value and writer of the last overwrite of `v` by a process other than
/// `exclude`.
inline std::optional<std::pair<Word, ProcId>> last_write_excluding(
    const History& h, VarId v, ProcId exclude) {
  std::optional<std::pair<Word, ProcId>> out;
  for (const StepRecord& r : h.records()) {
    if (overwrites(r) && r.op.var == v && r.proc != exclude) {
      out = {written_value(r), r.proc};
    }
  }
  return out;
}

/// True iff a process other than q read a value q wrote.
inline bool seen_by_other(const History& h, ProcId q) {
  return std::any_of(
      h.records().begin(), h.records().end(), [q](const StepRecord& r) {
        return r.proc != q && r.kind == StepRecord::Kind::kMemOp &&
               reads_value(r.op.type) && r.outcome.prev_writer == q;
      });
}

/// The counters of a history rebuilt from `h`'s records, in
/// History::encode_counters form.
inline std::string rebuilt_counters(const History& h) {
  History fresh;
  for (const StepRecord& r : h.records()) fresh.append(r);
  std::string out;
  fresh.encode_counters(out);
  return out;
}

}  // namespace rmrsim::oracle
