// History export: CSV and JSON-lines dumps plus an ASCII lane timeline.
//
// Debugging distributed interleavings off a wall of step records is
// painful; these exporters turn a History into (a) machine-readable rows
// for offline analysis (CSV / JSON lines, one record per step) and (b) a
// per-process lane view where each column is one step and RMRs stand out —
// the picture one draws on a whiteboard when replaying the Section 6
// adversary by hand.
#pragma once

#include <ostream>
#include <string>
#include <string_view>

#include "history/history.h"

namespace rmrsim {

/// Escapes `s` for embedding inside a JSON string literal: quote, backslash,
/// and every control character below 0x20 (the common ones as \" \\ \n \r
/// \t \b \f, the rest as \u00XX). Shared by every JSON emitter in the repo
/// (history JSON lines, the metrics registry, BENCH_*.json artifacts) so
/// string safety is a property of the writer, not an accident of field
/// contents.
std::string json_escape(std::string_view s);

/// CSV with header: index,proc,kind,op,var,home,arg0,arg1,result,rmr,
/// nontrivial,event,code,value,terminated. Each row is written to `os` as
/// soon as it is formatted, so the dump costs one row of memory, not the
/// whole trace.
void write_history_csv(std::ostream& os, const History& h);

/// JSON lines, one object per record (no external dependencies; fields
/// mirror the CSV), written row by row as write_history_csv is. All string
/// fields pass through json_escape.
void write_history_json_lines(std::ostream& os, const History& h);

/// ASCII timeline: one lane per process, one column per step.
///   R = local read   W = local write  other local ops = o
///   uppercase with '!' (R!, W!, o!) = the step was an RMR
///   b/e = call begin/end, d = directive, . = idle, X = terminated after
/// Lanes longer than `max_cols` are truncated with an ellipsis.
std::string history_timeline(const History& h, int max_cols = 120);

}  // namespace rmrsim
