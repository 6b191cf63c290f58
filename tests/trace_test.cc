// Tests for the trace subsystem (per-call cost slicing, exporters) and the
// per-call cost *shapes* of the Section 7 algorithms — the "expensive first
// poll, free spins afterwards" fingerprint.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>

#include "memory/shared_memory.h"
#include "signaling/dsm_queue.h"
#include "signaling/dsm_registration.h"
#include "signaling/llsc_registration.h"
#include "signaling/checker.h"
#include "signaling/workload.h"
#include "trace/call_stats.h"
#include "trace/export.h"

namespace rmrsim {
namespace {

SignalingRun reg_run(int n_waiters) {
  SignalingWorkloadOptions opt;
  opt.n_waiters = n_waiters;
  opt.signaler_idle_polls = 32;
  return run_signaling_workload(
      make_dsm(n_waiters + 1),
      [n_waiters](SharedMemory& m) {
        return std::make_unique<DsmRegistrationSignal>(
            m, static_cast<ProcId>(n_waiters));
      },
      opt);
}

TEST(CallStats, SlicesCallsAndAttributesRmrs) {
  auto run = reg_run(4);
  const auto costs = per_call_costs(run.sim->history());
  // Every waiter made at least 2 polls (the signaler idled 32 polls' worth).
  for (ProcId p = 0; p < 4; ++p) {
    const auto polls = calls_of(costs, p, calls::kPoll);
    ASSERT_GE(polls.size(), 2u) << "p" << p;
    EXPECT_TRUE(polls.front().completed);
    EXPECT_EQ(polls.front().call_index, 0);
    // First poll: register (1 RMR) + S read (1 RMR) + local bookkeeping.
    EXPECT_EQ(polls.front().rmrs, 2u) << "p" << p;
    EXPECT_GE(polls.front().mem_steps, 3u);
    // All steady-state polls are free (local V spin).
    for (std::size_t i = 1; i < polls.size(); ++i) {
      EXPECT_EQ(polls[i].rmrs, 0u) << "p" << p << " call " << i;
    }
    // The last poll returned true.
    EXPECT_EQ(polls.back().returned, 1);
  }
  // Signaler's single Signal(): one RMR per waiter + the S write.
  const auto signals = calls_of(costs, 4, calls::kSignal);
  ASSERT_EQ(signals.size(), 1u);
  EXPECT_EQ(signals.front().rmrs, 5u);
}

TEST(CallStats, MaxFromIndexIsolatesSteadyState) {
  auto run = reg_run(6);
  const auto costs = per_call_costs(run.sim->history());
  EXPECT_GT(max_rmrs_from_index(costs, calls::kPoll, 0), 0u);
  EXPECT_EQ(max_rmrs_from_index(costs, calls::kPoll, 1), 0u);
}

TEST(CallStats, QueueAlgorithmFingerprint) {
  SignalingWorkloadOptions opt;
  opt.n_waiters = 5;
  opt.signaler_idle_polls = 16;
  auto run = run_signaling_workload(
      make_dsm(6),
      [](SharedMemory& m) { return std::make_unique<DsmQueueSignal>(m); },
      opt);
  const auto costs = per_call_costs(run.sim->history());
  for (ProcId p = 0; p < 5; ++p) {
    const auto polls = calls_of(costs, p, calls::kPoll);
    ASSERT_FALSE(polls.empty());
    EXPECT_LE(polls.front().rmrs, 3u);  // FAI + announce + S read
  }
  EXPECT_EQ(max_rmrs_from_index(costs, calls::kPoll, 1), 0u);
}

TEST(LlscRegistration, CorrectAndO1PerWaiter) {
  for (const std::uint64_t seed : {21u, 2121u, 212121u}) {
    SignalingWorkloadOptions opt;
    opt.n_waiters = 6;
    opt.scheduler_seed = seed;
    auto run = run_signaling_workload(
        make_dsm(7),
        [](SharedMemory& m) {
          return std::make_unique<LlscRegistrationSignal>(m);
        },
        opt);
    const auto v = check_polling_spec(run.sim->history());
    EXPECT_FALSE(v.has_value()) << v->what;
    const auto costs = per_call_costs(run.sim->history());
    EXPECT_EQ(max_rmrs_from_index(costs, calls::kPoll, 1), 0u);
  }
}

TEST(Export, CsvHasOneRowPerRecordPlusHeader) {
  auto run = reg_run(2);
  std::ostringstream os;
  write_history_csv(os, run.sim->history());
  const std::string csv = os.str();
  std::size_t lines = 0;
  for (const char c : csv) {
    if (c == '\n') ++lines;
  }
  EXPECT_EQ(lines, run.sim->history().size() + 1);
  EXPECT_NE(csv.find("READ"), std::string::npos);
  EXPECT_NE(csv.find("call_begin"), std::string::npos);
}

TEST(Export, JsonLinesParseableShape) {
  auto run = reg_run(2);
  std::ostringstream os;
  write_history_json_lines(os, run.sim->history());
  const std::string json = os.str();
  // Cheap structural checks: every line is one object.
  std::size_t objects = 0;
  std::size_t pos = 0;
  while ((pos = json.find("{\"index\":", pos)) != std::string::npos) {
    ++objects;
    ++pos;
  }
  EXPECT_EQ(objects, run.sim->history().size());
  EXPECT_NE(json.find("\"rmr\":true"), std::string::npos);
  EXPECT_NE(json.find("\"event\":\"call_end\""), std::string::npos);
}

// ---- pathological call shapes (synthetic histories) --------------------

StepRecord event_rec(ProcId p, EventKind e, Word code, Word value = 0) {
  StepRecord r;
  r.proc = p;
  r.kind = StepRecord::Kind::kEvent;
  r.event = e;
  r.code = code;
  r.value = value;
  return r;
}

StepRecord mem_rec(ProcId p, bool rmr) {
  StepRecord r;
  r.proc = p;
  r.kind = StepRecord::Kind::kMemOp;
  r.op = MemOp::read(0);
  r.outcome.rmr = rmr;
  return r;
}

TEST(CallStats, NestedCallsAttributeToInnermostExclusively) {
  History h;
  h.append(event_rec(0, EventKind::kCallBegin, calls::kAcquire));
  h.append(mem_rec(0, true));  // outer, before the nested call
  h.append(event_rec(0, EventKind::kCallBegin, calls::kRecover));
  h.append(mem_rec(0, true));   // inner
  h.append(mem_rec(0, false));  // inner
  h.append(event_rec(0, EventKind::kCallEnd, calls::kRecover, 7));
  h.append(mem_rec(0, true));  // outer again, after the nested call
  h.append(event_rec(0, EventKind::kCallEnd, calls::kAcquire, 1));
  const auto costs = per_call_costs(h);
  ASSERT_EQ(costs.size(), 2u);
  const CallCost& outer = costs[0];
  const CallCost& inner = costs[1];
  ASSERT_EQ(outer.call_code, calls::kAcquire);
  ASSERT_EQ(inner.call_code, calls::kRecover);
  // Exclusive attribution: the inner call's steps never double-count
  // into its parent.
  EXPECT_EQ(outer.mem_steps, 2u);
  EXPECT_EQ(outer.rmrs, 2u);
  EXPECT_TRUE(outer.completed);
  EXPECT_EQ(outer.returned, 1);
  EXPECT_EQ(inner.mem_steps, 2u);
  EXPECT_EQ(inner.rmrs, 1u);
  EXPECT_TRUE(inner.completed);
  EXPECT_EQ(inner.returned, 7);
}

TEST(CallStats, NeverEndingCallKeepsAccruedCosts) {
  History h;
  h.append(event_rec(0, EventKind::kCallBegin, calls::kPoll));
  h.append(mem_rec(0, true));
  h.append(mem_rec(0, true));
  // History ends mid-call (e.g. the run hit its step budget).
  const auto costs = per_call_costs(h);
  ASSERT_EQ(costs.size(), 1u);
  EXPECT_FALSE(costs[0].completed);
  EXPECT_EQ(costs[0].mem_steps, 2u);
  EXPECT_EQ(costs[0].rmrs, 2u);
}

TEST(CallStats, StepsOutsideAnyCallSpanAreIgnored) {
  History h;
  h.append(mem_rec(0, true));  // before any call
  h.append(event_rec(0, EventKind::kCallBegin, calls::kPoll));
  h.append(mem_rec(0, true));
  h.append(event_rec(0, EventKind::kCallEnd, calls::kPoll, 0));
  h.append(mem_rec(0, true));  // between calls
  // Another process's uncontained step must not leak into p0's call.
  h.append(mem_rec(1, true));
  const auto costs = per_call_costs(h);
  ASSERT_EQ(costs.size(), 1u);
  EXPECT_EQ(costs[0].proc, 0);
  EXPECT_EQ(costs[0].mem_steps, 1u);
  EXPECT_EQ(costs[0].rmrs, 1u);
}

TEST(CallStats, EndClosesInnermostMatchingCodeAndAbandonsNestedAbove) {
  History h;
  h.append(event_rec(0, EventKind::kCallBegin, calls::kAcquire));
  h.append(event_rec(0, EventKind::kCallBegin, calls::kPoll));
  h.append(mem_rec(0, true));  // inside the nested poll
  // The acquire ends while the nested poll is still open (a crash
  // truncated the poll's end): the poll is closed unfinished.
  h.append(event_rec(0, EventKind::kCallEnd, calls::kAcquire, 1));
  h.append(mem_rec(0, true));  // after both spans — unattributed
  const auto costs = per_call_costs(h);
  ASSERT_EQ(costs.size(), 2u);
  EXPECT_TRUE(costs[0].completed);   // acquire
  EXPECT_FALSE(costs[1].completed);  // poll, closed by the outer end
  EXPECT_EQ(costs[1].rmrs, 1u);
  EXPECT_EQ(costs[0].rmrs, 0u);
  // An end with no matching begin is ignored outright.
  h.append(event_rec(0, EventKind::kCallEnd, calls::kRelease, 0));
  EXPECT_EQ(per_call_costs(h).size(), 2u);
}

TEST(CallStats, CyclesOverlayAttributesPerMemoryStep) {
  // The cycle log indexes memory steps globally (SharedMemory publishes one
  // CoherenceEvent per applied op), so entry k prices the k-th kMemOp record
  // whether or not that step falls inside a call span; only span-contained
  // steps contribute to a call's total, innermost-exclusively.
  History h;
  h.append(mem_rec(0, true));  // step 0: before any call
  h.append(event_rec(0, EventKind::kCallBegin, calls::kAcquire));
  h.append(mem_rec(0, true));  // step 1: outer
  h.append(event_rec(0, EventKind::kCallBegin, calls::kPoll));
  h.append(mem_rec(0, false));  // step 2: inner
  h.append(event_rec(0, EventKind::kCallEnd, calls::kPoll, 0));
  h.append(mem_rec(0, true));  // step 3: outer again
  h.append(event_rec(0, EventKind::kCallEnd, calls::kAcquire, 1));
  h.append(mem_rec(0, true));  // step 4: after every call

  const std::vector<std::uint64_t> cycles = {100, 12, 0, 2, 100};
  const auto costs = per_call_costs(h, cycles);
  ASSERT_EQ(costs.size(), 2u);
  EXPECT_EQ(costs[0].call_code, calls::kAcquire);
  EXPECT_EQ(costs[0].cycles, 12u + 2u);  // steps 1 and 3; not the nested one
  EXPECT_EQ(costs[1].call_code, calls::kPoll);
  EXPECT_EQ(costs[1].cycles, 0u);
  // The log-free overload reports zero cycles everywhere.
  EXPECT_EQ(per_call_costs(h)[0].cycles, 0u);
}

TEST(CallStats, CyclesOverlayToleratesShortLog) {
  // A log shorter than the step count (listener attached for only part of
  // the run) prices the uncovered steps at zero instead of reading past
  // the end.
  History h;
  h.append(event_rec(0, EventKind::kCallBegin, calls::kPoll));
  h.append(mem_rec(0, true));
  h.append(mem_rec(0, true));
  h.append(event_rec(0, EventKind::kCallEnd, calls::kPoll, 0));
  const std::vector<std::uint64_t> cycles = {7};
  const auto costs = per_call_costs(h, cycles);
  ASSERT_EQ(costs.size(), 1u);
  EXPECT_EQ(costs[0].cycles, 7u);
}

// ---- JSON escaping ------------------------------------------------------

/// Minimal JSON string unescaper for round-trip checks (handles exactly the
/// forms json_escape emits: \" \\ \b \f \n \r \t and \u00XX).
std::string json_unescape(const std::string& s) {
  std::string out;
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i] != '\\') {
      out += s[i];
      continue;
    }
    ++i;
    switch (s[i]) {
      case '"': out += '"'; break;
      case '\\': out += '\\'; break;
      case 'b': out += '\b'; break;
      case 'f': out += '\f'; break;
      case 'n': out += '\n'; break;
      case 'r': out += '\r'; break;
      case 't': out += '\t'; break;
      case 'u': {
        const int hi = std::stoi(s.substr(i + 1, 4), nullptr, 16);
        out += static_cast<char>(hi);
        i += 4;
        break;
      }
      default: ADD_FAILURE() << "unknown escape \\" << s[i];
    }
  }
  return out;
}

TEST(Export, JsonEscapeRoundTripsControlCharacters) {
  const std::string nasty =
      "quote\" backslash\\ newline\n tab\t cr\r bell\x07 nul-adjacent\x1f ok";
  const std::string escaped = json_escape(nasty);
  // The escaped form must contain no raw control characters and no
  // unescaped quotes (a backslash-prefixed quote is fine).
  char prev = '\0';
  for (const char c : escaped) {
    EXPECT_GE(static_cast<unsigned char>(c), 0x20u);
    if (c == '"') {
      EXPECT_EQ(prev, '\\');
    }
    prev = c;
  }
  EXPECT_EQ(json_unescape(escaped), nasty);
}

TEST(Export, JsonLinesEscapeMarkPayloads) {
  // A mark whose rendered text would break naive JSON output.
  History h;
  StepRecord r = event_rec(0, EventKind::kMark, 0);
  h.append(r);
  std::ostringstream os;
  write_history_json_lines(os, h);
  const std::string json = os.str();
  // Every line must stay one well-formed object: balanced quotes, no raw
  // control characters.
  for (const char c : json) {
    if (c == '\n') continue;
    EXPECT_GE(static_cast<unsigned char>(c), 0x20u);
  }
  std::size_t quotes = 0;
  for (const char c : json) {
    if (c == '"') ++quotes;
  }
  EXPECT_EQ(quotes % 2, 0u);
}

TEST(Export, TimelineHasOneLanePerParticipant) {
  auto run = reg_run(3);
  const std::string lanes = history_timeline(run.sim->history(), 40);
  EXPECT_NE(lanes.find("p0 "), std::string::npos);
  EXPECT_NE(lanes.find("p3 "), std::string::npos);  // the signaler
  EXPECT_NE(lanes.find("R!"), std::string::npos);   // some RMR read exists
  EXPECT_NE(lanes.find("legend"), std::string::npos);
}

}  // namespace
}  // namespace rmrsim
