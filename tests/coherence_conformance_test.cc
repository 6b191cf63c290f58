// Conformance tests for the coherence-protocol fleet: every row is one
// (state, event) probe against a state machine prepared by a short access
// prelude, checking the full transition contract — resulting per-processor
// states, message deltas (transfers / invalidations / updates), and the
// exact cycle charge under the default CycleCosts table (memory fetch 100,
// cache transfer 12, bus signal / update 2, write-back 100). A failing row
// names the protocol, the prelude, and the probe, localizing a transition
// bug to a single arc of the protocol's diagram.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "coherence/cache_controller.h"
#include "coherence/fleet.h"
#include "coherence/protocols/mesi.h"

namespace rmrsim {
namespace {

constexpr int kProcs = 4;
constexpr VarId kVar = 0;

// One transition probe. Accesses are tokens "R<p>" (read), "W<p>" (write),
// "X<p>" (crash of processor p); `expected` is the per-processor state of
// kVar after the probe, space-separated ("M I I I"). The message and cycle
// fields are deltas attributable to the probe alone. A row may widen the
// cache past kProcs (to straddle a sharer-mask word); its `expected` then
// lists only the valid copies, as "<p>:<state>" ("0:Sm 64:Sc").
struct Arc {
  const char* prelude;
  const char* probe;
  const char* expected;
  std::uint64_t transfers;
  std::uint64_t invalidations;
  std::uint64_t updates;
  std::uint64_t cycles;
  int nprocs = kProcs;
};

void apply_token(SnoopingCache& cache, const std::string& tok) {
  ASSERT_GE(tok.size(), 2u) << "bad access token: " << tok;
  ASSERT_EQ(tok.find_first_not_of("0123456789", 1), std::string::npos)
      << "bad processor in token: " << tok;
  const ProcId p = std::stoi(tok.substr(1));
  ASSERT_TRUE(p < cache.nprocs()) << "bad processor in token: " << tok;
  if (tok[0] == 'X') {
    cache.on_crash(p);
    return;
  }
  ASSERT_TRUE(tok[0] == 'R' || tok[0] == 'W') << "bad op in token: " << tok;
  cache.access(p, kVar, /*write=*/tok[0] == 'W');
}

std::string state_string(const SnoopingCache& cache) {
  const bool dense = cache.nprocs() == kProcs;
  std::string out;
  for (ProcId p = 0; p < cache.nprocs(); ++p) {
    const LineState s = cache.state(p, kVar);
    if (!dense && s == LineState::kInvalid) continue;
    if (!out.empty()) out += ' ';
    if (!dense) out += std::to_string(p) + ':';
    out += std::string(to_string(s));
  }
  return out;
}

void run_arc(const std::string& protocol, const Arc& arc) {
  SCOPED_TRACE(protocol + " x" + std::to_string(arc.nprocs) + ": [" +
               arc.prelude + "] probe " + arc.probe);
  std::unique_ptr<SnoopingCache> cache = make_protocol(protocol, arc.nprocs);
  ASSERT_NE(cache, nullptr);

  std::istringstream pre(arc.prelude);
  std::string tok;
  while (pre >> tok) {
    apply_token(*cache, tok);
    const auto viol = cache->check_invariants();
    ASSERT_FALSE(viol.has_value()) << "prelude violation: " << *viol;
  }

  const std::uint64_t t0 = cache->transfer_messages();
  const std::uint64_t i0 = cache->invalidation_messages();
  const std::uint64_t u0 = cache->update_messages();
  const std::uint64_t c0 = cache->total_cycles();
  apply_token(*cache, arc.probe);

  const auto viol = cache->check_invariants();
  EXPECT_FALSE(viol.has_value()) << "probe violation: " << *viol;
  EXPECT_EQ(state_string(*cache), arc.expected);
  EXPECT_EQ(cache->transfer_messages() - t0, arc.transfers) << "transfers";
  EXPECT_EQ(cache->invalidation_messages() - i0, arc.invalidations)
      << "invalidations";
  EXPECT_EQ(cache->update_messages() - u0, arc.updates) << "updates";
  EXPECT_EQ(cache->total_cycles() - c0, arc.cycles) << "cycles";
}

void run_table(const std::string& protocol, const std::vector<Arc>& table) {
  for (const Arc& arc : table) run_arc(protocol, arc);
}

TEST(CoherenceConformance, MesiTransitionTable) {
  run_table("mesi", {
      // Cold fills.
      {"", "R0", "E I I I", 1, 0, 0, 100},
      {"", "W0", "M I I I", 1, 0, 0, 100},
      // Clean sharing (Illinois): E or S holder supplies cache-to-cache.
      {"R1", "R0", "S S I I", 1, 0, 0, 12},
      {"R1 R2", "R0", "S S S I", 1, 0, 0, 12},
      // Read miss against a Modified owner: transfer + forced write-back
      // (S is a clean state in MESI) — the cost MOESI's O state avoids.
      {"W1", "R0", "S S I I", 1, 0, 0, 112},
      // Hits are free.
      {"W0", "W0", "M I I I", 0, 0, 0, 0},
      {"W0", "R0", "M I I I", 0, 0, 0, 0},
      // The silent E -> M upgrade: sole clean holder, no bus transaction.
      {"R0", "W0", "M I I I", 0, 0, 0, 0},
      // BusUpgr from S: address-only signal, one invalidation per copy.
      {"R1 R0", "W0", "M I I I", 0, 1, 0, 2},
      // Write miss (BusRdX): one fill transfer + invalidate every copy.
      {"R1 R2 R3", "W0", "M I I I", 1, 3, 0, 12},
      {"W1", "W0", "M I I I", 1, 1, 0, 12},
      // Crash of a dirty owner flushes the line (memory becomes current,
      // zero cycles charged), so the next fill is a cold E from memory.
      {"W1 X1", "R0", "E I I I", 1, 0, 0, 100},
      // Crash of one sharer leaves the other supplying the fill.
      {"R1 R2 X1", "W0", "M I I I", 1, 1, 0, 12},
      // Sharers straddling a sharer-mask word: 65 processors put 64 alone
      // in the second word.
      {"W64", "R0", "0:S 64:S", 1, 0, 0, 112, 65},
      {"W64 R0", "W0", "0:M", 0, 1, 0, 2, 65},
  });
}

TEST(CoherenceConformance, MesifTransitionTable) {
  run_table("mesif", {
      // Cold fill takes E, just like MESI.
      {"", "R0", "E I I I", 1, 0, 0, 100},
      // A read miss served cache-to-cache hands the requester F: the E,
      // M, or F holder responds and demotes to plain S.
      {"R1", "R0", "F S I I", 1, 0, 0, 12},
      {"R1 R2", "R0", "F S S I", 1, 0, 0, 12},
      {"W1", "R0", "F S I I", 1, 0, 0, 112},
      // The F holder crashed leaving only plain S copies: nobody responds,
      // memory supplies (same transfer count as MESI, 100 cycles not 12)
      // and the requester picks up forwarding duty.
      {"R1 R2 X2", "R0", "F S I I", 1, 0, 0, 100},
      // F writes like S: BusUpgr + invalidations.
      {"R1 R0", "W0", "M I I I", 0, 1, 0, 2},
      // Silent E -> M upgrade survives in MESIF.
      {"R0", "W0", "M I I I", 0, 0, 0, 0},
      // Write miss invalidates S and F copies alike.
      {"R1 R2", "W3", "I I I M", 1, 2, 0, 12},
      // Sharers straddling a sharer-mask word.
      {"W64", "R0", "0:F 64:S", 1, 0, 0, 112, 65},
      {"W64 R0", "W0", "0:M", 0, 1, 0, 2, 65},
  });
}

TEST(CoherenceConformance, MoesiTransitionTable) {
  run_table("moesi", {
      {"", "R0", "E I I I", 1, 0, 0, 100},
      {"R0", "W0", "M I I I", 0, 0, 0, 0},
      // The defining MOESI arc: a snooped read demotes M to O with NO
      // write-back — compare the MESI row that charges 112 here.
      {"W1", "R0", "S O I I", 1, 0, 0, 12},
      // The O holder is the designated responder and stays O.
      {"W1 R0", "R2", "S O S I", 1, 0, 0, 12},
      // A sharer upgrading invalidates the O copy too.
      {"W1 R0", "W0", "M I I I", 0, 1, 0, 2},
      // O reclaims exclusivity with an address-only upgrade.
      {"W0 R1", "W0", "M I I I", 0, 1, 0, 2},
      // A crashing O holder flushes; the surviving S copy supplies.
      {"W1 R0 X1", "R2", "S I S I", 1, 0, 0, 12},
      {"W1 X1", "R0", "E I I I", 1, 0, 0, 100},
      // Sharers straddling a sharer-mask word.
      {"W64", "R0", "0:S 64:O", 1, 0, 0, 12, 65},
      {"W64 R0", "W0", "0:M", 0, 1, 0, 2, 65},
  });
}

TEST(CoherenceConformance, DragonTransitionTable) {
  run_table("dragon", {
      {"", "R0", "E I I I", 1, 0, 0, 100},
      {"", "W0", "M I I I", 1, 0, 0, 100},
      {"R0", "W0", "M I I I", 0, 0, 0, 0},
      // Read misses demote the sole holder: E -> Sc, M -> Sm (keeps
      // update-ownership, dirty, no flush).
      {"R1", "R0", "Sc Sc I I", 1, 0, 0, 12},
      {"W1", "R0", "Sc Sm I I", 1, 0, 0, 12},
      // The defining Dragon arc: a shared write broadcasts the new word
      // (one update message per remote copy) instead of invalidating.
      {"R1 R0", "W0", "Sm Sc I I", 0, 0, 1, 2},
      // The previous update-owner demotes to Sc; the writer takes Sm.
      {"W1 R0", "W0", "Sm Sc I I", 0, 0, 1, 2},
      {"W0 R1", "W1", "Sc Sm I I", 0, 0, 1, 2},
      // Write miss with sharers: fill + update in one transaction.
      {"R1", "W0", "Sm Sc I I", 1, 0, 1, 14},
      // A shared write that finds nobody listening takes M: the bus
      // update transaction still runs (2 cycles) but carries 0 messages,
      // and future writes go silent.
      {"R1 R0 X1", "W0", "M I I I", 0, 0, 0, 2},
      // Dirty crash flushes, cold refill takes E.
      {"W1 X1", "R0", "E I I I", 1, 0, 0, 100},
      // Sharers straddling a sharer-mask word.
      {"W64", "R0", "0:Sc 64:Sm", 1, 0, 0, 12, 65},
      {"W64 R0", "W0", "0:Sm 64:Sc", 0, 0, 1, 2, 65},
  });
}

// Dragon never invalidates: across every row of its table (and any trace),
// invalidation_messages stays 0. Conversely the invalidation protocols
// never send updates. Checked here as a table-wide sweep so a future edit
// cannot quietly route a transition through the wrong message class.
TEST(CoherenceConformance, MessageClassesAreProtocolDisjoint) {
  const char* trace[] = {"R1", "W0", "R2", "W3", "R0", "W1", "X1", "W2"};
  for (const std::string& proto : protocol_names()) {
    std::unique_ptr<SnoopingCache> cache = make_protocol(proto, kProcs);
    for (const char* tok : trace) apply_token(*cache, tok);
    if (proto == "dragon") {
      EXPECT_EQ(cache->invalidation_messages(), 0u) << proto;
      EXPECT_GT(cache->update_messages(), 0u) << proto;
    } else {
      EXPECT_EQ(cache->update_messages(), 0u) << proto;
      EXPECT_GT(cache->invalidation_messages(), 0u) << proto;
      // Snooping caches only invalidate copies that exist.
      EXPECT_EQ(cache->superfluous_invalidations(), 0u) << proto;
    }
    const auto viol = cache->check_invariants();
    EXPECT_FALSE(viol.has_value()) << proto << ": " << *viol;
  }
}

// The opt-in per-event cycle log records exactly the cycles each injected
// access charged, in order — the raw material for per-call attribution.
TEST(CoherenceConformance, CycleLogRecordsPerEventCharges) {
  std::unique_ptr<SnoopingCache> cache = make_protocol("mesi", kProcs);
  cache->enable_cycle_log();
  cache->access(0, kVar, /*write=*/false);  // cold fill: memory fetch
  cache->access(1, kVar, /*write=*/false);  // clean share: cache transfer
  cache->access(1, kVar, /*write=*/true);   // BusUpgr from S
  cache->access(1, kVar, /*write=*/false);  // M hit
  const std::vector<std::uint64_t> expected = {100, 12, 2, 0};
  EXPECT_EQ(cache->cycle_log(), expected);
}

// MESI with one planted bug, to show check_invariants reports it. The
// sharer mask is a cache of the per-processor states that every mask walk
// trusts, so a bit that drifts either way is a violation; a valid copy left
// at an old version is the stale-copy violation, mask or no mask.
class BuggyMesi final : public MesiCache {
 public:
  enum class Bug { kDropReaderBit, kPhantomBit, kStaleSharer };
  BuggyMesi(int nprocs, Bug bug) : MesiCache(nprocs), bug_(bug) {}

 protected:
  void read(Line& l, ProcId p) override {
    MesiCache::read(l, p);
    if (bug_ == Bug::kDropReaderBit) mask_clear(l.valid, p);
    if (bug_ == Bug::kPhantomBit) mask_set(l.valid, nprocs_ - 1);
  }
  void write(Line& l, ProcId p) override {
    MesiCache::write(l, p);
    if (bug_ != Bug::kStaleSharer) return;
    // Resurrects the last processor's invalidated copy without a refill.
    const ProcId q = nprocs_ - 1;
    l.st[q] = LineState::kShared;
    mask_set(l.valid, q);
  }

 private:
  Bug bug_;
};

TEST(CoherenceConformance, InvariantsCatchMaskDriftAndStaleCopies) {
  for (const int n : {kProcs, 65}) {
    SCOPED_TRACE("nprocs " + std::to_string(n));
    BuggyMesi dropped(n, BuggyMesi::Bug::kDropReaderBit);
    dropped.access(n - 1, kVar, /*write=*/false);
    auto viol = dropped.check_invariants();
    ASSERT_TRUE(viol.has_value());
    EXPECT_NE(viol->find("sharer mask out of sync"), std::string::npos)
        << *viol;

    BuggyMesi phantom(n, BuggyMesi::Bug::kPhantomBit);
    phantom.access(0, kVar, /*write=*/false);
    viol = phantom.check_invariants();
    ASSERT_TRUE(viol.has_value());
    EXPECT_NE(viol->find("sharer mask out of sync"), std::string::npos)
        << *viol;

    BuggyMesi stale(n, BuggyMesi::Bug::kStaleSharer);
    stale.access(n - 1, kVar, /*write=*/false);
    stale.access(0, kVar, /*write=*/true);
    viol = stale.check_invariants();
    ASSERT_TRUE(viol.has_value());
    EXPECT_NE(viol->find("stale valid copy"), std::string::npos) << *viol;
  }
}

// make_protocol rejects unknown names instead of guessing.
TEST(CoherenceConformance, UnknownProtocolNameYieldsNull) {
  EXPECT_EQ(make_protocol("mosi", kProcs), nullptr);
  EXPECT_EQ(make_protocol("", kProcs), nullptr);
}

}  // namespace
}  // namespace rmrsim
