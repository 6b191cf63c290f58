// Persistent frontier for the parallel DPOR search (crash tolerance).
//
// A DPOR exploration is a deterministic function of (instance, options):
// the coordinator's trunk walk, the set of work items it spawns, and each
// item's subtree depend on nothing else (dpor.h). That determinism is the
// whole checkpoint design. Instead of serializing the live search state —
// trunk nodes, pending sets, vector clocks — the checkpoint persists only
// the *completed work-item outcomes*, keyed by the item's root schedule
// (unique per search: the trunk dedupes (schedule, proc) expansions, so
// each item root is created at most once). On resume, the coordinator
// re-runs its cheap sequential trunk walk identically and substitutes the
// recorded outcome wherever an item it is about to run is already in the
// checkpoint; everything downstream — merges, race insertions, the
// lex-least violation — is byte-identical to an uninterrupted run by
// construction. The expensive part of a search is the items (the subtrees
// below trunk_depth); the trunk is a few hundred nodes.
//
// On-disk layout (DESIGN.md §11): the checkpoint directory holds cumulative
// epoch files `epoch-N.ckpt`, each a complete serialization of every
// outcome and quarantine recorded so far. An epoch is written atomically
// (tmp + fsync + rename + dir fsync, common/fsio.h), so a SIGKILL at any
// point leaves either the previous epoch or the new one — never a torn
// current epoch *and* no previous one. Every record carries a CRC-32 and
// the header is versioned, fingerprinted, and CRC-guarded; load_latest
// walks epochs newest-first and installs the first fully valid one, logging
// each discarded file with the reason. A fingerprint mismatch (the search
// options changed) is a hard error, not a fallback.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "verify/explorer.h"

namespace rmrsim {

/// A violation found inside a work item, with the full macro schedule that
/// reaches it. The coordinator picks the lex-least across all items.
struct ExploreViolation {
  std::vector<ProcId> schedule;
  std::string message;
};

/// A race insertion that targets a trunk node: drained by the coordinator
/// at the round barrier, in canonical (path, proc) order.
struct ExternalAdd {
  std::vector<ProcId> node_path;
  ProcId proc = kNoProc;
};

/// Everything a completed work item contributes to the search: counters,
/// violations, complete schedules, and the race insertions that escape to
/// the trunk. This is the unit of checkpointing — recording an outcome and
/// replaying it later is indistinguishable from re-running the item.
struct ItemOutcome {
  /// Macro schedule of the item's root — the identity key in a checkpoint.
  std::vector<ProcId> schedule;
  /// Node-budget charges the item made (committed to the shared counter
  /// only when the attempt succeeds, so failed attempts charge nothing).
  std::uint64_t charged = 0;
  std::uint64_t complete = 0;
  std::uint64_t truncated = 0;
  std::uint64_t sleep_prunes = 0;
  std::uint64_t sleep_blocked = 0;
  std::uint64_t backtracks = 0;
  ExploreStats replay;  // replayed_steps + snapshot_* counters only
  double estimate_sum = 0.0;
  std::uint64_t leaves = 0;
  std::vector<ExploreViolation> violations;
  std::vector<std::vector<ProcId>> completes;  // macro schedules (if collected)
  std::vector<ExternalAdd> externals;
  /// True if the item stopped early on the global node budget. Such an
  /// outcome is partial — it is merged (best effort, like before) but never
  /// recorded into a checkpoint, or a later resume with a larger budget
  /// would silently trust it.
  bool budget_hit = false;
};

/// Serialization of one ItemOutcome (without budget_hit — partial outcomes
/// are never written). Exposed for tests; throws std::runtime_error on any
/// truncation or malformed payload when decoding.
std::string encode_item_outcome(const ItemOutcome& out);
ItemOutcome decode_item_outcome(std::string_view bytes);

/// The persistent frontier. Thread-safe: workers record outcomes
/// concurrently; the coordinator looks items up between rounds.
class ExploreCheckpoint {
 public:
  struct Config {
    /// Checkpoint directory (created if missing).
    std::string dir;
    /// Fingerprint of the search configuration. load_latest refuses (hard
    /// error) epochs written under a different fingerprint: outcomes are
    /// only valid for the exact search that produced them.
    std::uint64_t fingerprint = 0;
    /// Write an epoch after this many new records (<= 0: only explicit
    /// flush() calls, which the search issues at every round barrier).
    int flush_interval = 16;
    /// Cumulative epochs kept on disk; older ones are pruned after a
    /// successful write. Must be >= 2 so a torn newest epoch always has a
    /// predecessor to fall back to.
    int keep_epochs = 3;
    /// Test/fault-injection hook, called (under the checkpoint lock,
    /// possibly from a worker thread) after each epoch file is durably in
    /// place, with the epoch number. Must not throw; the self-kill harness
    /// uses it to SIGKILL the process at exact epoch boundaries.
    std::function<void(std::uint64_t)> on_epoch_written;
  };

  struct LoadReport {
    std::uint64_t epoch = 0;       ///< epoch installed (0 = none found)
    std::size_t outcomes = 0;      ///< item outcomes loaded
    std::size_t quarantined = 0;   ///< quarantined items loaded
    /// One line per rejected file: "<file>: <reason>". Non-empty means a
    /// torn/corrupt epoch was detected and recovery fell back past it.
    std::vector<std::string> discarded;
  };

  explicit ExploreCheckpoint(Config config);

  /// Fresh start: removes every epoch file (and stray .tmp) in the
  /// directory. Used when a checkpoint dir is reused without --resume.
  void reset();

  /// Installs the newest fully CRC-valid epoch, newest-first; corrupt or
  /// truncated files are skipped with a reason in the report, never
  /// partially trusted. Throws if a structurally valid epoch carries a
  /// different fingerprint.
  LoadReport load_latest();

  /// The recorded outcome for an item root, or nullptr. Coordinator-side;
  /// the returned copy-by-value keeps callers independent of the map.
  bool lookup(const std::vector<ProcId>& schedule, ItemOutcome* out) const;

  /// True iff the item was quarantined (this run or a loaded epoch);
  /// `reason` (optional) receives why.
  bool is_quarantined(const std::vector<ProcId>& schedule,
                      std::string* reason = nullptr) const;

  /// Records a completed item (keyed by outcome.schedule). Auto-flushes an
  /// epoch every flush_interval new records. Callers must not record
  /// budget_hit outcomes.
  void record_outcome(const ItemOutcome& outcome);

  /// Records a permanently failed item.
  void record_quarantine(const std::vector<ProcId>& schedule,
                         const std::string& reason);

  /// Writes an epoch now if anything changed since the last one.
  void flush();

  std::uint64_t epochs_written() const;
  std::uint64_t last_epoch() const;
  std::size_t outcome_count() const;

 private:
  void write_epoch_locked();

  Config config_;
  mutable std::mutex mu_;
  std::map<std::vector<ProcId>, ItemOutcome> outcomes_;
  std::map<std::vector<ProcId>, std::string> quarantined_;
  std::uint64_t epoch_ = 0;          // last epoch number written or loaded
  std::uint64_t epochs_written_ = 0; // epochs written by *this* process
  int dirty_ = 0;                    // records since the last epoch
};

}  // namespace rmrsim
