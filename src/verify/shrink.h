// Counterexample shrinking for explorer schedules.
//
// A violating macro schedule straight out of an explorer carries noise:
// macro steps of processes that never influence the violation, and
// orderings more adversarial than the bug needs. shrink_counterexample
// greedily minimizes a violating schedule while re-validating after every
// candidate edit that the violation still reproduces *with the same
// message* — the result is always a real, replayable witness:
//
//   1. process drop  — remove every step of one process at a time;
//   2. step drop     — remove single steps, to a fixpoint;
//   3. canonicalize  — adjacent swaps that make the schedule
//                      lexicographically smaller (closest to the ascending
//                      round-robin order the explorers enumerate first),
//                      so two runs of the same bug shrink to comparable
//                      witnesses.
//
// Every accepted candidate is truncated at the step where the violation
// (re)appears, so shrinking also trims trailing noise. Schedules here are
// macro schedules: each entry flushes a process's local events and applies
// its next memory op (Simulation::macro_step), the same unit the explorers
// branch on.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "verify/explorer.h"

namespace rmrsim {

struct ShrinkResult {
  /// The minimized macro schedule; replaying it reproduces `message`.
  std::vector<ProcId> schedule;
  /// The violation message the schedule reproduces (identical to the one
  /// the original schedule produced).
  std::string message;
  int candidates_tried = 0;
  int candidates_reproduced = 0;
  /// Replay/snapshot accounting across all candidate reproductions (the
  /// replay-related and snapshot_* fields only).
  ExploreStats stats;
};

struct ShrinkOptions {
  int max_passes = 32;
  /// Candidate reproduction. Candidates share long prefixes (each edit
  /// touches one position), so in snapshot mode each reproduction restores
  /// the deepest cached prefix instead of replaying from scratch, through
  /// the restore head every engine shares (verify/snapshot_cache.h). The
  /// shrinker keeps its own capture timing: a depth is captured only after
  /// the checker has passed there, so skipping the restored prefix's checks
  /// is exact (determinism: same prefix, same world, same check outcomes).
  /// Witnesses and messages are identical in both modes.
  SnapshotSettings snapshot = {};
};

/// Replays `schedule` on a fresh world, checking after every macro step;
/// returns the first violation message and the number of steps consumed to
/// reach it, or nullopt if the schedule is invalid (names a process that
/// cannot step) or never violates.
std::optional<std::pair<std::string, std::size_t>> reproduce_violation(
    const ExploreBuilder& build, const ExploreChecker& check,
    const std::vector<ProcId>& schedule);

/// Greedily shrinks a violating macro schedule (passes above, repeated up
/// to `max_passes` times or until a fixpoint). Returns nullopt if the input
/// schedule does not reproduce a violation in the first place; otherwise
/// the result's schedule is guaranteed to reproduce the result's message.
std::optional<ShrinkResult> shrink_counterexample(
    const ExploreBuilder& build, const ExploreChecker& check,
    const std::vector<ProcId>& schedule, const ShrinkOptions& options);

/// Convenience overload with default snapshot options.
std::optional<ShrinkResult> shrink_counterexample(
    const ExploreBuilder& build, const ExploreChecker& check,
    const std::vector<ProcId>& schedule, int max_passes = 32);

}  // namespace rmrsim
