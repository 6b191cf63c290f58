// The Section 6 lower-bound adversary, executable.
//
// Theorem 6.2: no deterministic terminating read/write algorithm solves the
// signaling problem (polling semantics, many waiters not fixed in advance,
// signaler not fixed in advance) with O(1) amortized RMRs in the DSM model.
// The proof is a two-part adversarial construction; this class *runs* that
// construction against a concrete algorithm and reports the quantities the
// proof reasons about.
//
// Part 1 (Lemmas 6.10–6.12, Kim–Anderson style): all processes participate
// as waiters, repeatedly calling Poll(). Round by round, each unstable
// waiter advances to its next pending RMR; see/touch conflicts (regularity,
// Definition 6.6) are resolved by erasing everything outside a greedy
// independent set of the conflict graph (Turán bound); same-variable write
// pile-ups trigger the roll-forward case (the last writer finishes and
// leaves), distinct-variable writes the erasing case. Rounds continue until
// every surviving waiter is *stable* (Definition 6.8: it spins on its own
// module, incurring no further RMRs) or the round limit is hit.
//
// Part 2 (Lemma 6.13): each stable waiter completes its pending call; a
// signaler s whose memory module was never written runs Signal() solo. The
// "wild goose chase": whenever s is about to *see* an active waiter (read a
// variable it last wrote) or *touch* one (access its module), that waiter is
// erased just before the step — so s's discovery work is wasted, one RMR per
// stable waiter. A correct algorithm is forced to spend >= one RMR per
// stable waiter while the final history contains only s and the O(1)
// processes finished in part 1: amortized RMRs grow ~ linearly in N.
//
// Two constructions are provided:
//  * kStrict  — the full Section 6 machinery (erasing, roll-forward,
//    invariant checking). Requires the DSM model and a read/write algorithm
//    (Theorem 6.2's hypothesis); stronger primitives are detected and
//    reported as out-of-scope.
//  * kLenient — the simplified Section 7 argument ("the signaler must write
//    remotely to the local memory of each stable waiter"): stabilize all
//    waiters without erasure, then measure the signaler, again without
//    erasure (erase_during_chase is ignored). Works under any model and
//    primitive set; this is also the CC-side control that exhibits the
//    separation.
//
// Erasure is performed in place (Simulation::erase_process) under the exact
// Lemma 6.7 precondition — the erased process was never seen — which the
// runtime re-checks on every erasure.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "memory/shared_memory.h"
#include "signaling/algorithm.h"

namespace rmrsim {

enum class Construction { kStrict, kLenient };

struct AdversaryConfig {
  int nprocs = 32;             ///< total processes (waiters + reserve)
  int reserve = 1;             ///< processes kept aside as signaler candidates
  Construction construction = Construction::kStrict;
  /// Strict construction only: false = measure-only part 2. The lenient
  /// construction never erases during the chase.
  bool erase_during_chase = true;
  int max_rounds = 16;             ///< part-1 round limit (the proof's c)
  std::uint64_t probe_steps = 64;  ///< stability semi-decision budget
                                   ///< (substitution 4 in DESIGN.md)
  std::uint64_t rmr_cap_per_waiter = 64;  ///< lenient: give up stabilizing a
                                          ///< waiter past this many RMRs
  int unstable_extension_rounds = 8;  ///< Lemma 6.11 branch: extra RMR rounds
  /// Memory factory: defaults to make_dsm(nprocs). kStrict requires DSM.
  std::function<std::unique_ptr<SharedMemory>(int)> make_memory;
  /// Observer called with the simulation after every erasure (tests check
  /// the erasure index against the record scans there). Optional.
  std::function<void(const Simulation&)> after_erase;
};

struct RoundStats {
  int round = 0;
  int active = 0;
  int finished = 0;
  int stable = 0;
  int unstable = 0;
  int erased_this_round = 0;
  bool rolled_forward = false;
  std::uint64_t max_active_rmrs = 0;
  std::uint64_t max_finished_rmrs = 0;
  bool regular = false;  ///< Definition 6.6 check on the round's history
};

struct AdversaryReport {
  std::string algorithm;
  std::string model;
  Construction construction = Construction::kStrict;
  int nprocs = 0;

  // Scope (Theorem 6.2 hypothesis: reads and writes only).
  bool in_scope = true;
  std::string scope_note;

  // Part 1.
  bool stabilized = false;
  int rounds = 0;
  int stable_waiters = 0;       ///< active & stable when part 1 ended
  int finished_after_part1 = 0; ///< rolled-forward processes
  int erased_total = 0;
  std::vector<RoundStats> round_stats;

  // Lemma 6.11 branch: waiters that never stabilize yield unbounded
  // amortized RMRs directly.
  bool unstable_branch = false;
  double unstable_amortized_start = 0.0;
  double unstable_amortized_end = 0.0;

  // Part 2.
  ProcId signaler = kNoProc;
  std::uint64_t signaler_rmrs = 0;
  int erased_during_chase = 0;
  int waiters_delivered = 0;  ///< stable waiters surviving the chase (0 under
                              ///< erasure for a correct algorithm)
  bool spec_violation = false;
  std::string violation_what;

  // Final history H' (after the proof's closing erasures).
  int participants_final = 0;
  std::uint64_t total_rmrs_final = 0;
  /// total_rmrs_final / participants_final — the quantity Theorem 6.2 says
  /// cannot stay bounded. (For the unstable branch, see
  /// unstable_amortized_end instead.)
  double amortized_final = 0.0;

  std::string to_string() const;
};

class SignalingAdversary {
 public:
  using AlgFactory =
      std::function<std::unique_ptr<SignalingAlgorithm>(SharedMemory&)>;

  SignalingAdversary(AlgFactory factory, AdversaryConfig config);

  /// Runs the full construction and returns the measured report.
  AdversaryReport run();

  /// The simulated world (the rebuilt one after an out-of-scope fallback).
  const Simulation& simulation() const { return *sim_; }

 private:
  enum class Mode { kPollForever, kFinish, kSignalThenFinish, kIdle };
  enum class Stability { kUnknown, kStable, kUnstable };

  bool is_waiter(ProcId p) const;
  bool is_active(ProcId p) const;  // waiter, not finished/erased
  std::vector<ProcId> active_procs() const;
  Directive directive_for(ProcId p);

  /// Advances p to its next pending RMR or diagnoses stability.
  Stability probe(ProcId p);

  /// Erases p (Lemma 6.7) and updates bookkeeping.
  void erase(ProcId p);

  /// Lets a finishing process run to termination, erasing any active process
  /// it is about to see or touch (the part-1 roll-forward rule).
  void roll_forward(ProcId p);

  /// Erases active processes the pending op of `p` would see or touch.
  /// Returns how many were erased.
  int clear_targets(ProcId p);

  bool part1_strict(AdversaryReport& report);
  bool part1_lenient(AdversaryReport& report);
  void unstable_branch(AdversaryReport& report);
  void part2(AdversaryReport& report);

  /// (Re)creates memory, algorithm, simulation and bookkeeping from scratch.
  void build_instance();

  AdversaryConfig config_;
  AlgFactory factory_;
  std::unique_ptr<SharedMemory> mem_;
  std::unique_ptr<SignalingAlgorithm> alg_;
  std::unique_ptr<Simulation> sim_;
  std::vector<Mode> modes_;
  std::vector<Stability> stability_;
  std::vector<bool> signal_issued_;  // per-proc: Signal directive consumed
  int erased_count_ = 0;
  int finished_count_ = 0;
};

}  // namespace rmrsim
