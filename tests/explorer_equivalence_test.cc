// Differential tests between the naive exhaustive explorer and the DPOR
// engine: on every seed configuration the two must agree on the verdict —
// violation found or not, and when found, the identical violation message.
// (The violating *schedules* may differ: DPOR reports the lex-least of the
// reduced tree, which the reduction guarantees is equivalent to, but not
// necessarily equal to, the naive one.)
//
// Also pinned here: parallel determinism (workers 1/2/4 produce
// bit-identical results), the reduction's node savings (>= 10x on a config
// both explorers exhaust), and a configuration the naive explorer cannot
// exhaust within its node budget but DPOR can.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "explore_fixtures.h"
#include "mutex/mcs_lock.h"
#include "mutex/simple_locks.h"
#include "verify/dpor.h"
#include "verify/explorer.h"

namespace rmrsim {
namespace {

// Every builder here is thread-safe by construction: each call builds a
// fresh world and writes no shared state (required for workers > 1).

// Runs both explorers and checks verdict equivalence. Returns the pair for
// further assertions.
struct Verdicts {
  ExploreResult naive;
  ExploreResult dpor;
};

Verdicts expect_same_verdict(const ExploreBuilder& build,
                             const ExploreChecker& check, int max_depth,
                             std::uint64_t max_nodes) {
  Verdicts v;
  v.naive = explore_all_schedules(build, check,
                                  {.max_depth = max_depth,
                                   .max_nodes = max_nodes});
  v.dpor = explore_dpor(build, check,
                        {.max_depth = max_depth, .max_nodes = max_nodes});
  EXPECT_EQ(v.naive.violation.has_value(), v.dpor.violation.has_value())
      << "naive: "
      << (v.naive.violation ? *v.naive.violation : std::string("clean"))
      << " | dpor: "
      << (v.dpor.violation ? *v.dpor.violation : std::string("clean"));
  if (v.naive.violation.has_value() && v.dpor.violation.has_value()) {
    EXPECT_EQ(*v.naive.violation, *v.dpor.violation);
  }
  return v;
}

TEST(ExplorerEquivalence, CcFlagBothModels) {
  for (const bool cc : {true, false}) {
    const Verdicts v = expect_same_verdict(
        signaling_explore_builder(
            cc ? "cc" : "dsm", make_signal_factory_by_name("flag", 2), 2, 2),
        polling_spec_checker(), 16, 500'000);
    EXPECT_FALSE(v.dpor.violation.has_value());
    EXPECT_TRUE(v.naive.exhausted);
    EXPECT_TRUE(v.dpor.exhausted);
    EXPECT_GT(v.dpor.complete_schedules, 0u);
  }
}

TEST(ExplorerEquivalence, RegistrationOneWaiter) {
  const Verdicts v = expect_same_verdict(
      signaling_explore_builder(
          "dsm", make_signal_factory_by_name("registration", 1), 1, 2),
      polling_spec_checker(), 24, 500'000);
  EXPECT_FALSE(v.dpor.violation.has_value());
  EXPECT_TRUE(v.dpor.exhausted);
}

TEST(ExplorerEquivalence, SingleWaiter) {
  const Verdicts v = expect_same_verdict(
      signaling_explore_builder(
          "dsm", make_signal_factory_by_name("single-waiter", 1), 1, 3),
      polling_spec_checker(), 24, 500'000);
  EXPECT_FALSE(v.dpor.violation.has_value());
  EXPECT_TRUE(v.dpor.exhausted);
}

TEST(ExplorerEquivalence, BrokenLocalViolationAgrees) {
  const Verdicts v = expect_same_verdict(
      signaling_explore_builder(
          "dsm", make_signal_factory_by_name("broken", 1), 1, 1),
      polling_spec_checker(), 16, 100'000);
  ASSERT_TRUE(v.dpor.violation.has_value());
  EXPECT_FALSE(v.dpor.violating_schedule.empty());
}

TEST(ExplorerEquivalence, TasLockMutex) {
  const Verdicts v =
      expect_same_verdict(gauge_mutex_builder<TasLock>(2, 1),
                          gauge_checker(), 17, 2'000'000);
  EXPECT_FALSE(v.dpor.violation.has_value());
  EXPECT_TRUE(v.dpor.exhausted);
}

TEST(ExplorerEquivalence, McsLockMutex) {
  const Verdicts v =
      expect_same_verdict(gauge_mutex_builder<McsLock>(2, 1),
                          gauge_checker(), 18, 2'000'000);
  EXPECT_FALSE(v.dpor.violation.has_value());
  EXPECT_TRUE(v.dpor.exhausted);
}

TEST(ExplorerEquivalence, NoLockViolationAgrees) {
  const Verdicts v = expect_same_verdict(gauge_mutex_builder<NoLock>(2, 1),
                                         gauge_checker(), 12, 100'000);
  ASSERT_TRUE(v.dpor.violation.has_value());
}

// ---------------------------------------------------------------------------
// Reduction strength.
// ---------------------------------------------------------------------------

TEST(ExplorerEquivalence, DporVisitsTenfoldFewerNodes) {
  // A config both explorers exhaust: the reduction must pay for itself.
  // (Two waiters: with three processes the commuting pairs multiply and the
  // reduction clears 10x; the 2-process config manages only ~7x.)
  const auto build = signaling_explore_builder(
      "dsm", make_signal_factory_by_name("registration", 2), 2, 1);
  const auto naive = explore_all_schedules(
      build, polling_spec_checker(),
      {.max_depth = 24, .max_nodes = 10'000'000});
  const auto dpor = explore_dpor(
      build, polling_spec_checker(),
      {.max_depth = 24, .max_nodes = 10'000'000});
  ASSERT_TRUE(naive.exhausted);
  ASSERT_TRUE(dpor.exhausted);
  EXPECT_FALSE(dpor.violation.has_value());
  EXPECT_GE(naive.nodes_visited, 10 * dpor.nodes_visited)
      << "naive " << naive.nodes_visited << " vs dpor " << dpor.nodes_visited;
  EXPECT_GT(dpor.stats.sleep_set_prunes, 0u);
  EXPECT_GT(dpor.stats.naive_tree_estimate, 0.0);
}

TEST(ExplorerEquivalence, DporExhaustsWhereNaiveCannot) {
  // Three waiters + signaler (4 processes): the naive tree dwarfs a 2M-node
  // budget, the reduced one fits with room to spare.
  const auto build = signaling_explore_builder(
      "dsm", make_signal_factory_by_name("registration", 3), 3, 1);
  const auto naive = explore_all_schedules(
      build, polling_spec_checker(), {.max_depth = 28, .max_nodes = 2'000'000});
  EXPECT_FALSE(naive.exhausted)
      << "naive explorer unexpectedly exhausted the 4-process tree in "
      << naive.nodes_visited << " nodes — deepen the config";
  const auto dpor = explore_dpor(
      build, polling_spec_checker(), {.max_depth = 28, .max_nodes = 2'000'000});
  EXPECT_TRUE(dpor.exhausted)
      << "DPOR tripped the same node budget: " << dpor.nodes_visited;
  EXPECT_FALSE(dpor.violation.has_value());
  EXPECT_LT(dpor.nodes_visited, naive.nodes_visited);
}

// ---------------------------------------------------------------------------
// Parallel determinism: identical results for workers 1, 2, 4 — verdict,
// message, schedule, exhaustion, and node count alike.
// ---------------------------------------------------------------------------

void expect_worker_invariance(const ExploreBuilder& build,
                              const ExploreChecker& check,
                              DporOptions options) {
  options.workers = 1;
  const ExploreResult one = explore_dpor(build, check, options);
  ASSERT_TRUE(one.exhausted) << "config must fit the node budget for the "
                                "determinism contract to apply";
  for (const int workers : {2, 4}) {
    options.workers = workers;
    const ExploreResult many = explore_dpor(build, check, options);
    EXPECT_EQ(one.violation.has_value(), many.violation.has_value())
        << "workers=" << workers;
    if (one.violation.has_value() && many.violation.has_value()) {
      EXPECT_EQ(*one.violation, *many.violation) << "workers=" << workers;
    }
    EXPECT_EQ(one.violating_schedule, many.violating_schedule)
        << "workers=" << workers;
    EXPECT_TRUE(many.exhausted) << "workers=" << workers;
    EXPECT_EQ(one.nodes_visited, many.nodes_visited)
        << "workers=" << workers;
    EXPECT_EQ(one.complete_schedules, many.complete_schedules)
        << "workers=" << workers;
  }
}

TEST(ExplorerEquivalence, WorkersAgreeOnCleanConfig) {
  expect_worker_invariance(
      signaling_explore_builder(
          "dsm", make_signal_factory_by_name("registration", 2), 2, 1),
      polling_spec_checker(), {.max_depth = 24, .max_nodes = 10'000'000});
}

TEST(ExplorerEquivalence, WorkersAgreeOnViolatingConfig) {
  expect_worker_invariance(gauge_mutex_builder<NoLock>(3, 1),
                           gauge_checker(),
                           {.max_depth = 15, .max_nodes = 10'000'000});
}

}  // namespace
}  // namespace rmrsim
