// Shrinker unit tests: a counterexample with a known minimal core must
// shrink to exactly that core; the shrinker must never return a schedule
// that fails to reproduce the violation; and shrinking must canonicalize —
// different witnesses of the same bug converge to the same minimal one.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "harness/drive.h"
#include "verify/dpor.h"
#include "verify/explorer.h"
#include "verify/shrink.h"

namespace rmrsim {
namespace {

// The world: signaling_explore_builder with `broken` — one BrokenLocalSignal
// waiter (proc 0, `polls` polls) and the signaler (proc 1). The bug fires
// on ANY schedule where a completed Signal() precedes a completed Poll():
// the minimal witness is exactly
//   [1, 1, 0, 0]
// — signaler writes S, signaler terminates (flushing Signal's call-end),
// waiter reads its flag (flushing Poll's call-begin, now after the
// completed Signal), waiter terminates (flushing the false return).
const std::vector<ProcId> kMinimalCore{1, 1, 0, 0};

TEST(Shrink, KnownMinimalCoreShrinksExactly) {
  const auto build = signaling_explore_builder(
      "dsm", make_signal_factory_by_name("broken", 1), 1, 2);
  const auto check = polling_spec_checker();

  // A noisy witness: the waiter burns a first (legal-false) poll before the
  // signaler runs; its second poll then begins after Signal() completed and
  // still returns false.
  const std::vector<ProcId> noisy{0, 1, 1, 0, 0};
  const auto base = reproduce_violation(build, check, noisy);
  ASSERT_TRUE(base.has_value()) << "the noisy witness must itself violate";

  const auto shrunk = shrink_counterexample(build, check, noisy);
  ASSERT_TRUE(shrunk.has_value());
  EXPECT_EQ(shrunk->schedule, kMinimalCore);
  EXPECT_EQ(shrunk->message, base->first);
  EXPECT_GT(shrunk->candidates_tried, 0);
}

TEST(Shrink, MinimalCoreIsAFixpoint) {
  const auto build = signaling_explore_builder(
      "dsm", make_signal_factory_by_name("broken", 1), 1, 1);
  const auto check = polling_spec_checker();
  const auto shrunk = shrink_counterexample(build, check, kMinimalCore);
  ASSERT_TRUE(shrunk.has_value());
  EXPECT_EQ(shrunk->schedule, kMinimalCore);

  // Sharpness of the core: every single-step deletion kills reproduction.
  for (std::size_t i = 0; i < kMinimalCore.size(); ++i) {
    std::vector<ProcId> cand = kMinimalCore;
    cand.erase(cand.begin() + static_cast<std::ptrdiff_t>(i));
    EXPECT_FALSE(reproduce_violation(build, check, cand).has_value())
        << "dropping step " << i << " should not reproduce";
  }
}

TEST(Shrink, DifferentWitnessesCanonicalizeToTheSameCore) {
  const auto build = signaling_explore_builder(
      "dsm", make_signal_factory_by_name("broken", 1), 1, 2);
  const auto check = polling_spec_checker();
  const std::vector<std::vector<ProcId>> witnesses{
      {1, 1, 0, 0},
      {1, 0, 1, 0, 0},  // first poll begins mid-Signal (legal), second trips
      {0, 1, 1, 0, 0},  // first poll burned before the signaler runs
      {1, 1, 0, 0, 0},  // trailing steps beyond the violation point
  };
  for (const auto& w : witnesses) {
    const auto shrunk = shrink_counterexample(build, check, w);
    ASSERT_TRUE(shrunk.has_value()) << "witness did not reproduce";
    EXPECT_EQ(shrunk->schedule, kMinimalCore);
  }
}

TEST(Shrink, NonViolatingScheduleReturnsNullopt) {
  const auto build = signaling_explore_builder(
      "dsm", make_signal_factory_by_name("broken", 1), 1, 1);
  const auto check = polling_spec_checker();
  // Waiter-only steps: poll returns a legal false, nothing violates.
  EXPECT_FALSE(
      shrink_counterexample(build, check, {0, 0}).has_value());
  // Invalid schedule: process id out of range.
  EXPECT_FALSE(
      shrink_counterexample(build, check, {5, 1, 1, 0, 0}).has_value());
  // Empty schedule: empty history, no violation.
  EXPECT_FALSE(shrink_counterexample(build, check, {}).has_value());
}

TEST(Shrink, ResultAlwaysReproduces) {
  // Property pinned across a batch of DPOR-found witnesses: whatever the
  // shrinker returns replays to the same message. Uses the DPOR explorer's
  // violating schedule for several poll budgets (deeper trees each time).
  for (const int polls : {1, 2, 3}) {
    const auto build = signaling_explore_builder(
        "dsm", make_signal_factory_by_name("broken", 1), 1, polls);
    const auto check = polling_spec_checker();
    const auto r =
        explore_dpor(build, check, {{.max_depth = 20, .max_nodes = 200'000}});
    ASSERT_TRUE(r.violation.has_value());
    const auto shrunk =
        shrink_counterexample(build, check, r.violating_schedule);
    ASSERT_TRUE(shrunk.has_value());
    const auto replay = reproduce_violation(build, check, shrunk->schedule);
    ASSERT_TRUE(replay.has_value());
    EXPECT_EQ(replay->first, shrunk->message);
    EXPECT_EQ(replay->second, shrunk->schedule.size())
        << "shrunk schedule carries steps past the violation";
    EXPECT_LE(shrunk->schedule.size(), r.violating_schedule.size());
  }
}

}  // namespace
}  // namespace rmrsim
