// Tests for the harness subsystem: the asymptotic fitter, the canonical
// sweep grid, parallel-sweep determinism, the artifact writer, the drive.h
// factories, and reduced-size runs of the registered experiments (the same
// expectation gate CI enforces).
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "coherence/fleet.h"
#include "common/check.h"
#include "common/fsio.h"
#include "harness/artifact.h"
#include "harness/drive.h"
#include "harness/experiments.h"
#include "harness/fitter.h"
#include "harness/sweep.h"
#include "memory/shared_memory.h"

namespace rmrsim {
namespace {

std::vector<double> xs_pow2(int count) {
  std::vector<double> xs;
  for (int i = 0; i < count; ++i) xs.push_back(std::pow(2.0, 3 + i));
  return xs;
}

TEST(Fitter, ClassifiesFlatSeriesConstant) {
  const auto xs = xs_pow2(6);
  const std::vector<double> ys(6, 2.0);
  const FitReport fit = fit_growth_class(xs, ys);
  EXPECT_EQ(fit.cls, GrowthClass::kConstant);
  EXPECT_NEAR(fit.loglog_slope, 0.0, 0.05);
  EXPECT_FALSE(is_super_constant(fit.cls));
}

TEST(Fitter, ClassifiesNoisyFlatSeriesConstant) {
  const auto xs = xs_pow2(6);
  const std::vector<double> ys = {2.0, 2.1, 1.9, 2.05, 1.95, 2.0};
  EXPECT_EQ(fit_growth_class(xs, ys).cls, GrowthClass::kConstant);
}

TEST(Fitter, ClassifiesLogSeriesLogarithmic) {
  const auto xs = xs_pow2(6);
  std::vector<double> ys;
  for (const double x : xs) ys.push_back(9.0 * std::log2(x));
  const FitReport fit = fit_growth_class(xs, ys);
  EXPECT_EQ(fit.cls, GrowthClass::kLogarithmic);
  EXPECT_TRUE(is_super_constant(fit.cls));
}

TEST(Fitter, ClassifiesLinearSeriesLinear) {
  const auto xs = xs_pow2(6);
  std::vector<double> ys;
  for (const double x : xs) ys.push_back(3.0 * x + 5.0);
  const FitReport fit = fit_growth_class(xs, ys);
  EXPECT_EQ(fit.cls, GrowthClass::kLinear);
  EXPECT_NEAR(fit.loglog_slope, 1.0, 0.15);
}

TEST(Fitter, SqrtSeriesIsSuperConstant) {
  // The fitter only has three shapes; sqrt must at least land in a
  // super-constant one (the Omega(W) reading).
  const auto xs = xs_pow2(6);
  std::vector<double> ys;
  for (const double x : xs) ys.push_back(std::sqrt(x));
  EXPECT_TRUE(is_super_constant(fit_growth_class(xs, ys).cls));
}

TEST(Fitter, DecreasingSeriesIsConstant) {
  // Bounded above by its first point: the amortized one-time-constant
  // shape (cycles per RMR with a single cold fetch) is O(1), not log.
  const auto xs = xs_pow2(5);
  const std::vector<double> ys = {40.0, 24.0, 16.0, 12.0, 10.0};
  EXPECT_EQ(fit_growth_class(xs, ys).cls, GrowthClass::kConstant);
}

TEST(Fitter, TwoPointDipIsNotCalledConstant) {
  // Two points cannot establish a decreasing trend: a single noisy dip
  // has a steeply negative log-log slope, and the decreasing-series rule
  // used to call it O(1) on that evidence alone, masking real growth.
  // With only the point-pair to go on, the fitter must keep a
  // super-constant reading rather than certify boundedness.
  const std::vector<double> xs = {8.0, 16.0};
  const std::vector<double> ys = {40.0, 16.0};
  const FitReport fit = fit_growth_class(xs, ys);
  EXPECT_LT(fit.loglog_slope, -0.10);
  EXPECT_NE(fit.cls, GrowthClass::kConstant);
}

TEST(Fitter, ThreePointDecreasingSeriesStillConstant) {
  // The minimum-evidence gate is 3 points: a genuinely decreasing
  // 3-point series keeps the O(1) classification.
  const std::vector<double> xs = {8.0, 16.0, 32.0};
  const std::vector<double> ys = {40.0, 24.0, 16.0};
  EXPECT_EQ(fit_growth_class(xs, ys).cls, GrowthClass::kConstant);
}

TEST(Fitter, RejectsDuplicateXs) {
  // A repeated-N grid passes std::is_sorted but double-weights the repeated
  // point and, when every x is equal, zeroes the least-squares denominator
  // deep inside the slope fit. The fitter's contract is strictly ascending
  // xs; duplicates must be rejected up front with its own message.
  const std::vector<double> dup_xs = {8, 8, 16};
  const std::vector<double> dup_ys = {8, 8, 16};
  EXPECT_THROW(fit_growth_class(dup_xs, dup_ys), std::logic_error);
  const std::vector<double> flat_xs = {16, 16};
  const std::vector<double> flat_ys = {1, 2};
  EXPECT_THROW(fit_growth_class(flat_xs, flat_ys), std::logic_error);
}

TEST(Fitter, ExpectationMatching) {
  EXPECT_TRUE(matches(Expectation::kO1, GrowthClass::kConstant));
  EXPECT_FALSE(matches(Expectation::kO1, GrowthClass::kLogarithmic));
  EXPECT_TRUE(matches(Expectation::kThetaLogN, GrowthClass::kLogarithmic));
  EXPECT_FALSE(matches(Expectation::kThetaLogN, GrowthClass::kLinear));
  EXPECT_TRUE(matches(Expectation::kThetaN, GrowthClass::kLinear));
  EXPECT_TRUE(matches(Expectation::kOmegaW, GrowthClass::kLogarithmic));
  EXPECT_TRUE(matches(Expectation::kOmegaW, GrowthClass::kLinear));
  EXPECT_FALSE(matches(Expectation::kOmegaW, GrowthClass::kConstant));
}

// ---- sweep grid ---------------------------------------------------------

SweepSpec two_by_everything_spec() {
  SweepSpec s;
  s.name = "t";
  s.models = {"dsm", "cc"};
  s.algorithms = {"a", "b"};
  s.ns = {8, 16};
  s.seeds = {0, 1};
  s.fault_plans = {"", "random:rate=0.01"};
  return s;
}

TEST(Sweep, CanonicalOrderIsAlgorithmMajorFaultPlanMinor) {
  const SweepSpec s = two_by_everything_spec();
  ASSERT_EQ(s.grid_size(), 32u);
  // First point: first value on every axis.
  const SweepPoint p0 = s.point_at(0);
  EXPECT_EQ(p0.algorithm, "a");
  EXPECT_EQ(p0.model, "dsm");
  EXPECT_EQ(p0.n, 8);
  EXPECT_EQ(p0.seed, 0u);
  EXPECT_EQ(p0.fault_plan, "");
  EXPECT_EQ(p0.index, 0u);
  // Fault plan is the minor axis.
  EXPECT_EQ(s.point_at(1).fault_plan, "random:rate=0.01");
  EXPECT_EQ(s.point_at(1).seed, 0u);
  // Then seeds.
  EXPECT_EQ(s.point_at(2).seed, 1u);
  // Then N.
  EXPECT_EQ(s.point_at(4).n, 16);
  // Then model.
  EXPECT_EQ(s.point_at(8).model, "cc");
  // Algorithm is the major axis: the second half of the grid is all "b".
  EXPECT_EQ(s.point_at(16).algorithm, "b");
  EXPECT_EQ(s.point_at(31).algorithm, "b");
  EXPECT_EQ(s.point_at(31).model, "cc");
  EXPECT_EQ(s.point_at(31).n, 16);
  EXPECT_EQ(s.point_at(31).seed, 1u);
  EXPECT_EQ(s.point_at(31).fault_plan, "random:rate=0.01");
}

TEST(Sweep, CappedAtDropsLargeNsButKeepsMinPoints) {
  SweepSpec s;
  s.ns = {2, 8, 32, 128, 512};
  const SweepSpec capped = s.capped_at(32);
  EXPECT_EQ(capped.ns, (std::vector<int>{2, 8, 32}));
  // Capping below the third-smallest still keeps three points for the
  // fitter.
  const SweepSpec tiny = s.capped_at(4);
  EXPECT_EQ(tiny.ns, (std::vector<int>{2, 8, 32}));
}

MetricsRegistry synthetic_runner(const SweepPoint& p) {
  MetricsRegistry reg;
  // Deterministic values derived from the point's coordinates.
  reg.set("cost", static_cast<double>(p.n) * (p.model == "cc" ? 1 : 2) +
                      static_cast<double>(p.seed));
  reg.add("points_run");
  reg.series_append("trace", p.index, static_cast<double>(p.n));
  return reg;
}

TEST(Sweep, ParallelMergeIsByteIdenticalAcrossWorkerCounts) {
  const SweepSpec s = two_by_everything_spec();
  BenchArtifact base;
  std::string serial_json;
  for (const int workers : {1, 2, 8}) {
    const SweepResult r = run_sweep(s, synthetic_runner, workers);
    ASSERT_EQ(r.points.size(), s.grid_size());
    BenchArtifact a;
    a.name = "t";
    a.git = "pinned";  // exclude environment from the comparison
    a.result = r;
    const std::string json = artifact_to_json(a, /*include_wall_time=*/false);
    if (workers == 1) {
      serial_json = json;
    } else {
      EXPECT_EQ(json, serial_json) << "workers=" << workers;
    }
  }
}

TEST(Sweep, RunnerErrorReachesTheCallerAtAnyWorkerCount) {
  const SweepSpec s = two_by_everything_spec();
  for (const int workers : {1, 4}) {
    EXPECT_THROW(run_sweep(
                     s,
                     [](const SweepPoint& p) {
                       if (p.index == 3) fail("point 3 failed");
                       return synthetic_runner(p);
                     },
                     workers),
                 std::logic_error)
        << "workers=" << workers;
  }
}

TEST(Sweep, ExtractSeriesAveragesSeedsAndSkipsMissingMetric) {
  SweepSpec s;
  s.models = {"dsm"};
  s.algorithms = {"a"};
  s.ns = {8, 16};
  s.seeds = {0, 2};
  const SweepResult r = run_sweep(s, synthetic_runner, 1);
  const ExtractedSeries es =
      extract_series(r, SeriesSelector{"cost", "dsm", "a"});
  ASSERT_EQ(es.xs, (std::vector<double>{8, 16}));
  // Mean over seeds {0, 2}: 2n + 1.
  EXPECT_DOUBLE_EQ(es.ys[0], 17.0);
  EXPECT_DOUBLE_EQ(es.ys[1], 33.0);
  const ExtractedSeries none =
      extract_series(r, SeriesSelector{"absent", "dsm", "a"});
  EXPECT_TRUE(none.xs.empty());
}

TEST(Sweep, ExtractSeriesDedupesRepeatedNs) {
  // A grid that lists the same N twice (doubling a point for extra samples)
  // must still extract one x per N — duplicate xs would flow into the
  // fitter, which rejects them.
  SweepSpec s;
  s.models = {"dsm"};
  s.algorithms = {"a"};
  s.ns = {8, 8, 16};
  const SweepResult r = run_sweep(s, synthetic_runner, 1);
  const ExtractedSeries es =
      extract_series(r, SeriesSelector{"cost", "dsm", "a"});
  ASSERT_EQ(es.xs, (std::vector<double>{8, 16}));
  // Both n=8 grid points carry the same measurement; the mean is unchanged.
  EXPECT_DOUBLE_EQ(es.ys[0], 16.0);
  EXPECT_DOUBLE_EQ(es.ys[1], 32.0);
  EXPECT_NO_THROW(fit_growth_class(es.xs, es.ys));
}

// ---- artifact writer ----------------------------------------------------

TEST(Artifact, JsonIsSchemaVersionedAndOmitsWallTimeOnRequest) {
  SweepSpec s;
  s.name = "unit";
  s.ns = {4};
  BenchArtifact a;
  a.name = "unit";
  a.title = "quote\" in title";
  a.generator = "harness_test";
  a.git = "pinned";
  a.result = run_sweep(s, synthetic_runner, 1);
  const std::string with_time = artifact_to_json(a, true);
  EXPECT_NE(with_time.find("\"schema_version\":1"), std::string::npos);
  EXPECT_NE(with_time.find("\"wall_time_ms\":"), std::string::npos);
  EXPECT_NE(with_time.find("\"workers\":"), std::string::npos);
  EXPECT_NE(with_time.find("quote\\\" in title"), std::string::npos);
  const std::string no_time = artifact_to_json(a, false);
  EXPECT_EQ(no_time.find("wall_time_ms"), std::string::npos);
  EXPECT_EQ(no_time.find("\"workers\""), std::string::npos);
}

TEST(Artifact, GitDescribeHonorsEnvOverride) {
  ::setenv("RMRSIM_GIT_DESCRIBE", "v-test-override", 1);
  EXPECT_EQ(git_describe(), "v-test-override");
  ::unsetenv("RMRSIM_GIT_DESCRIBE");
}

TEST(Artifact, WriteIsAtomicAndLeavesNoTempFiles) {
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() / ("rmrsim-artifact-" + std::to_string(getpid()));
  fs::remove_all(dir);
  fs::create_directories(dir);

  SweepSpec s;
  s.name = "unit";
  s.ns = {4};
  BenchArtifact a;
  a.name = "unit";
  a.git = "pinned";
  a.result = run_sweep(s, synthetic_runner, 1);

  const std::string path = write_artifact(a, dir.string(), false);
  EXPECT_EQ(read_file(path).value_or(""), artifact_to_json(a, false));
  // The atomic-rename discipline must not leave its scratch file behind —
  // a stray .tmp would be picked up by directory-globbing consumers.
  std::size_t entries = 0;
  for (const auto& e : fs::directory_iterator(dir)) {
    ++entries;
    EXPECT_EQ(e.path().extension(), ".json") << e.path();
  }
  EXPECT_EQ(entries, 1u);

  // Overwrite in place: readers racing the rewrite see old or new bytes,
  // never a torn file; afterwards the content is the new version.
  a.git = "pinned-2";
  write_artifact(a, dir.string(), false);
  EXPECT_EQ(read_file(path).value_or(""), artifact_to_json(a, false));
  fs::remove_all(dir);
}

TEST(Artifact, WriteToMissingDirectoryFailsLoudly) {
  SweepSpec s;
  s.name = "unit";
  s.ns = {4};
  BenchArtifact a;
  a.name = "unit";
  a.result = run_sweep(s, synthetic_runner, 1);
  // No silent no-op (the old ofstream path wrote nothing and returned
  // success): an unwritable destination must throw with the errno text.
  EXPECT_THROW(write_artifact(a, "/nonexistent-rmrsim-dir/nope", false),
               std::exception);
}

// ---- drive.h factories --------------------------------------------------

TEST(Drive, ModelFactoryKnowsEveryCliName) {
  for (const char* name : {"dsm", "cc", "cc-wb", "cc-mesi", "cc-lfcu"}) {
    EXPECT_TRUE(is_model_name(name)) << name;
    EXPECT_NE(make_model_by_name(name, 4), nullptr) << name;
  }
  EXPECT_FALSE(is_model_name("numa"));
  EXPECT_THROW(make_model_by_name("numa", 4), std::logic_error);
}

TEST(Drive, LockFactoryValidatesEagerly) {
  for (const char* name : {"mcs", "ya", "anderson", "ticket", "tas", "clh",
                           "bakery", "peterson", "recoverable"}) {
    const LockFactory f = lock_factory_by_name(name);
    auto mem = make_dsm(2);
    EXPECT_NE(f(*mem), nullptr) << name;
  }
  EXPECT_THROW(lock_factory_by_name("spinlock-9000"), std::logic_error);
  EXPECT_THROW(make_signal_factory_by_name("nope", 1), std::logic_error);
}

TEST(Drive, MutexWorkloadRunsCleanUnderEachScheduler) {
  MutexRunOptions opt;
  opt.model = "dsm";
  opt.nprocs = 4;
  opt.passages = 2;
  opt.make_lock = lock_factory_by_name("mcs");
  // Round-robin (seed 0).
  MutexRunOutcome rr = run_mutex_workload(opt);
  EXPECT_TRUE(rr.completed);
  EXPECT_FALSE(rr.violation.has_value());
  EXPECT_EQ(rr.passages_done, 8);
  EXPECT_GT(rr.rmrs_per_passage, 0.0);
  // Random scheduler.
  opt.seed = 7;
  EXPECT_TRUE(run_mutex_workload(opt).completed);
  // Bounded-gap scheduler.
  opt.gap_delta = 8;
  EXPECT_TRUE(run_mutex_workload(opt).completed);
}

TEST(Drive, OnePassPassageCountEqualsPerProcessSum) {
  // run_mutex_workload counts kCritical ends in one pass for a plain lock
  // and sums the done counters of a recoverable one; passages_completed(h,
  // p) per process is the oracle for both while no crash lands between a
  // passage's done increment and its end record (none of this seed's do).
  MutexRunOptions opt;
  opt.model = "dsm";
  opt.nprocs = 5;
  opt.passages = 3;
  opt.make_lock = lock_factory_by_name("mcs");
  const auto per_process_sum = [&opt](const MutexRunOutcome& o) {
    int total = 0;
    for (ProcId p = 0; p < opt.nprocs; ++p) {
      total += passages_completed(o.world.sim->history(), p);
    }
    return total;
  };
  const MutexRunOutcome clean = run_mutex_workload(opt);
  ASSERT_TRUE(clean.completed);
  EXPECT_EQ(clean.passages_done, 15);
  EXPECT_EQ(clean.passages_done, per_process_sum(clean));

  opt.nprocs = 6;
  opt.passages = 4;
  opt.make_lock = lock_factory_by_name("recoverable");
  opt.fault_plan = "random:rate=0.01,seed=1234,recover=50,max=64";
  opt.max_steps = 60'000'000;
  const MutexRunOutcome crashy = run_mutex_workload(opt);
  ASSERT_GT(crashy.world.sim->history().crash_events(), 0u);
  EXPECT_GT(crashy.passages_done, 0);
  EXPECT_EQ(crashy.passages_done, per_process_sum(crashy));
}

// A crash between a passage's done increment and its kCritical end record
// leaves the passage done but unrecorded: counting end records gave 17 of
// 18 here, and rmrs.per_exit divided by 17.
MutexRunOptions crash_after_done_config() {
  MutexRunOptions opt;
  opt.model = "dsm";
  opt.nprocs = 6;
  opt.passages = 3;
  opt.make_lock = lock_factory_by_name("recoverable");
  opt.fault_plan = "random:rate=0.01,seed=5,recover=50,max=16";
  return opt;
}

TEST(Drive, CrashAfterDoneIncrementStillCountsThePassage) {
  const MutexRunOutcome o = run_mutex_workload(crash_after_done_config());
  ASSERT_TRUE(o.completed);
  EXPECT_EQ(o.passages_done, 18);
}

TEST(Drive, PerExitDividesByEveryCompletedPassage) {
  const MutexRunOutcome o = run_mutex_workload(crash_after_done_config());
  MetricsRegistry reg;
  publish_crash_run(reg, o);
  EXPECT_EQ(reg.value("run.passages_done"), 18.0);
  EXPECT_DOUBLE_EQ(
      reg.value("rmrs.per_exit"),
      static_cast<double>(o.world.mem->ledger().total_rmrs()) / 18.0);
}

// ---- reduced experiment runs (the CI gate, in-process) ------------------

TEST(Experiments, RegistryHasAllNineAndLookupWorks) {
  // e1..e9, one e4_<protocol> replica per fleet protocol, and the two
  // trace-workload experiments (t1_synth, t1_scale).
  EXPECT_EQ(all_experiments().size(), 9u + protocol_names().size() + 2u);
  ASSERT_NE(find_experiment("e5"), nullptr);
  EXPECT_EQ(find_experiment("e5")->name, "e5");
  ASSERT_NE(find_experiment("t1_synth"), nullptr);
  ASSERT_NE(find_experiment("t1_scale"), nullptr);
  for (const std::string& proto : protocol_names()) {
    ASSERT_NE(find_experiment("e4_" + proto), nullptr);
    EXPECT_EQ(find_experiment("e4_" + proto)->spec.ns,
              find_experiment("e4")->spec.ns);
  }
  EXPECT_EQ(find_experiment("e99"), nullptr);
}

TEST(Experiments, EveryEntryDeclaresTableColumns) {
  for (const Experiment& e : all_experiments()) {
    EXPECT_FALSE(e.columns.empty()) << e.name;
  }
}

/// A three-point experiment whose `cost` series fits its pinned O(1) at
/// every point, and whose runner also reports `verdict` = `value`.
Experiment verdict_experiment(const std::string& verdict, double value) {
  Experiment exp;
  exp.name = "verdict";
  exp.spec.name = "verdict";
  exp.spec.ns = {8, 16, 32};
  exp.runner = [verdict, value](const SweepPoint&) {
    MetricsRegistry reg;
    reg.set("cost", 3.0);
    reg.set(verdict, value);
    return reg;
  };
  exp.series = {
      SeriesDecl{SeriesSelector{"cost", "dsm", ""}, Expectation::kO1}};
  return exp;
}

TEST(Experiments, CheckFailsOnAViolatedVerdict) {
  // The fit passes either way; a verdict of 0 must still fail the gate,
  // since a series stuck at 0 fits O(1) as well as one stuck at 1.
  EXPECT_TRUE(artifact_matches(
      run_experiment(verdict_experiment("spec.ok", 1.0), 1, "harness_test")));
  for (const char* v : {"spec.ok", "run.completed", "protocol.invariants_ok",
                        "adv.invariants_ok"}) {
    const BenchArtifact a =
        run_experiment(verdict_experiment(v, 0.0), 1, "harness_test");
    ASSERT_EQ(a.series.size(), 1u);
    EXPECT_TRUE(a.series[0].matches_expectation) << v;
    EXPECT_FALSE(artifact_matches(a)) << v;
  }
  // adv.in_scope classifies a point; it is not a verdict.
  EXPECT_TRUE(artifact_matches(run_experiment(
      verdict_experiment("adv.in_scope", 0.0), 1, "harness_test")));
}

TEST(Experiments, PointsTableShowsDeclaredColumns) {
  Experiment exp = verdict_experiment("spec.ok", 1.0);
  exp.columns = {"cost", "absent"};
  const std::string one_plan =
      render_points_table(exp, run_experiment(exp, 1, "harness_test"));
  EXPECT_EQ(one_plan.find("fault plan"), std::string::npos);

  exp.spec.fault_plans = {"", "random:rate=0.01"};
  const std::string table =
      render_points_table(exp, run_experiment(exp, 1, "harness_test"));
  // Header, rule, then one row per point (3 Ns x 2 fault plans).
  EXPECT_EQ(std::count(table.begin(), table.end(), '\n'), 2 + 6) << table;
  const std::string header = table.substr(0, table.find('\n'));
  for (const char* col :
       {"algorithm", "model", "N", "fault plan", "cost", "absent"}) {
    EXPECT_NE(header.find(col), std::string::npos) << col;
  }
  EXPECT_NE(table.find("random:rate=0.01"), std::string::npos);
  EXPECT_NE(table.find("none"), std::string::npos);
  // A column the point does not carry renders as "-", not as 0.
  EXPECT_NE(table.find("3     -\n"), std::string::npos) << table;
}

TEST(Experiments, ReducedE1MatchesPaperClasses) {
  ::setenv("RMRSIM_GIT_DESCRIBE", "test", 1);
  const BenchArtifact a =
      run_experiment(*find_experiment("e1"), 2, "harness_test", /*max_n=*/64);
  ::unsetenv("RMRSIM_GIT_DESCRIBE");
  EXPECT_TRUE(artifact_matches(a)) << render_fit_table(a);
  EXPECT_FALSE(render_fit_table(a).empty());
}

TEST(Experiments, ReducedE2ForcesTheSeparation) {
  const BenchArtifact a =
      run_experiment(*find_experiment("e2"), 2, "harness_test", /*max_n=*/64);
  EXPECT_TRUE(artifact_matches(a)) << render_fit_table(a);
}

TEST(Experiments, ReducedE5RecoversTheAnchors) {
  const BenchArtifact a =
      run_experiment(*find_experiment("e5"), 2, "harness_test", /*max_n=*/64);
  EXPECT_TRUE(artifact_matches(a)) << render_fit_table(a);
}

}  // namespace
}  // namespace rmrsim
