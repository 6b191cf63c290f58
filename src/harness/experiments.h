// The E1–E9 experiment registry.
//
// Each paper experiment is one declarative entry: a SweepSpec (the grid),
// a PointRunner (how one grid point is measured, publishing into a
// MetricsRegistry), and the series the artifact must carry — some pinned
// to the asymptotic class the paper claims (E1 flag-in-CC must fit O(1),
// E2's forced amortized cost must fit super-constant, E5's Yang–Anderson
// must fit Theta(log N), ...), plus the per-point metrics its table shows.
// `rmrsim_cli sweep` is the one way to run an experiment, and CI runs
// every entry through it, so the grid and the claims live in exactly one
// place.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "harness/artifact.h"
#include "harness/sweep.h"

namespace rmrsim {

/// One series the artifact reports; `expected` pins the growth class the
/// fit must land in (CI fails the run on a mismatch).
struct SeriesDecl {
  SeriesSelector selector;
  std::optional<Expectation> expected;
};

struct Experiment {
  std::string name;   ///< "e1" ... "e9"
  std::string title;  ///< one-line description (artifact title)
  SweepSpec spec;
  PointRunner runner;
  std::vector<SeriesDecl> series;
  /// Scalar metrics shown per point by render_points_table, in order.
  std::vector<std::string> columns;
};

/// All registered experiments, in e1..e9 order.
const std::vector<Experiment>& all_experiments();

/// Lookup by name; nullptr if unknown.
const Experiment* find_experiment(const std::string& name);

/// Runs the experiment's grid (capped at `max_n` when > 0) on `workers`
/// threads, extracts and fits every declared series, and assembles the
/// artifact. `generator` names the producing command.
BenchArtifact run_experiment(const Experiment& exp, int workers,
                             const std::string& generator, int max_n = 0);

/// Fits `result` against the experiment's declared series (the tail of
/// run_experiment, split out so a caller can time the fit apart from the
/// sweep).
BenchArtifact make_artifact(const Experiment& exp, SweepResult result,
                            const std::string& generator);

/// True iff every verdict metric `reg` carries (spec.ok, run.completed,
/// protocol.invariants_ok, adv.invariants_ok) is 1 — the exit rule of
/// `rmrsim_cli signal|mutex` and, per point, of artifact_matches.
bool verdicts_ok(const MetricsRegistry& reg);

/// True iff every series with a pinned expectation fitted a matching
/// class and every point passes verdicts_ok — the `rmrsim_cli sweep
/// --check` / CI gate.
bool artifact_matches(const BenchArtifact& artifact);

/// One row per point: algorithm / model / N, the fault plan when the grid
/// has more than one, then each of `exp.columns` ("-" where the point does
/// not carry the metric).
std::string render_points_table(const Experiment& exp,
                                const BenchArtifact& artifact);

/// The fitted-series text table (metric / model / algorithm / fitted class
/// / slope / expected / match). Empty string when the artifact has no
/// series.
std::string render_fit_table(const BenchArtifact& artifact);

}  // namespace rmrsim
