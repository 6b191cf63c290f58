// Parallel deterministic sweep engine.
//
// A SweepSpec is a declarative experiment grid — axes model × algorithm ×
// N × seed × fault plan — enumerated in one canonical order (algorithm
// outermost, then model, N, seed, fault plan). The engine fans the grid out
// across a worker pool and writes each point's result into its canonical
// slot, so the merged result vector — and everything serialized from it —
// is bit-identical for any worker count (the same discipline as the DPOR
// pool in verify/dpor.h: parallelism may only change wall time, never
// output). Each point runs a fresh, self-contained simulation; runners must
// therefore be thread-safe in the same sense as DPOR builders (build fresh
// worlds, write no shared state).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "metrics/registry.h"

namespace rmrsim {

/// One grid point. `index` is the point's position in canonical grid
/// order; runners may use any subset of the axes (a mutex sweep ignores
/// fault_plan, a crash sweep ignores seed, ...).
struct SweepPoint {
  std::string model;       ///< "dsm" | "cc" | "cc-wb" | "cc-mesi" | "cc-lfcu"
  std::string algorithm;   ///< algorithm / lock / variant name
  int n = 0;               ///< problem size (waiters, procs, ...)
  std::uint64_t seed = 0;  ///< scheduler seed (0 = deterministic round-robin)
  std::string fault_plan;  ///< parse_fault_plan syntax; "" = crash-free
  std::size_t index = 0;
};

struct SweepSpec {
  std::string name;  ///< experiment name; artifacts become BENCH_<name>.json
  std::vector<std::string> models{"dsm"};
  std::vector<std::string> algorithms{""};
  std::vector<int> ns{8};
  std::vector<std::uint64_t> seeds{0};
  std::vector<std::string> fault_plans{{}};

  std::size_t grid_size() const;
  /// The i-th point in canonical order (algorithm-major, fault-plan-minor).
  SweepPoint point_at(std::size_t i) const;

  /// Copy with every N above `max_n` dropped (at least min_points of the
  /// smallest values survive so the fitter still has a series) — the CI
  /// reduced-size knob.
  SweepSpec capped_at(int max_n, std::size_t min_points = 3) const;
};

/// Runs one grid point and returns its measurements. Must be pure up to
/// its own fresh simulation state (called concurrently when workers > 1).
using PointRunner = std::function<MetricsRegistry(const SweepPoint&)>;

struct SweepPointResult {
  SweepPoint point;
  MetricsRegistry metrics;
};

struct SweepResult {
  SweepSpec spec;
  std::vector<SweepPointResult> points;  ///< canonical grid order
  int workers = 1;
  double wall_ms = 0.0;
};

/// Executes the whole grid. workers <= 1 runs serially on the calling
/// thread; larger counts use a pool pulling points off a shared atomic
/// cursor. Either path produces identical `points`.
SweepResult run_sweep(const SweepSpec& spec, const PointRunner& runner,
                      int workers = 1);

/// Pulls the series of `metric` against the N axis for one (model,
/// algorithm) cell, averaging over seeds and fault plans at each N (the
/// shape the fitter consumes). Points whose registry lacks the metric are
/// skipped.
struct SeriesSelector {
  std::string metric;
  std::string model;
  std::string algorithm;
};

struct ExtractedSeries {
  std::vector<double> xs;  ///< the N axis
  std::vector<double> ys;  ///< mean metric value at each N
};

ExtractedSeries extract_series(const SweepResult& result,
                               const SeriesSelector& sel);

}  // namespace rmrsim
