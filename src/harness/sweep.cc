#include "harness/sweep.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <mutex>
#include <thread>

#include "common/check.h"

namespace rmrsim {

std::size_t SweepSpec::grid_size() const {
  return algorithms.size() * models.size() * ns.size() * seeds.size() *
         fault_plans.size();
}

SweepPoint SweepSpec::point_at(std::size_t i) const {
  ensure(i < grid_size(), "sweep point index out of range");
  SweepPoint p;
  p.index = i;
  p.fault_plan = fault_plans[i % fault_plans.size()];
  i /= fault_plans.size();
  p.seed = seeds[i % seeds.size()];
  i /= seeds.size();
  p.n = ns[i % ns.size()];
  i /= ns.size();
  p.model = models[i % models.size()];
  i /= models.size();
  p.algorithm = algorithms[i];
  return p;
}

SweepSpec SweepSpec::capped_at(int max_n, std::size_t min_points) const {
  SweepSpec out = *this;
  std::vector<int> kept;
  for (const int n : ns) {
    if (n <= max_n) kept.push_back(n);
  }
  if (kept.size() < min_points) {
    kept = ns;
    std::sort(kept.begin(), kept.end());
    kept.resize(std::min(min_points, kept.size()));
  }
  out.ns = kept;
  return out;
}

SweepResult run_sweep(const SweepSpec& spec, const PointRunner& runner,
                      int workers) {
  ensure(static_cast<bool>(runner), "sweep needs a point runner");
  const std::size_t total = spec.grid_size();
  SweepResult result;
  result.spec = spec;
  result.workers = std::max(1, workers);
  result.points.resize(total);

  const auto start = std::chrono::steady_clock::now();
  std::atomic<std::size_t> cursor{0};
  // A runner that throws stops the sweep: its worker parks the cursor past
  // the end, and the first error caught is rethrown after the join.
  std::mutex error_mu;
  std::exception_ptr error;
  // Each worker claims the next unclaimed canonical index and writes its
  // result into that slot; no two workers touch the same slot and the
  // merged vector is index-ordered by construction, so the output is a
  // function of (spec, runner) alone — never of thread timing.
  const auto work = [&]() {
    for (;;) {
      const std::size_t i = cursor.fetch_add(1, std::memory_order_relaxed);
      if (i >= total) return;
      SweepPointResult& slot = result.points[i];
      slot.point = spec.point_at(i);
      try {
        slot.metrics = runner(slot.point);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(error_mu);
        if (!error) error = std::current_exception();
        cursor.store(total, std::memory_order_relaxed);
        return;
      }
    }
  };
  if (result.workers == 1) {
    work();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(static_cast<std::size_t>(result.workers));
    for (int w = 0; w < result.workers; ++w) pool.emplace_back(work);
    for (std::thread& t : pool) t.join();
  }
  if (error) std::rethrow_exception(error);
  result.wall_ms = std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - start)
                       .count();
  return result;
}

ExtractedSeries extract_series(const SweepResult& result,
                               const SeriesSelector& sel) {
  ExtractedSeries out;
  std::vector<int> ns = result.spec.ns;
  std::sort(ns.begin(), ns.end());
  // A grid that repeats an N (easy to do by hand-editing a spec) must not
  // produce duplicate x values: the fitter rejects them, and pre-dedupe each
  // repeat double-counted the same grid points into the mean anyway.
  ns.erase(std::unique(ns.begin(), ns.end()), ns.end());
  for (const int n : ns) {
    double sum = 0;
    int count = 0;
    for (const SweepPointResult& pr : result.points) {
      if (pr.point.n != n || pr.point.model != sel.model ||
          pr.point.algorithm != sel.algorithm) {
        continue;
      }
      if (!pr.metrics.has_value(sel.metric)) continue;
      sum += pr.metrics.value(sel.metric);
      ++count;
    }
    if (count == 0) continue;
    out.xs.push_back(static_cast<double>(n));
    out.ys.push_back(sum / count);
  }
  return out;
}

}  // namespace rmrsim
