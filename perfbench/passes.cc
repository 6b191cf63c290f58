// Set-up and timed passes of the in-process workloads. A pass prints one
// JSON line: its host wall and CPU time, its fixed work count, and the
// deterministic outputs ("units") the runner checks against the recorded
// reference. With --spans FILE the pass is the traced variant: spans around
// every call into a layer, written to FILE when the pass ends.
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench.h"
#include "coherence/fleet.h"
#include "common/crc32.h"
#include "common/fsio.h"
#include "harness/artifact.h"
#include "harness/drive.h"
#include "harness/experiments.h"
#include "harness/fitter.h"
#include "runtime/snapshot_codec.h"
#include "verify/snapshot_cache.h"
#include "workload/generators.h"
#include "workload/replay.h"
#include "workload/trace.h"

namespace rmrbench {

using namespace rmrsim;

namespace {

std::string trace_path(const std::string& dir) { return dir + "/trace.bin"; }

std::string hex64(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// One checked output of a sweep point: the headline values it carries,
/// plus a digest of every metric the point published.
std::string point_unit(const SweepPointResult& pr) {
  JsonObject o;
  for (const char* name :
       {"history.steps", "ledger.total_rmrs", "rmrs.max_waiter",
        "rmrs.signaler", "rmrs.amortized", "adv.amortized",
        "adv.signaler_rmrs", "adv.rounds", "spec.ok"}) {
    if (pr.metrics.has_value(name)) o.num(name, pr.metrics.value(name));
  }
  o.str("digest", hex64(fnv1a64(pr.metrics.to_json())));
  return o.dump();
}

std::string point_key(const std::string& exp, const SweepPoint& p) {
  return exp + "/" + p.model + "/" + p.algorithm + "/n=" + std::to_string(p.n);
}

// ---- sweep_separation --------------------------------------------------

JsonObject sweep_pass(const std::string& dir, SpanLog* spans,
                      std::uint64_t* work) {
  std::vector<BenchArtifact> artifacts;
  const double cpu0 = cpu_seconds();
  const auto t0 = Clock::now();
  {
    ScopedSpan pass(spans, "pass", -1);
    for (const char* name : {"e1", "e2"}) {
      const Experiment* exp = find_experiment(name);
      SweepResult result;
      {
        ScopedSpan sweep(spans, std::string("harness.sweep.") + name,
                         pass.id());
        PointRunner runner = exp->runner;
        if (spans != nullptr) {
          const std::string layer =
              std::string("harness.point.") + name;
          runner = [inner = exp->runner, spans, layer,
                    parent = sweep.id()](const SweepPoint& p) {
            ScopedSpan s(spans, layer, parent);
            return inner(p);
          };
        }
        result = run_sweep(exp->spec, runner, kWorkers);
      }
      BenchArtifact artifact;
      {
        ScopedSpan fit(spans, "harness.fit", pass.id());
        artifact = make_artifact(*exp, std::move(result), "rmrbench");
      }
      {
        ScopedSpan write(spans, "harness.artifact", pass.id());
        write_artifact(artifact, dir);
      }
      artifacts.push_back(std::move(artifact));
    }
  }
  const double wall = seconds_since(t0);
  const double cpu = cpu_seconds() - cpu0;

  std::string u = "{";
  *work = 0;
  for (const BenchArtifact& a : artifacts) {
    for (const SweepPointResult& pr : a.result.points) {
      if (u.size() > 1) u += ',';
      u += "\"" + json_escape(point_key(a.name, pr.point)) +
           "\":" + point_unit(pr);
      *work += static_cast<std::uint64_t>(pr.metrics.value("history.steps"));
    }
    for (const FittedSeries& fs : a.series) {
      const std::string key = a.name + "/fit/" + fs.selector.metric + "/" +
                              fs.selector.model + "/" + fs.selector.algorithm;
      u += ",\"" + json_escape(key) + "\":" +
           JsonObject()
               .str("class", to_string(fs.fit.cls))
               .boolean("matches", fs.matches_expectation)
               .dump();
    }
  }
  u += "}";
  return JsonObject().num("wall_s", wall).num("cpu_s", cpu).raw("units", u);
}

// ---- trace_fleet --------------------------------------------------------

JsonObject trace_pass(const std::string& dir, SpanLog* spans,
                      std::uint64_t* work) {
  std::vector<std::pair<std::string, MetricsRegistry>> replays;
  ReplayOptions opts;
  opts.protocols = protocol_names();
  opts.write_buffer = kTraceWriteBuffer;
  std::size_t ops = 0;
  const double cpu0 = cpu_seconds();
  const auto t0 = Clock::now();
  {
    ScopedSpan pass(spans, "pass", -1);
    std::optional<std::string> bytes;
    {
      ScopedSpan s(spans, "workload.read", pass.id());
      bytes = read_file(trace_path(dir));
    }
    if (!bytes) {
      std::fprintf(stderr, "rmrbench: cannot read %s (run setup first)\n",
                   trace_path(dir).c_str());
      std::exit(1);
    }
    Trace trace;
    {
      ScopedSpan s(spans, "workload.parse_binary", pass.id());
      trace = parse_trace_binary(*bytes, trace_path(dir));
    }
    ops = trace.ops.size();
    for (const std::string& model : trace_models()) {
      ScopedSpan s(spans, "runtime.replay_fleet." + model, pass.id());
      auto mem = make_model_by_name(model, trace.nprocs);
      replays.emplace_back(model, replay_trace(trace, *mem, opts));
    }
  }
  const double wall = seconds_since(t0);
  const double cpu = cpu_seconds() - cpu0;

  *work = ops * replays.size();
  std::string u = "{";
  for (const auto& [model, reg] : replays) {
    JsonObject o;
    o.num("ledger.total_rmrs", reg.value("ledger.total_rmrs"));
    o.num("history.steps", reg.value("history.steps"));
    for (const std::string& p : protocol_names()) {
      o.num("msgs." + p + ".total", reg.value("msgs." + p + ".total"));
      o.num("cycles." + p + ".total", reg.value("cycles." + p + ".total"));
    }
    o.num("wb.drained", reg.value("wb.drained"));
    o.num("protocol.invariants_ok", reg.value("protocol.invariants_ok"));
    o.str("digest", hex64(fnv1a64(reg.to_json())));
    if (u.size() > 1) u += ',';
    u += "\"trace/" + model + "\":" + o.dump();
  }
  u += "}";
  // The cc replay's coherence counts, for the steadiness check's
  // repeat-exactly test.
  JsonObject counts;
  for (const auto& [model, reg] : replays) {
    if (model != "cc") continue;
    for (const std::string& p : protocol_names()) {
      counts.num("coherence." + p + ".messages",
                 reg.value("msgs." + p + ".total"));
      counts.num("coherence." + p + ".cycles",
                 reg.value("cycles." + p + ".total"));
    }
    counts.num("coherence.wb.drains", reg.value("wb.drained"));
  }
  return JsonObject()
      .num("wall_s", wall)
      .num("cpu_s", cpu)
      .raw("units", u)
      .raw("counts", counts.dump());
}

// ---- explore_dpor -------------------------------------------------------

JsonObject explore_pass(const std::string& dir, SpanLog* spans,
                        std::uint64_t* work) {
  ExploreBuilder build = explore_builder();
  ExploreChecker check = explore_checker();
  CallTally build_tally;
  CallTally check_tally;
  if (spans != nullptr) {
    build = timed_builder(std::move(build), &build_tally, spans, /*parent=*/0);
    check = timed_checker(std::move(check), &check_tally);
  }
  const DporOptions opt = explore_options(kWorkers);
  ExploreResult r;
  const double cpu0 = cpu_seconds();
  const auto t0 = Clock::now();
  {
    ScopedSpan pass(spans, "pass", -1);  // id 0: parent of the build spans
    r = explore_dpor(build, check, opt);
  }
  const double wall = seconds_since(t0);
  const double cpu = cpu_seconds() - cpu0;

  const std::string report = render_explore_report(r);
  write_file_atomic(dir + "/explore_report.txt", report);
  *work = r.nodes_visited;
  const std::string unit =
      JsonObject()
          .str("verdict", r.violation ? "VIOLATED: " + *r.violation
                                      : "no violation")
          .count("nodes_visited", r.nodes_visited)
          .count("complete_schedules", r.complete_schedules)
          .str("report", report)
          .dump();
  JsonObject out;
  out.num("wall_s", wall).num("cpu_s", cpu).raw(
      "units", "{\"explore/report\":" + unit + "}");
  const ExploreStats& s = r.stats;
  out.raw("counts", JsonObject()
                        .count("snapshot_hits", s.snapshot_hits)
                        .count("snapshot_misses", s.snapshot_misses)
                        .count("snapshots_taken", s.snapshots_taken)
                        .count("snapshot_evictions", s.snapshot_evictions)
                        .count("replayed_steps", s.replayed_steps)
                        .count("snapshot_delta_steps", s.snapshot_delta_steps)
                        .count("snapshot_peak_bytes", s.snapshot_peak_bytes)
                        .count("sleep_set_prunes", s.sleep_set_prunes)
                        .count("work_items", s.work_items)
                        .dump());
  if (spans != nullptr) {
    out.raw("tallies",
            JsonObject()
                .count("verify.build.calls", build_tally.calls())
                .count("verify.build.ns", build_tally.ns())
                .count("verify.checker.calls", check_tally.calls())
                .count("verify.checker.ns", check_tally.ns())
                .dump());
  }
  return out;
}

// ---- set-up -------------------------------------------------------------

/// One set-up of `workload`: prepares the pass's inputs and returns a
/// summary of what it built.
JsonObject setup_once(const std::string& workload, const std::string& dir,
                      std::uint64_t trace_seed) {
  if (workload == "sweep_separation") {
    // Specs: the two registry grids, expanded into the points the pass runs.
    std::vector<SweepPoint> points;
    for (const char* name : {"e1", "e2"}) {
      const SweepSpec spec = find_experiment(name)->spec;
      for (std::size_t i = 0; i < spec.grid_size(); ++i) {
        points.push_back(spec.point_at(i));
      }
    }
    return JsonObject().count("points", points.size());
  }
  if (workload == "trace_fleet") {
    GenSpec g;
    g.kind = "zipf";
    g.procs = kTraceProcs;
    g.ops = kTraceOps;
    g.seed = trace_seed;
    const Trace trace = generate_trace(g);
    save_trace_file(trace_path(dir), trace, /*binary=*/true);
    return JsonObject().count("ops", trace.ops.size()).count("seed", g.seed);
  }
  // explore_dpor and explore_sharded. Instances: build the reference world
  // and snapshot it, which is what every worker does before its first item.
  ExploreInstance inst = explore_builder()();
  inst.sim->enable_fork_log();
  const std::string root = encode_world_snapshot(*take_snapshot(inst));
  return JsonObject().count("root_bytes", root.size());
}

}  // namespace

int run_setup(const Args& args) {
  const std::string workload = args.get("workload");
  const std::string dir = args.get("dir", ".");
  if (workload != "sweep_separation" && workload != "trace_fleet" &&
      workload != "explore_dpor" && workload != "explore_sharded") {
    std::fprintf(stderr, "rmrbench setup: unknown workload '%s'\n",
                 workload.c_str());
    return 2;
  }
  const auto trace_seed =
      static_cast<std::uint64_t>(args.get_int("trace-seed", 1));
  const double budget_s =
      static_cast<double>(args.get_int("budget-ms", 2000)) / 1e3;
  const long long min_samples = args.get_int("min-samples", 3);
  // The set-up is repeated in this process, so the samples time the set-up
  // and not process start. A sample is the mean of as many back-to-back
  // set-ups as fill kSampleFloorS, which keeps sub-microsecond set-ups
  // above the clock's resolution.
  constexpr double kSampleFloorS = 1e-3;
  std::string samples;
  JsonObject summary;
  long long taken = 0;
  const auto t0 = Clock::now();
  while (taken < min_samples || seconds_since(t0) < budget_s) {
    long long reps = 0;
    const auto s0 = Clock::now();
    double elapsed = 0;
    do {
      summary = setup_once(workload, dir, trace_seed);
      ++reps;
      elapsed = seconds_since(s0);
    } while (elapsed < kSampleFloorS);
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g",
                  elapsed / static_cast<double>(reps));
    if (!samples.empty()) samples += ',';
    samples += buf;
    ++taken;
  }
  std::printf("%s\n", JsonObject()
                          .raw("setup_s", "[" + samples + "]")
                          .raw("built", summary.dump())
                          .dump()
                          .c_str());
  return 0;
}

int run_pass(const Args& args) {
  const std::string workload = args.get("workload");
  const std::string dir = args.get("dir", ".");
  const std::string spans_path = args.get("spans");
  std::unique_ptr<SpanLog> spans;
  if (!spans_path.empty()) {
    spans =
        std::make_unique<SpanLog>(workload + ":" + args.get("pass-id", "1"));
  }
  std::uint64_t work = 0;
  JsonObject out;
  if (workload == "sweep_separation") {
    out = sweep_pass(dir, spans.get(), &work);
  } else if (workload == "trace_fleet") {
    out = trace_pass(dir, spans.get(), &work);
  } else if (workload == "explore_dpor") {
    out = explore_pass(dir, spans.get(), &work);
  } else {
    std::fprintf(stderr, "rmrbench pass: unknown workload '%s'\n",
                 workload.c_str());
    return 2;
  }
  out.count("work", work);
  if (spans != nullptr) write_file_atomic(spans_path, spans->to_json());
  std::printf("%s\n", out.dump().c_str());
  return 0;
}

}  // namespace rmrbench
