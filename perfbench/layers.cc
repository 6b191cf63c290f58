// The per-layer suite of the traced run. Each layer is measured from
// outside, by timing calls into its public functions, and layers are
// stacked one at a time (bare apply -> replay plumbing -> each protocol ->
// write buffer; counters-only -> full history), so a layer's cost is the
// difference of two measured rows. Prints one JSON object of metrics.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <numeric>
#include <string>
#include <unordered_map>
#include <vector>

#include "bench.h"
#include "coherence/fleet.h"
#include "harness/artifact.h"
#include "harness/drive.h"
#include "harness/experiments.h"
#include "lowerbound/adversary.h"
#include "runtime/snapshot_codec.h"
#include "sched/schedulers.h"
#include "signaling/dsm_registration.h"
#include "signaling/workload.h"
#include "trace/call_stats.h"
#include "verify/snapshot_cache.h"
#include "workload/generators.h"
#include "workload/replay.h"
#include "workload/trace.h"

namespace rmrbench {

using namespace rmrsim;

namespace {

/// Median of `reps` samples; `sample` returns host seconds of the part it
/// times (set-up it does around that part is excluded).
template <typename F>
double median_of(int reps, F&& sample) {
  std::vector<double> v;
  for (int i = 0; i < reps; ++i) v.push_back(sample());
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

double percentile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  const std::size_t i = static_cast<std::size_t>(q * (v.size() - 1) + 0.5);
  return v[std::min(i, v.size() - 1)];
}

/// a / b, with an empty denominator counted as 1.
double per(double a, double b) { return a / std::max(1.0, b); }

/// Reports a failed consistency check; the runner counts it as a failed
/// output.
int g_check_failures = 0;
void expect(bool ok, const char* what) {
  if (ok) return;
  ++g_check_failures;
  std::fprintf(stderr, "rmrbench layers: CHECK FAILED: %s\n", what);
}

// ---- memory / runtime / coherence / workload on the trace_fleet trace ----

struct AppliedOp {
  ProcId proc;
  MemOp op;
};

/// The trace in trace order as (proc, MemOp) pairs against `mem`, with
/// variables allocated exactly as replay allocates them: per-processor fence
/// variables first, then addresses in first-touch order, homed by the
/// interleave map.
std::vector<AppliedOp> lower_trace(const Trace& trace, SharedMemory& mem) {
  std::vector<VarId> fence;
  for (int p = 0; p < trace.nprocs; ++p) {
    fence.push_back(mem.allocate_local(static_cast<ProcId>(p), 0));
  }
  std::unordered_map<std::uint64_t, VarId> vars;
  std::vector<AppliedOp> out;
  out.reserve(trace.ops.size());
  for (const TraceOp& t : trace.ops) {
    if (t.kind == TraceOpKind::kFence) {
      out.push_back({t.proc, MemOp::faa(fence[t.proc], 0)});
      continue;
    }
    auto [it, inserted] = vars.try_emplace(t.addr, kNoVar);
    if (inserted) {
      it->second = mem.allocate(
          0, static_cast<ProcId>(t.addr % static_cast<std::uint64_t>(
                                              trace.nprocs)));
    }
    const VarId v = it->second;
    MemOp op = MemOp::read(v);
    switch (t.kind) {
      case TraceOpKind::kRead: op = MemOp::read(v); break;
      case TraceOpKind::kWrite: op = MemOp::write(v, t.arg0); break;
      case TraceOpKind::kCas: op = MemOp::cas(v, t.arg0, t.arg1); break;
      case TraceOpKind::kFaa: op = MemOp::faa(v, t.arg0); break;
      case TraceOpKind::kFas: op = MemOp::fas(v, t.arg0); break;
      case TraceOpKind::kTas: op = MemOp::tas(v); break;
      case TraceOpKind::kFence: break;
    }
    out.push_back({t.proc, op});
  }
  return out;
}

void trace_layers(std::uint64_t seed, JsonObject& m) {
  GenSpec g;
  g.kind = "zipf";
  g.procs = kTraceProcs;
  g.ops = kTraceOps;
  g.seed = seed;
  const double gen_s = median_of(3, [&] {
    const auto t0 = Clock::now();
    const Trace t = generate_trace(g);
    return seconds_since(t0);
  });
  const Trace trace = generate_trace(g);
  const double n_ops = static_cast<double>(trace.ops.size());
  m.num("workload.gen_zipf.ns_per_op", gen_s * 1e9 / n_ops);

  const std::string bin = trace_to_binary(trace);
  const std::string text = trace_to_text(trace);
  const double bin_s = median_of(3, [&] {
    const auto t0 = Clock::now();
    const Trace t = parse_trace_binary(bin);
    const double s = seconds_since(t0);
    expect(t == trace, "binary parse round-trips the trace");
    return s;
  });
  const double text_s = median_of(3, [&] {
    const auto t0 = Clock::now();
    const Trace t = parse_trace_text(text);
    const double s = seconds_since(t0);
    expect(t == trace, "text parse round-trips the trace");
    return s;
  });
  m.num("workload.parse_binary.ns_per_op", bin_s * 1e9 / n_ops);
  m.num("workload.parse_text.ns_per_op", text_s * 1e9 / n_ops);
  m.num("workload.binary.bytes_per_op", per(bin.size(), n_ops));
  m.num("workload.text.bytes_per_op", per(text.size(), n_ops));

  // Row 0: bare SharedMemory::apply in trace order.
  std::unordered_map<std::string, std::uint64_t> apply_rmrs;
  auto apply_row = [&](const std::string& model) {
    return median_of(3, [&] {
      auto mem = make_model_by_name(model, trace.nprocs);
      const std::vector<AppliedOp> ops = lower_trace(trace, *mem);
      const auto t0 = Clock::now();
      for (const AppliedOp& a : ops) mem->apply(a.proc, a.op);
      const double s = seconds_since(t0);
      apply_rmrs[model] = mem->ledger().total_rmrs();
      return s;
    });
  };
  const double apply_dsm = apply_row("dsm");
  const double apply_cc = apply_row("cc");
  m.num("memory.apply_dsm.ns_per_op", apply_dsm * 1e9 / n_ops);
  m.num("memory.apply_cc.ns_per_op", apply_cc * 1e9 / n_ops);
  m.count("memory.apply.ops", trace.ops.size());

  // Row 1: bare replay (the replay plumbing on top of apply).
  auto core_row = [&](const std::string& model) {
    return median_of(3, [&] {
      auto mem = make_model_by_name(model, trace.nprocs);
      const auto t0 = Clock::now();
      const MetricsRegistry reg = replay_trace_core(trace, *mem);
      const double s = seconds_since(t0);
      expect(static_cast<std::uint64_t>(reg.value("ledger.total_rmrs")) ==
                 apply_rmrs[model],
             "the bare apply loop prices the trace exactly as replay does");
      return s;
    });
  };
  const double replay_dsm = core_row("dsm");
  const double replay_cc = core_row("cc");
  m.num("runtime.replay_dsm.ns_per_op", replay_dsm * 1e9 / n_ops);
  m.num("runtime.replay_cc.ns_per_op", replay_cc * 1e9 / n_ops);
  m.num("stack.replay_cc.unattributed_ns_per_op",
        (replay_cc - apply_cc) * 1e9 / n_ops);

  // Rows 2..: protocols one at a time, the fleet, then the write buffer.
  MetricsRegistry fleet_wb_reg;
  auto replay_row = [&](const ReplayOptions& opts, MetricsRegistry* keep) {
    return median_of(3, [&] {
      auto mem = make_model_by_name("cc", trace.nprocs);
      const auto t0 = Clock::now();
      MetricsRegistry reg = replay_trace(trace, *mem, opts);
      const double s = seconds_since(t0);
      if (keep != nullptr) *keep = std::move(reg);
      return s;
    });
  };
  const double bare = replay_row(ReplayOptions{}, nullptr);
  double protocol_sum = 0;
  for (const std::string& p : protocol_names()) {
    ReplayOptions o;
    o.protocols = {p};
    const double d = replay_row(o, nullptr) - bare;
    protocol_sum += d;
    m.num("coherence." + p + ".ns_per_op", d * 1e9 / n_ops);
  }
  ReplayOptions fleet;
  fleet.protocols = protocol_names();
  const double fleet_s = replay_row(fleet, nullptr);
  ReplayOptions fleet_wb = fleet;
  fleet_wb.write_buffer = kTraceWriteBuffer;
  const double fleet_wb_s = replay_row(fleet_wb, &fleet_wb_reg);
  m.num("coherence.fleet.ns_per_op", (fleet_s - bare) * 1e9 / n_ops);
  m.num("stack.fleet.unattributed_ns_per_op",
        (fleet_s - bare - protocol_sum) * 1e9 / n_ops);
  m.num("coherence.write_buffer.ns_per_op",
        (fleet_wb_s - fleet_s) * 1e9 / n_ops);
  for (const std::string& p : protocol_names()) {
    m.num("coherence." + p + ".messages",
          fleet_wb_reg.value("msgs." + p + ".total"));
    m.num("coherence." + p + ".cycles",
          fleet_wb_reg.value("cycles." + p + ".total"));
  }
  m.num("coherence.wb.drains", fleet_wb_reg.value("wb.drained"));
  expect(fleet_wb_reg.value("protocol.invariants_ok") == 1.0,
         "protocol invariants hold on the fleet replay");
}

// ---- runtime step loop, history, scheduler --------------------------------

/// e1's flag-spin-n point: flag signaling on DSM, the signaler idling n
/// polls.
SignalingRun run_flag(int n, HistoryMode mode) {
  SignalingWorkloadOptions opt;
  opt.n_waiters = n;
  opt.signaler_idle_polls = n;
  opt.history_mode = mode;
  return run_signaling_workload(make_model_by_name("dsm", n + 1),
                                make_signal_factory_by_name("flag", n), opt);
}

void step_layers(JsonObject& m) {
  double counters_s = 0;
  double full_s = 0;
  std::uint64_t steps = 0;
  for (const int n : {64, 1024}) {
    // Repeat the small config so both sizes carry comparable weight.
    const int reps = n == 64 ? 200 : 1;
    std::uint64_t n_steps = 0;
    const double c = median_of(3, [&] {
      const auto t0 = Clock::now();
      for (int i = 0; i < reps; ++i) {
        n_steps = run_flag(n, HistoryMode::kCountersOnly).sim->history().size();
      }
      return seconds_since(t0);
    });
    const double f = median_of(3, [&] {
      const auto t0 = Clock::now();
      for (int i = 0; i < reps; ++i) {
        expect(run_flag(n, HistoryMode::kFull).sim->history().size() == n_steps,
               "full and counters-only histories take the same steps");
      }
      return seconds_since(t0);
    });
    counters_s += c;
    full_s += f;
    steps += n_steps * static_cast<std::uint64_t>(reps);
  }
  m.num("runtime.step_counters.ns_per_step",
        counters_s * 1e9 / static_cast<double>(steps));
  m.num("history.full.ns_per_step",
        (full_s - counters_s) * 1e9 / static_cast<double>(steps));

  // Scheduler: round-robin picks over a 65-process world where every
  // process is ready.
  constexpr int kN = 64;
  auto mem = make_model_by_name("dsm", kN + 1);
  const std::unique_ptr<SignalingAlgorithm> alg =
      make_signal_factory_by_name("flag", kN)(*mem);
  std::vector<Program> programs;
  for (int i = 0; i < kN; ++i) {
    programs.emplace_back([a = alg.get()](ProcCtx& ctx) {
      return polling_waiter(ctx, a, 1'000'000);
    });
  }
  programs.emplace_back(
      [a = alg.get()](ProcCtx& ctx) { return signaler(ctx, a, 0); });
  Simulation sim(*mem, std::move(programs));
  constexpr int kPicks = 4'000'000;
  long long sink = 0;
  const double pick_s = median_of(3, [&] {
    RoundRobinScheduler rr;
    const auto t0 = Clock::now();
    for (int i = 0; i < kPicks; ++i) sink += rr.next(sim);
    return seconds_since(t0);
  });
  expect(sink > 0, "round-robin picks processes");
  m.num("sched.round_robin.ns_per_pick", pick_s * 1e9 / kPicks);
}

// ---- snapshots and the dist codec ------------------------------------

/// Advances `inst` by round-robin macro steps until it is `depth` steps deep
/// (or every process has terminated).
void advance_to(ExploreInstance& inst, std::size_t depth, ProcId* next) {
  Simulation& sim = *inst.sim;
  while (sim.schedule().size() < depth && !sim.all_terminated()) {
    for (int i = 0; i < sim.nprocs(); ++i) {
      const ProcId p = static_cast<ProcId>((*next + i) % sim.nprocs());
      if (sim.runnable(p)) {
        sim.macro_step(p);
        *next = static_cast<ProcId>((p + 1) % sim.nprocs());
        break;
      }
    }
  }
}

template <typename F>
double ns_per_call(int calls, F&& f) {
  return median_of(3, [&] {
    const auto t0 = Clock::now();
    for (int i = 0; i < calls; ++i) f();
    return seconds_since(t0);
  }) * 1e9 / calls;
}

void snapshot_layers(JsonObject& m) {
  ExploreInstance inst = explore_builder()();
  inst.sim->enable_fork_log();
  const std::shared_ptr<const WorldSnapshot> proto = take_snapshot(inst);
  ProcId next = 0;
  // A work item's root sits at the trunk depth; the reference world for
  // snapshot/restore sits mid-way down the depth bound.
  advance_to(inst, static_cast<std::size_t>(explore_options(1).trunk_depth),
             &next);
  const std::shared_ptr<const WorldSnapshot> item_root = take_snapshot(inst);
  advance_to(inst, kExploreDepth / 2, &next);
  const std::shared_ptr<const WorldSnapshot> mid = take_snapshot(inst);

  constexpr int kCalls = 20'000;
  std::size_t sink = 0;
  m.num("runtime.snapshot.ns", ns_per_call(kCalls, [&] {
          sink += inst.sim->snapshot().procs.size();
        }));
  m.num("runtime.restore.ns", ns_per_call(kCalls, [&] {
          sink += static_cast<std::size_t>(
              Simulation::restore(*mid).sim->nprocs());
        }));
  m.num("runtime.snapshot.bytes", static_cast<double>(mid->approx_bytes()));

  const std::string wire = encode_world_snapshot(*item_root);
  m.num("dist.snapshot_encode.ns", ns_per_call(kCalls, [&] {
          sink += encode_world_snapshot(*item_root).size();
        }));
  m.num("dist.snapshot_decode.ns", ns_per_call(kCalls, [&] {
          sink += decode_world_snapshot(wire, *proto).procs.size();
        }));
  m.num("dist.snapshot.bytes", static_cast<double>(wire.size()));
  m.num("dist.fingerprint.ns", ns_per_call(kCalls, [&] {
          sink += static_cast<std::size_t>(item_root->fingerprint() & 1);
        }));
  expect(decode_world_snapshot(wire, *proto).fingerprint() ==
             item_root->fingerprint(),
         "the snapshot codec round-trips the item root");
  expect(sink > 0, "snapshot calls ran");
}

// ---- sweep harness, lowerbound, call stats ---------------------------------

void sweep_layers(JsonObject& m) {
  double serial_s = 0;
  double pooled_s = 0;
  double fit_s = 0;
  double artifact_s = 0;
  for (const char* name : {"e1", "e2"}) {
    const Experiment* exp = find_experiment(name);
    SweepResult result;
    result.spec = exp->spec;
    std::vector<double> ms;
    std::uint64_t steps = 0;
    for (std::size_t i = 0; i < exp->spec.grid_size(); ++i) {
      SweepPointResult pr;
      pr.point = exp->spec.point_at(i);
      const auto t0 = Clock::now();
      pr.metrics = exp->runner(pr.point);
      ms.push_back(seconds_since(t0) * 1e3);
      steps += static_cast<std::uint64_t>(pr.metrics.value("history.steps"));
      result.points.push_back(std::move(pr));
    }
    const double sum_ms = std::accumulate(ms.begin(), ms.end(), 0.0);
    serial_s += sum_ms / 1e3;
    const std::string base = std::string("harness.") + name + ".point_ms.";
    m.num(base + "p50", percentile(ms, 0.5));
    if (std::string(name) == "e1") {
      m.num(base + "p80", percentile(ms, 0.8));
      m.num("harness.e1.ns_per_step",
            sum_ms * 1e6 / static_cast<double>(steps));
    }
    m.num(base + "max", percentile(ms, 1.0));

    fit_s += median_of(5, [&] {
      SweepResult copy = result;
      const auto t0 = Clock::now();
      const BenchArtifact a = make_artifact(*exp, std::move(copy), "rmrbench");
      return seconds_since(t0);
    });
    const BenchArtifact artifact = make_artifact(*exp, result, "rmrbench");
    artifact_s += median_of(5, [&] {
      const auto t0 = Clock::now();
      const std::string json = artifact_to_json(artifact);
      return seconds_since(t0);
    });

    const auto t0 = Clock::now();
    const SweepResult pooled = run_sweep(exp->spec, exp->runner, kWorkers);
    pooled_s += seconds_since(t0);
    expect(pooled.points.size() == result.points.size(),
           "pooled and serial sweeps cover the same grid");

    if (std::string(name) == "e1") {
      // per_call_costs on the largest e1 history, rebuilt in full mode.
      std::size_t largest = 0;
      for (std::size_t i = 0; i < result.points.size(); ++i) {
        if (result.points[i].metrics.value("history.steps") >
            result.points[largest].metrics.value("history.steps")) {
          largest = i;
        }
      }
      const SweepPoint& p = result.points[largest].point;
      SignalingWorkloadOptions opt;
      opt.n_waiters = p.n;
      opt.signaler_idle_polls = p.algorithm == "flag-spin-n" ? p.n : 64;
      const SignalingRun run = run_signaling_workload(
          make_model_by_name(p.model, p.n + 1),
          make_signal_factory_by_name("flag", p.n), opt);
      m.num("trace.per_call_costs.ms", median_of(3, [&] {
              const auto t1 = Clock::now();
              const auto costs = per_call_costs(run.sim->history());
              expect(!costs.empty(), "per_call_costs slices calls");
              return seconds_since(t1);
            }) * 1e3);
    }
  }
  m.num("harness.fit.ms", fit_s * 1e3);
  m.num("harness.artifact.ms", artifact_s * 1e3);
  m.num("harness.pool.busy_ratio", serial_s / (kWorkers * pooled_s));

  // The Section 6 adversary on its own: e2's registration construction over
  // e2's N axis.
  std::vector<double> adv_ms;
  for (const int n : find_experiment("e2")->spec.ns) {
    AdversaryConfig c;
    c.nprocs = n;
    c.construction = Construction::kStrict;
    SignalingAdversary adv(
        [n](SharedMemory& mem) {
          return std::make_unique<DsmRegistrationSignal>(
              mem, static_cast<ProcId>(n - 2));
        },
        c);
    const auto t0 = Clock::now();
    const AdversaryReport r = adv.run();
    adv_ms.push_back(seconds_since(t0) * 1e3);
    expect(!r.spec_violation, "the adversary run keeps the spec");
  }
  m.num("lowerbound.adversary.ms",
        std::accumulate(adv_ms.begin(), adv_ms.end(), 0.0) /
            static_cast<double>(adv_ms.size()));
  m.num("lowerbound.adversary.ms_max", percentile(adv_ms, 1.0));
}

// ---- verify ---------------------------------------------------------

void verify_layers(JsonObject& m) {
  const ExploreBuilder build = explore_builder();
  const ExploreChecker check = explore_checker();
  auto timed = [&](int workers, ExploreResult* out) {
    const auto t0 = Clock::now();
    *out = explore_dpor(build, check, explore_options(workers));
    return seconds_since(t0);
  };
  ExploreResult one;
  ExploreResult two;
  const double t1 = timed(1, &one);
  const double t2 = timed(kWorkers, &two);
  expect(render_explore_report(one) == render_explore_report(two),
         "1-worker and 2-worker searches report identically");
  m.num("verify.dpor.ns_per_node",
        t1 * 1e9 / static_cast<double>(one.nodes_visited));
  m.num("verify.dpor.parallel_efficiency", t1 / (kWorkers * t2));
  m.num("verify.dpor.wall_s", t2);

  // Builder and checker from the benchmark's own timing wrappers.
  CallTally build_tally;
  CallTally check_tally;
  const ExploreResult wrapped =
      explore_dpor(timed_builder(build, &build_tally),
                   timed_checker(check, &check_tally),
                   explore_options(kWorkers));
  expect(wrapped.nodes_visited == two.nodes_visited,
         "the timing wrappers do not change the search");
  m.count("verify.build.calls", build_tally.calls());
  m.num("verify.build.ns_per_call",
        per(build_tally.ns(), build_tally.calls()));
  m.count("verify.checker.calls", check_tally.calls());
  m.num("verify.checker.ns_per_call",
        per(check_tally.ns(), check_tally.calls()));

  const ExploreStats& s = two.stats;
  m.num("verify.snapshot.hit_ratio",
        per(s.snapshot_hits, s.snapshot_hits + s.snapshot_misses));
  m.num("verify.snapshot.eviction_ratio",
        per(s.snapshot_evictions, s.snapshots_taken));
  m.count("verify.replayed_steps", s.replayed_steps);
  m.count("verify.snapshot.delta_steps", s.snapshot_delta_steps);
  m.count("verify.snapshot.peak_bytes", s.snapshot_peak_bytes);
  m.count("verify.sleep_set_prunes", s.sleep_set_prunes);
  m.count("verify.work_items", s.work_items);
}

}  // namespace

int run_layers(const Args& args) {
  const auto seed = static_cast<std::uint64_t>(args.get_int("trace-seed", 1));
  JsonObject m;
  const auto t0 = Clock::now();
  trace_layers(seed, m);
  step_layers(m);
  snapshot_layers(m);
  sweep_layers(m);
  verify_layers(m);
  std::printf("%s\n", JsonObject()
                          .raw("metrics", m.dump())
                          .count("check_failures",
                                 static_cast<std::uint64_t>(g_check_failures))
                          .num("wall_s", seconds_since(t0))
                          .dump()
                          .c_str());
  return 0;
}

int run_history_probe(const Args& args) {
  const int n = static_cast<int>(args.get_int("n", 512));
  const SignalingRun run = run_flag(n, HistoryMode::kFull);
  std::printf("%s\n", JsonObject()
                          .count("steps", run.sim->history().size())
                          .dump()
                          .c_str());
  return 0;
}

}  // namespace rmrbench
