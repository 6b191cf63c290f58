// Microbenchmarks + the wall-clock perf suite: simulator throughput.
//
// Not a paper experiment — these time the machinery itself (steps/second
// for memory ops, coroutine scheduling, the adversary, DPOR exploration) so
// regressions in the simulator's own performance are visible. Complexity
// claims live in the bench_e* binaries.
//
// Two modes:
//  - default: google-benchmark microbenchmarks (unchanged flags).
//  - --perf-suite: runs the pinned perf configs below with plain wall-clock
//    timing and writes a schema-v1 BENCH_PERF.json through the artifact
//    writer (steps/sec, ns/step, ns/DPOR-node). `--gate-ref R` exits
//    nonzero when the reference config (counters-only signaling steps,
//    n = 64) measures below R steps/sec — the CI perf-smoke gate. See
//    EXPERIMENTS.md ("BENCH_PERF.json") and README ("Perf suite").
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "harness/artifact.h"
#include "harness/sweep.h"
#include "lowerbound/adversary.h"
#include "memory/cc_model.h"
#include "memory/shared_memory.h"
#include "sched/schedulers.h"
#include "signaling/cc_flag.h"
#include "signaling/dsm_registration.h"
#include "signaling/workload.h"
#include "verify/dpor.h"
#include "workload/generators.h"
#include "workload/replay.h"

namespace rmrsim {
namespace {

void BM_DsmApplyOps(benchmark::State& state) {
  auto mem = make_dsm(8);
  const VarId v = mem->allocate_global(0);
  Word x = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(mem->apply(0, MemOp::write(v, ++x)));
    benchmark::DoNotOptimize(mem->apply(1, MemOp::read(v)));
  }
  state.SetItemsProcessed(state.iterations() * 2);
}
BENCHMARK(BM_DsmApplyOps);

void BM_CcApplyOps(benchmark::State& state) {
  auto mem = make_cc(8);
  const VarId v = mem->allocate_global(0);
  Word x = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(mem->apply(0, MemOp::write(v, ++x)));
    benchmark::DoNotOptimize(mem->apply(1, MemOp::read(v)));
  }
  state.SetItemsProcessed(state.iterations() * 2);
}
BENCHMARK(BM_CcApplyOps);

SignalingRun run_steps_workload(int n, HistoryMode mode) {
  SignalingWorkloadOptions opt;
  opt.n_waiters = n;
  opt.signaler_idle_polls = 8;
  opt.history_mode = mode;
  return run_signaling_workload(
      make_dsm(n + 1),
      [](SharedMemory& m) { return std::make_unique<CcFlagSignal>(m); }, opt);
}

void BM_CoroutineSteps(benchmark::State& state) {
  // One full waiters+signaler workload per iteration; items = steps taken.
  const int n = static_cast<int>(state.range(0));
  std::uint64_t steps = 0;
  for (auto _ : state) {
    auto run = run_steps_workload(n, HistoryMode::kFull);
    steps += run.sim->history().size();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(steps));
}
BENCHMARK(BM_CoroutineSteps)->Arg(8)->Arg(64);

void BM_CoroutineStepsCountersOnly(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  std::uint64_t steps = 0;
  for (auto _ : state) {
    auto run = run_steps_workload(n, HistoryMode::kCountersOnly);
    steps += run.sim->history().size();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(steps));
}
BENCHMARK(BM_CoroutineStepsCountersOnly)->Arg(8)->Arg(64);

void BM_AdversaryStrict(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    AdversaryConfig c;
    c.nprocs = n;
    c.construction = Construction::kStrict;
    SignalingAdversary adv(
        [n](SharedMemory& m) {
          return std::make_unique<DsmRegistrationSignal>(
              m, static_cast<ProcId>(n - 2));
        },
        c);
    benchmark::DoNotOptimize(adv.run());
  }
}
BENCHMARK(BM_AdversaryStrict)->Arg(32)->Arg(128)->Unit(benchmark::kMillisecond);

// ---- perf suite (--perf-suite) --------------------------------------

/// The reference config for the CI gate and for before/after comparisons:
/// the counters-only signaling step loop at this many waiters.
constexpr int kReferenceWaiters = 64;
constexpr const char* kReferenceAlgorithm = "steps_counters";

/// Runs `body` (which returns items processed) repeatedly until at least
/// `min_seconds` of wall clock is accumulated, after one warmup run.
template <typename Body>
std::pair<std::uint64_t, double> run_timed(double min_seconds, Body&& body) {
  using clock = std::chrono::steady_clock;
  body();  // warmup: page in code, fault in allocations
  std::uint64_t items = 0;
  double seconds = 0;
  while (seconds < min_seconds) {
    const auto t0 = clock::now();
    items += body();
    seconds += std::chrono::duration<double>(clock::now() - t0).count();
  }
  return {items, seconds};
}

MetricsRegistry time_steps_config(int n, HistoryMode mode,
                                  double min_seconds) {
  const auto [steps, seconds] = run_timed(min_seconds, [&] {
    return run_steps_workload(n, mode).sim->history().size();
  });
  MetricsRegistry reg;
  reg.set("steps_per_sec", static_cast<double>(steps) / seconds);
  reg.set("ns_per_step", seconds * 1e9 / static_cast<double>(steps));
  return reg;
}

MetricsRegistry time_dpor_config(int waiters, double min_seconds) {
  // The cli_explore_signal configuration, with a counter-backed checker so
  // the counters-only instance opt-in applies: DPOR node throughput.
  const ExploreBuilder build = [waiters]() {
    ExploreInstance inst;
    inst.mem = make_dsm(waiters + 1);
    std::shared_ptr<SignalingAlgorithm> alg =
        std::make_shared<DsmRegistrationSignal>(
            *inst.mem, static_cast<ProcId>(waiters));
    std::vector<Program> programs;
    for (int i = 0; i < waiters; ++i) {
      programs.emplace_back([a = alg.get()](ProcCtx& ctx) {
        return polling_waiter(ctx, a, /*max_polls=*/1);
      });
    }
    programs.emplace_back(
        [a = alg.get()](ProcCtx& ctx) { return signaler(ctx, a); });
    inst.sim = std::make_unique<Simulation>(*inst.mem, std::move(programs));
    inst.keepalive = alg;
    return inst;
  };
  const ExploreChecker check =
      [](const History& h) -> std::optional<std::string> {
    if (h.total_rmrs() > 1'000'000) return "absurd RMR count";
    return std::nullopt;
  };
  std::uint64_t nodes = 0;
  const auto [_, seconds] = run_timed(min_seconds, [&] {
    DporOptions opt;
    opt.max_depth = 24;
    opt.counters_only_history = true;
    const ExploreResult r = explore_dpor(build, check, opt);
    nodes += r.nodes_visited;
    return r.nodes_visited;
  });
  MetricsRegistry reg;
  reg.set("nodes_per_sec", static_cast<double>(nodes) / seconds);
  reg.set("ns_per_dpor_node", seconds * 1e9 / static_cast<double>(nodes));
  return reg;
}

MetricsRegistry time_trace_replay_config(int procs, double min_seconds) {
  // Bare cc replay of a pinned zipf trace (no protocol fleet): the workload
  // engine's end-to-end op throughput, ledger and counters included.
  GenSpec g;
  g.kind = "zipf";
  g.procs = procs;
  g.ops = 50'000;
  g.seed = 1;
  const Trace trace = generate_trace(g);
  const auto [ops, seconds] = run_timed(min_seconds, [&]() -> std::uint64_t {
    auto mem = make_cc(trace.nprocs);
    replay_trace_core(trace, *mem);
    return trace.ops.size();
  });
  MetricsRegistry reg;
  reg.set("trace_replay_ops_per_sec", static_cast<double>(ops) / seconds);
  reg.set("ns_per_trace_op", seconds * 1e9 / static_cast<double>(ops));
  return reg;
}

MetricsRegistry time_apply_config(bool cc, double min_seconds) {
  std::unique_ptr<SharedMemory> mem = cc ? make_cc(8) : make_dsm(8);
  const VarId v = mem->allocate_global(0);
  Word x = 0;
  const auto [ops, seconds] = run_timed(min_seconds, [&]() -> std::uint64_t {
    constexpr std::uint64_t kBatch = 100'000;
    for (std::uint64_t i = 0; i < kBatch; ++i) {
      benchmark::DoNotOptimize(mem->apply(0, MemOp::write(v, ++x)));
      benchmark::DoNotOptimize(mem->apply(1, MemOp::read(v)));
    }
    return 2 * kBatch;
  });
  MetricsRegistry reg;
  reg.set("ops_per_sec", static_cast<double>(ops) / seconds);
  reg.set("ns_per_op", seconds * 1e9 / static_cast<double>(ops));
  return reg;
}

int run_perf_suite(const std::string& out_dir, double min_seconds,
                   double gate_ref_steps_per_sec) {
  // The pinned grid. Axes are reused from the sweep schema: `algorithm`
  // names the config, `n` its size, `model` the memory model it exercises.
  SweepSpec spec;
  spec.name = "PERF";
  spec.models = {"dsm"};
  spec.algorithms = {"steps_full", "steps_counters", "dpor_registration",
                     "apply_dsm", "apply_cc", "trace_replay"};
  spec.ns = {8, 64};

  SweepResult result;
  result.spec = spec;
  result.workers = 1;
  const auto wall0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < spec.grid_size(); ++i) {
    SweepPointResult pr;
    pr.point = spec.point_at(i);
    const std::string& alg = pr.point.algorithm;
    if (alg == "steps_full") {
      pr.metrics =
          time_steps_config(pr.point.n, HistoryMode::kFull, min_seconds);
    } else if (alg == "steps_counters") {
      pr.metrics = time_steps_config(pr.point.n, HistoryMode::kCountersOnly,
                                     min_seconds);
    } else if (alg == "dpor_registration" && pr.point.n == 8) {
      // One pinned size: 2 waiters x 1 poll (the cli_explore_signal shape);
      // the depth-24 tree is what DPOR reduction leaves of it.
      pr.metrics = time_dpor_config(/*waiters=*/2, min_seconds);
    } else if (alg == "apply_dsm" && pr.point.n == 8) {
      pr.metrics = time_apply_config(/*cc=*/false, min_seconds);
    } else if (alg == "apply_cc" && pr.point.n == 8) {
      pr.metrics = time_apply_config(/*cc=*/true, min_seconds);
    } else if (alg == "trace_replay") {
      pr.metrics = time_trace_replay_config(pr.point.n, min_seconds);
    }
    result.points.push_back(std::move(pr));
  }
  result.wall_ms = std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - wall0)
                       .count();

  BenchArtifact artifact;
  artifact.name = spec.name;
  artifact.title = "simulator perf suite (wall-clock throughput)";
  artifact.generator = "bench_micro --perf-suite";
  artifact.git = git_describe();
  artifact.result = result;
  const std::string path = write_artifact(artifact, out_dir);

  double ref = 0;
  for (const SweepPointResult& pr : result.points) {
    if (pr.point.algorithm == kReferenceAlgorithm &&
        pr.point.n == kReferenceWaiters) {
      ref = pr.metrics.value("steps_per_sec");
    }
    for (const char* m :
         {"steps_per_sec", "ns_per_step", "nodes_per_sec", "ns_per_dpor_node",
          "ops_per_sec", "ns_per_op", "trace_replay_ops_per_sec",
          "ns_per_trace_op"}) {
      if (pr.metrics.has_value(m)) {
        std::printf("perf %-18s n=%-3d %-16s %14.0f\n",
                    pr.point.algorithm.c_str(), pr.point.n, m,
                    pr.metrics.value(m));
      }
    }
  }
  std::printf("perf suite written: %s\n", path.c_str());
  std::printf("reference config (%s, n=%d): %.0f steps/sec\n",
              kReferenceAlgorithm, kReferenceWaiters, ref);
  if (gate_ref_steps_per_sec > 0 && ref < gate_ref_steps_per_sec) {
    std::fprintf(stderr,
                 "PERF GATE FAILED: reference %.0f steps/sec < required "
                 "%.0f\n",
                 ref, gate_ref_steps_per_sec);
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace rmrsim

int main(int argc, char** argv) {
  bool perf_suite = false;
  std::string out_dir = ".";
  double min_seconds = 0.5;
  double gate_ref = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--perf-suite") == 0) {
      perf_suite = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_dir = argv[++i];
    } else if (std::strcmp(argv[i], "--min-time") == 0 && i + 1 < argc) {
      min_seconds = std::atof(argv[++i]);
    } else if (std::strcmp(argv[i], "--gate-ref") == 0 && i + 1 < argc) {
      gate_ref = std::atof(argv[++i]);
    }
  }
  if (perf_suite) {
    return rmrsim::run_perf_suite(out_dir, min_seconds, gate_ref);
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
