#include "harness/experiments.h"

#include <algorithm>
#include <memory>
#include <utility>

#include <cstdio>

#include "coherence/fleet.h"
#include "coherence/protocols.h"
#include "common/check.h"
#include "common/table.h"
#include "harness/drive.h"
#include "lowerbound/adversary.h"
#include "memory/cc_model.h"
#include "metrics/publish.h"
#include "sched/schedulers.h"
#include "signaling/cc_flag.h"
#include "signaling/dsm_fixed.h"
#include "signaling/dsm_registration.h"
#include "signaling/workload.h"
#include "workload/generators.h"
#include "workload/replay.h"

namespace rmrsim {

namespace {

// ---- shared point runners ---------------------------------------------

/// Standard signaling workload point: run, then publish what the run
/// measured (publish_signaling_run).
MetricsRegistry run_signaling_point(const std::string& model, int n_waiters,
                                    const SignalingFactory& factory,
                                    SignalingWorkloadOptions opt) {
  opt.n_waiters = n_waiters;
  MetricsRegistry reg;
  auto run = run_signaling_workload(make_model_by_name(model, n_waiters + 1),
                                    factory, opt);
  publish_signaling_run(reg, run, opt.blocking);
  return reg;
}

/// Section 6 adversary point: adv.amortized is the forced cost (final
/// amortized when part 1 stabilized, the unstable branch's endpoint
/// otherwise — the quantity Theorem 6.2 lower-bounds either way).
MetricsRegistry run_adversary_point(const SignalingFactory& factory,
                                    const AdversaryConfig& config) {
  MetricsRegistry reg;
  SignalingAdversary adv(factory, config);
  const AdversaryReport r = adv.run();
  reg.set("adv.amortized",
          r.stabilized ? r.amortized_final : r.unstable_amortized_end);
  reg.set("adv.signaler_rmrs", static_cast<double>(r.signaler_rmrs));
  reg.set("adv.stabilized", r.stabilized ? 1.0 : 0.0);
  reg.set("adv.stable_waiters", static_cast<double>(r.stable_waiters));
  reg.set("adv.participants", static_cast<double>(r.participants_final));
  reg.set("adv.rounds", static_cast<double>(r.rounds));
  reg.set("adv.in_scope", r.in_scope ? 1.0 : 0.0);
  reg.set("spec.ok", r.spec_violation ? 0.0 : 1.0);
  return reg;
}

/// Full-contention mutex point under round-robin (the E5/E8 shape).
/// `listener` (optional) is attached to the world's memory for the run.
MetricsRegistry run_mutex_point(const std::string& model,
                                const std::string& lock_name, int n,
                                int passages,
                                CoherenceListener* listener = nullptr) {
  MutexRunOptions opt;
  opt.model = model;
  opt.nprocs = n;
  opt.passages = passages;
  opt.listener = listener;
  opt.make_lock = lock_factory_by_name(lock_name);
  MetricsRegistry reg;
  publish_mutex_run(reg, run_mutex_workload(opt));
  return reg;
}

// ---- E1 ----------------------------------------------------------------

SweepSpec e1_spec() {
  SweepSpec s;
  s.name = "e1";
  s.models = {"cc", "dsm"};
  // flag-delay64: the signaler idles a fixed 64 polls; flag-spin-n: the
  // idle time scales with N, so the DSM waiters' spin cost grows along the
  // x axis while CC must stay flat — the Section 5 claim as a fit.
  s.algorithms = {"flag-delay64", "flag-spin-n"};
  s.ns = {2, 4, 8, 16, 32, 64, 128, 256, 512, 1024};
  return s;
}

MetricsRegistry e1_runner(const SweepPoint& p) {
  SignalingWorkloadOptions opt;
  opt.signaler_idle_polls = p.algorithm == "flag-spin-n" ? p.n : 64;
  return run_signaling_point(p.model, p.n,
                             make_signal_factory_by_name("flag", p.n), opt);
}

// ---- E2 ----------------------------------------------------------------

SweepSpec e2_spec() {
  SweepSpec s;
  s.name = "e2";
  s.models = {"dsm"};  // the control's CC memory is part of its algorithm
  s.algorithms = {"registration", "fixed-waiters", "flag-dsm",
                  "flag-cc-control"};
  s.ns = {16, 32, 64, 128, 256};
  return s;
}

MetricsRegistry e2_runner(const SweepPoint& p) {
  const int n = p.n;
  AdversaryConfig c;
  c.nprocs = n;
  c.construction = Construction::kStrict;
  if (p.algorithm == "registration") {
    return run_adversary_point(
        [n](SharedMemory& m) {
          return std::make_unique<DsmRegistrationSignal>(
              m, static_cast<ProcId>(n - 2));
        },
        c);
  }
  if (p.algorithm == "fixed-waiters") {
    return run_adversary_point(
        [n](SharedMemory& m) {
          std::vector<ProcId> ws;
          for (int i = 0; i < n - 1; ++i) ws.push_back(i);
          return std::make_unique<DsmFixedWaitersSignal>(m, std::move(ws));
        },
        c);
  }
  if (p.algorithm == "flag-dsm") {
    // The flag algorithm never stabilizes; the Lemma 6.11 branch forces
    // RMRs per *extension round*, so the rounds scale with N to exhibit
    // the unbounded growth along the sweep's x axis.
    c.unstable_extension_rounds = std::max(4, n / 4);
    return run_adversary_point(
        [](SharedMemory& m) { return std::make_unique<CcFlagSignal>(m); }, c);
  }
  if (p.algorithm == "flag-cc-control") {
    c.construction = Construction::kLenient;
    c.make_memory = [](int k) { return make_cc(k); };
    return run_adversary_point(
        [](SharedMemory& m) { return std::make_unique<CcFlagSignal>(m); }, c);
  }
  fail("e2: unknown algorithm '" + p.algorithm + "'");
}

// ---- E3 ----------------------------------------------------------------

SweepSpec e3_spec() {
  SweepSpec s;
  s.name = "e3";
  s.models = {"dsm", "cc"};
  s.algorithms = {"flag",  "fixed-wait-free", "fixed-terminating",
                  "registration", "queue", "cas", "blocking-leader"};
  s.ns = {16, 32, 64};
  return s;
}

MetricsRegistry e3_runner(const SweepPoint& p) {
  const int n = p.n;
  SignalingWorkloadOptions opt;
  opt.signaler_idle_polls = 16;
  SignalingFactory factory;
  if (p.algorithm == "fixed-wait-free") {
    // The fixed-waiter variants restrict Poll() to the fixed set, so the
    // signaler cannot make idle polls.
    opt.signaler_idle_polls = 0;
    factory = [n](SharedMemory& m) {
      std::vector<ProcId> ws;
      for (int i = 0; i < n; ++i) ws.push_back(i);
      return std::make_unique<DsmFixedWaitersSignal>(m, std::move(ws));
    };
  } else if (p.algorithm == "fixed-terminating") {
    opt.signaler_idle_polls = 0;
    factory = [n](SharedMemory& m) {
      std::vector<ProcId> ws;
      for (int i = 0; i < n; ++i) ws.push_back(i);
      return std::make_unique<DsmFixedWaitersTerminating>(
          m, std::move(ws), static_cast<ProcId>(n));
    };
  } else if (p.algorithm == "blocking-leader") {
    opt.blocking = true;
    opt.signaler_idle_polls = 0;
    factory = make_signal_factory_by_name("blocking-leader", n);
  } else {
    factory = make_signal_factory_by_name(p.algorithm, n);
  }
  return run_signaling_point(p.model, n, factory, opt);
}

// ---- E4 ----------------------------------------------------------------

SweepSpec e4_spec() {
  SweepSpec s;
  s.name = "e4";
  s.models = {"cc"};
  s.algorithms = {"flag-half-idle", "ping-pong"};
  s.ns = {8, 16, 32, 64, 128, 256};
  return s;
}

/// The Section 8 workloads, run against `mem` with whatever coherence
/// listener is already attached: flag-half-idle (broadcast-friendly: many
/// sharers, one invalidating write) or ping-pong (the coarse directory's
/// worst case: one producer rewriting a cell one consumer re-reads).
/// Publishes the simulation/ledger side into `reg`; message tallies are the
/// caller's, since only it knows which counters it attached.
void run_e4_workload(const SweepPoint& p, SharedMemory& mem,
                     MetricsRegistry& reg) {
  const int n = p.n;
  if (p.algorithm == "flag-half-idle") {
    const int n_waiters = n / 2 - 1;
    const int n_idle = n - n_waiters - 1;
    CcFlagSignal alg(mem);
    std::vector<Program> programs;
    for (int i = 0; i < n_waiters; ++i) {
      programs.emplace_back(
          [&alg](ProcCtx& ctx) { return polling_waiter(ctx, &alg, 1'000'000); });
    }
    for (int i = 0; i < n_idle; ++i) programs.emplace_back(Program{});
    programs.emplace_back(
        [&alg](ProcCtx& ctx) { return signaler(ctx, &alg, 16); });
    Simulation sim(mem, std::move(programs));
    RoundRobinScheduler rr;
    const auto result = sim.run(rr, 100'000'000);
    publish_simulation(reg, sim);
    reg.set("run.completed", result.all_terminated ? 1.0 : 0.0);
  } else if (p.algorithm == "ping-pong") {
    // One producer rewriting a cell, one consumer re-reading it — the
    // regime where the coarse directory's blind broadcasts diverge.
    const VarId v = mem.allocate_global(0);
    for (int round = 0; round < 64; ++round) {
      mem.apply(0, MemOp::write(v, round));
      mem.apply(1, MemOp::read(v));
    }
    publish_ledger(reg, mem.ledger());
  } else {
    fail("e4: unknown algorithm '" + p.algorithm + "'");
  }
  if (mem.listener() != nullptr) mem.listener()->flush();
}

MetricsRegistry e4_runner(const SweepPoint& p) {
  MetricsRegistry reg;
  auto mem = make_cc(p.n);
  ProtocolFleet fleet(p.n, {}, /*legacy_counters=*/true);
  mem->set_listener(fleet.listener());

  run_e4_workload(p, *mem, reg);

  fleet.publish(reg);
  const double rmrs =
      std::max<double>(1.0, static_cast<double>(mem->ledger().total_rmrs()));
  reg.set("msgs.bus.per_rmr",
          static_cast<double>(fleet.bus().total_messages()) / rmrs);
  reg.set("msgs.ideal.per_rmr",
          static_cast<double>(fleet.ideal().total_messages()) / rmrs);
  reg.set("msgs.coarse.per_rmr",
          static_cast<double>(fleet.coarse().total_messages()) / rmrs);
  return reg;
}

// ---- E4 per-protocol: the state-machine fleet on the same grid ---------

/// One fleet protocol on the E4 grid: the state machine rides the same
/// event stream the legacy counters saw, and its message *and* cycle
/// tallies per RMR must both fit O(1) — the protocol-invariance gate (the
/// asymptotic classes the paper derives cannot depend on which snooping
/// protocol the interconnect happens to run).
MetricsRegistry e4_protocol_runner(const std::string& protocol,
                                   const SweepPoint& p) {
  MetricsRegistry reg;
  auto mem = make_cc(p.n);
  ProtocolFleet fleet(p.n, {protocol});
  mem->set_listener(fleet.listener());

  run_e4_workload(p, *mem, reg);

  fleet.publish(reg);
  const SnoopingCache& cache = *fleet.caches().front();
  const double rmrs =
      std::max<double>(1.0, static_cast<double>(mem->ledger().total_rmrs()));
  reg.set("msgs." + protocol + ".per_rmr",
          static_cast<double>(cache.total_messages()) / rmrs);
  reg.set("cycles." + protocol + ".per_rmr",
          static_cast<double>(cache.total_cycles()) / rmrs);
  return reg;
}

SweepSpec e4_protocol_spec(const std::string& protocol) {
  SweepSpec s = e4_spec();
  s.name = "e4_" + protocol;
  return s;
}

// ---- E5 ----------------------------------------------------------------

SweepSpec e5_spec() {
  SweepSpec s;
  s.name = "e5";
  s.models = {"dsm", "cc"};
  s.algorithms = {"ya", "mcs", "anderson", "ticket", "clh", "bakery",
                  "peterson"};
  s.ns = {4, 16, 64, 256};
  return s;
}

MetricsRegistry e5_runner(const SweepPoint& p) {
  return run_mutex_point(p.model, p.algorithm, p.n, /*passages=*/3);
}

// ---- E6 ----------------------------------------------------------------

SweepSpec e6_spec() {
  SweepSpec s;
  s.name = "e6";
  s.models = {"dsm"};
  s.algorithms = {"cas-raw", "rw-cas-transformed"};
  s.ns = {16, 32, 64};
  return s;
}

MetricsRegistry e6_runner(const SweepPoint& p) {
  AdversaryConfig c;
  c.nprocs = p.n;
  c.construction = Construction::kStrict;
  if (p.algorithm == "cas-raw") {
    return run_adversary_point(make_signal_factory_by_name("cas", p.n - 2), c);
  }
  if (p.algorithm == "rw-cas-transformed") {
    c.max_rounds = 64;  // lock traffic needs more rounds to settle
    return run_adversary_point(make_signal_factory_by_name("rw-cas", p.n - 2),
                               c);
  }
  fail("e6: unknown algorithm '" + p.algorithm + "'");
}

// ---- E7 ----------------------------------------------------------------

SweepSpec e7_spec() {
  SweepSpec s;
  s.name = "e7";
  s.models = {"dsm"};
  s.algorithms = {"registration"};
  s.ns = {81, 243, 729};
  return s;
}

MetricsRegistry e7_runner(const SweepPoint& p) {
  const int n = p.n;
  AdversaryConfig c;
  c.nprocs = n;
  c.construction = Construction::kStrict;
  SignalingAdversary adv(
      [n](SharedMemory& m) {
        return std::make_unique<DsmRegistrationSignal>(
            m, static_cast<ProcId>(n - 2));
      },
      c);
  const AdversaryReport r = adv.run();
  MetricsRegistry reg;
  bool invariants_ok = true;
  for (const RoundStats& rs : r.round_stats) {
    if (rs.finished > rs.round) invariants_ok = false;
    if (rs.max_active_rmrs > static_cast<std::uint64_t>(rs.round)) {
      invariants_ok = false;
    }
    if (!rs.regular) invariants_ok = false;
    reg.series_append("adv.active_by_round", rs.round, rs.active);
    reg.series_append("adv.finished_by_round", rs.round, rs.finished);
    reg.series_append("adv.stable_by_round", rs.round, rs.stable);
    reg.series_append("adv.max_active_rmrs_by_round", rs.round,
                      static_cast<double>(rs.max_active_rmrs));
    reg.series_append("adv.regular_by_round", rs.round,
                      rs.regular ? 1.0 : 0.0);
  }
  reg.set("adv.invariants_ok", invariants_ok ? 1.0 : 0.0);
  reg.set("adv.rounds", static_cast<double>(r.rounds));
  reg.set("adv.amortized", r.amortized_final);
  reg.set("adv.signaler_rmrs", static_cast<double>(r.signaler_rmrs));
  reg.set("adv.stabilized", r.stabilized ? 1.0 : 0.0);
  reg.set("adv.stable_waiters", static_cast<double>(r.stable_waiters));
  reg.set("adv.participants", static_cast<double>(r.participants_final));
  reg.set("spec.ok", r.spec_violation ? 0.0 : 1.0);
  return reg;
}

// ---- E8 ----------------------------------------------------------------

SweepSpec e8_spec() {
  SweepSpec s;
  s.name = "e8";
  s.models = {"cc", "cc-wb", "cc-mesi", "cc-lfcu"};
  s.algorithms = {"flag", "tas"};
  s.ns = {8, 16, 32, 64};
  return s;
}

/// Fleet tallies for an E8 point plus the amortized-per-process cycle
/// gauge the pins read.
void publish_e8_fleet(MetricsRegistry& reg, const ProtocolFleet& fleet,
                      int participants) {
  fleet.publish(reg);
  for (const auto& c : fleet.caches()) {
    reg.set("cycles." + std::string(c->name()) + ".amortized",
            static_cast<double>(c->total_cycles()) /
                std::max(1, participants));
  }
}

MetricsRegistry e8_runner(const SweepPoint& p) {
  // The whole fleet rides every E8 point: one schedule, every protocol
  // priced, so the cost-model ablation (x axis: CC policy) carries a
  // per-protocol cycle ablation alongside it for free.
  if (p.algorithm == "flag") {
    ProtocolFleet fleet(p.n + 1, protocol_names());  // waiters + signaler
    SignalingWorkloadOptions opt;
    opt.signaler_idle_polls = 64;
    opt.listener = fleet.listener();
    MetricsRegistry reg = run_signaling_point(
        p.model, p.n, make_signal_factory_by_name("flag", p.n), opt);
    publish_e8_fleet(reg, fleet, p.n + 1);
    return reg;
  }
  if (p.algorithm == "tas") {
    ProtocolFleet fleet(p.n, protocol_names());
    MetricsRegistry reg =
        run_mutex_point(p.model, "tas", p.n, /*passages=*/3, fleet.listener());
    publish_e8_fleet(reg, fleet, p.n);
    return reg;
  }
  fail("e8: unknown algorithm '" + p.algorithm + "'");
}

// ---- E9 ----------------------------------------------------------------

SweepSpec e9_spec() {
  SweepSpec s;
  s.name = "e9";
  s.models = {"dsm", "cc"};
  s.algorithms = {"recoverable"};
  s.ns = {6};  // the x axis of this experiment is the fault plan, not N
  s.fault_plans = {"",
                   "random:rate=0.002,seed=1234,recover=50,max=64",
                   "random:rate=0.01,seed=1234,recover=50,max=64",
                   "random:rate=0.05,seed=1234,recover=50,max=64"};
  return s;
}

MetricsRegistry e9_runner(const SweepPoint& p) {
  MutexRunOptions opt;
  opt.model = p.model;
  opt.nprocs = p.n;
  opt.passages = 4;
  opt.fault_plan = p.fault_plan;
  opt.max_steps = 60'000'000;
  opt.make_lock = lock_factory_by_name("recoverable");
  MetricsRegistry reg;
  publish_crash_run(reg, run_mutex_workload(opt));
  return reg;
}

// ---- T1: trace-driven workloads ---------------------------------------

/// T1-synth grid: every synthetic generator under both cost models, N on
/// the processor axis with a fixed op budget per processor (so total work
/// grows with N — which is what makes the hot-set DSM total an Ω(W)
/// series while per-op rates stay comparable across N).
constexpr std::uint64_t kT1OpsPerProc = 256;

SweepSpec t1_synth_spec() {
  SweepSpec s;
  s.name = "t1_synth";
  s.models = {"dsm", "cc"};
  s.algorithms = generator_names();
  s.ns = {8, 16, 32, 64};
  return s;
}

MetricsRegistry t1_synth_runner(const SweepPoint& p) {
  GenSpec g;
  g.kind = p.algorithm;
  g.procs = p.n;
  g.ops = kT1OpsPerProc * static_cast<std::uint64_t>(p.n);
  g.seed = 1;
  const Trace trace = generate_trace(g);
  auto mem = make_model_by_name(p.model, p.n);
  return replay_trace(trace, *mem);
}

/// T1-scale grid: trace *length* on the N axis at a fixed processor count,
/// with the whole protocol fleet riding the replay — per-op RMR and cycle
/// rates must be flat in the trace length (heavy traffic changes totals,
/// never the asymptotic per-op price).
constexpr int kT1ScaleProcs = 16;

SweepSpec t1_scale_spec() {
  SweepSpec s;
  s.name = "t1_scale";
  s.models = {"dsm", "cc"};
  s.algorithms = {"zipf"};
  s.ns = {4096, 8192, 16384, 32768};
  return s;
}

MetricsRegistry t1_scale_runner(const SweepPoint& p) {
  GenSpec g;
  g.kind = p.algorithm;
  g.procs = kT1ScaleProcs;
  g.ops = static_cast<std::uint64_t>(p.n);
  g.seed = 1;
  const Trace trace = generate_trace(g);
  auto mem = make_model_by_name(p.model, kT1ScaleProcs);
  ReplayOptions opts;
  opts.protocols = protocol_names();
  return replay_trace(trace, *mem, opts);
}

// ---- registry ----------------------------------------------------------

SeriesDecl decl(std::string metric, std::string model, std::string algorithm,
                std::optional<Expectation> expected = std::nullopt) {
  return SeriesDecl{
      SeriesSelector{std::move(metric), std::move(model),
                     std::move(algorithm)},
      expected};
}

/// Table columns shared by the signaling-workload experiments (E1, E3).
std::vector<std::string> signaling_columns() {
  return {"rmrs.max_waiter", "rmrs.signaler", "rmrs.amortized", "spec.ok"};
}

std::vector<Experiment> build_experiments() {
  std::vector<Experiment> out;

  out.push_back(Experiment{
      "e1", "Section 5 CC upper bound: flag signaling, reads/writes",
      e1_spec(), e1_runner,
      {decl("rmrs.max_waiter", "cc", "flag-delay64", Expectation::kO1),
       decl("rmrs.amortized", "cc", "flag-delay64", Expectation::kO1),
       decl("rmrs.max_waiter", "cc", "flag-spin-n", Expectation::kO1),
       decl("rmrs.max_waiter", "dsm", "flag-spin-n", Expectation::kOmegaW),
       decl("rmrs.amortized", "dsm", "flag-spin-n", Expectation::kOmegaW),
       decl("rmrs.max_waiter", "dsm", "flag-delay64"),
       decl("rmrs.signaler", "dsm", "flag-delay64")},
      signaling_columns()});

  out.push_back(Experiment{
      "e2", "Theorem 6.2: forced amortized RMRs in DSM vs the CC control",
      e2_spec(), e2_runner,
      {decl("adv.amortized", "dsm", "registration", Expectation::kOmegaW),
       decl("adv.amortized", "dsm", "fixed-waiters", Expectation::kOmegaW),
       decl("adv.amortized", "dsm", "flag-dsm", Expectation::kOmegaW),
       decl("adv.amortized", "dsm", "flag-cc-control", Expectation::kO1),
       decl("adv.signaler_rmrs", "dsm", "registration")},
      {"adv.stabilized", "adv.stable_waiters", "adv.signaler_rmrs",
       "adv.participants", "adv.amortized", "spec.ok"}});

  out.push_back(Experiment{
      "e3", "Section 7 signaling-variant taxonomy",
      e3_spec(), e3_runner,
      {decl("rmrs.max_waiter", "dsm", "registration", Expectation::kO1),
       decl("rmrs.max_waiter", "dsm", "queue", Expectation::kO1),
       decl("rmrs.amortized", "dsm", "fixed-terminating", Expectation::kO1),
       decl("rmrs.signaler", "dsm", "fixed-wait-free", Expectation::kThetaN),
       decl("rmrs.max_waiter", "cc", "flag", Expectation::kO1),
       decl("rmrs.signaler", "dsm", "registration")},
      signaling_columns()});

  out.push_back(Experiment{
      "e4", "Section 8 message accounting under CC coherence protocols",
      e4_spec(), e4_runner,
      {decl("msgs.bus.per_rmr", "cc", "flag-half-idle", Expectation::kO1),
       decl("msgs.ideal.per_rmr", "cc", "flag-half-idle", Expectation::kO1),
       decl("msgs.ideal.per_rmr", "cc", "ping-pong", Expectation::kO1),
       decl("msgs.coarse.per_rmr", "cc", "ping-pong", Expectation::kOmegaW)},
      {"ledger.total_rmrs", "msgs.bus-broadcast.total",
       "msgs.ideal-directory.total", "msgs.ideal-directory.invalidations",
       "msgs.coarse-directory.total", "msgs.coarse-directory.invalidations",
       "msgs.coarse-directory.superfluous", "msgs.ideal.per_rmr",
       "msgs.coarse.per_rmr", "run.completed"}});

  // One E4 replica per fleet protocol, each with its own artifact
  // (BENCH_e4_<protocol>.json) and its own fitter gates: messages-per-RMR
  // and cycles-per-RMR must fit O(1) on both workloads under every
  // protocol — the paper's asymptotic classes are protocol-invariant.
  for (const std::string& proto : protocol_names()) {
    out.push_back(Experiment{
        "e4_" + proto,
        "Section 8 accounting under the " + proto + " state machine",
        e4_protocol_spec(proto),
        [proto](const SweepPoint& p) { return e4_protocol_runner(proto, p); },
        {decl("msgs." + proto + ".per_rmr", "cc", "flag-half-idle",
              Expectation::kO1),
         decl("msgs." + proto + ".per_rmr", "cc", "ping-pong",
              Expectation::kO1),
         decl("cycles." + proto + ".per_rmr", "cc", "flag-half-idle",
              Expectation::kO1),
         decl("cycles." + proto + ".per_rmr", "cc", "ping-pong",
              Expectation::kO1),
         decl("protocol.invariants_ok", "cc", "flag-half-idle"),
         decl("protocol.invariants_ok", "cc", "ping-pong")},
        {"ledger.total_rmrs", "msgs." + proto + ".total",
         "msgs." + proto + ".per_rmr", "cycles." + proto + ".total",
         "cycles." + proto + ".per_rmr", "protocol.invariants_ok"}});
  }

  out.push_back(Experiment{
      "e5", "Section 3 mutual exclusion anchors: RMRs per passage",
      e5_spec(), e5_runner,
      {decl("rmrs.per_passage", "dsm", "ya", Expectation::kThetaLogN),
       decl("rmrs.per_passage", "cc", "ya", Expectation::kThetaLogN),
       decl("rmrs.per_passage", "dsm", "mcs", Expectation::kO1),
       decl("rmrs.per_passage", "cc", "mcs", Expectation::kO1),
       decl("rmrs.per_passage", "cc", "anderson", Expectation::kO1),
       decl("rmrs.per_passage", "dsm", "anderson", Expectation::kOmegaW),
       decl("rmrs.per_passage", "cc", "clh", Expectation::kO1),
       decl("rmrs.per_passage", "dsm", "ticket", Expectation::kOmegaW),
       decl("rmrs.per_passage", "cc", "ticket"),
       decl("rmrs.per_passage", "dsm", "bakery"),
       decl("rmrs.per_passage", "cc", "bakery"),
       decl("rmrs.per_passage", "dsm", "peterson"),
       decl("rmrs.per_passage", "cc", "peterson")},
      {"rmrs.per_passage", "run.completed", "spec.ok"}});

  out.push_back(Experiment{
      "e6", "Corollary 6.14: the CAS transformation gives no escape",
      e6_spec(), e6_runner,
      {decl("adv.amortized", "dsm", "rw-cas-transformed",
            Expectation::kOmegaW),
       decl("adv.amortized", "dsm", "cas-raw"),
       decl("adv.in_scope", "dsm", "cas-raw")},
      {"adv.in_scope", "adv.stabilized", "adv.stable_waiters",
       "adv.signaler_rmrs", "adv.participants", "adv.amortized",
       "spec.ok"}});

  out.push_back(Experiment{
      "e7", "Definition 6.9 invariants along the part-1 construction",
      e7_spec(), e7_runner,
      {decl("adv.invariants_ok", "dsm", "registration", Expectation::kO1),
       decl("adv.amortized", "dsm", "registration")},
      // The per-round series (adv.*_by_round) stay in the artifact.
      {"adv.rounds", "adv.stabilized", "adv.invariants_ok",
       "adv.signaler_rmrs", "adv.participants", "adv.amortized",
       "spec.ok"}});

  out.push_back(Experiment{
      "e8", "CC policy ablation: flag signaling and the TAS lock",
      e8_spec(), e8_runner,
      {decl("rmrs.max_waiter", "cc", "flag", Expectation::kO1),
       decl("rmrs.max_waiter", "cc-wb", "flag", Expectation::kO1),
       decl("rmrs.max_waiter", "cc-mesi", "flag", Expectation::kO1),
       decl("rmrs.max_waiter", "cc-lfcu", "flag", Expectation::kO1),
       decl("rmrs.per_passage", "cc-lfcu", "tas", Expectation::kO1),
       decl("rmrs.per_passage", "cc", "tas"),
       // Fleet cycle ablation: amortized protocol cycles on the flag
       // workload stay O(1) per process under every state machine.
       decl("cycles.mesi.amortized", "cc", "flag", Expectation::kO1),
       decl("cycles.mesif.amortized", "cc", "flag", Expectation::kO1),
       decl("cycles.moesi.amortized", "cc", "flag", Expectation::kO1),
       decl("cycles.dragon.amortized", "cc", "flag", Expectation::kO1),
       decl("cycles.mesi.amortized", "cc", "tas"),
       decl("cycles.dragon.amortized", "cc", "tas")},
      {"rmrs.max_waiter", "rmrs.amortized", "rmrs.per_passage",
       "cycles.mesi.amortized", "cycles.mesif.amortized",
       "cycles.moesi.amortized", "cycles.dragon.amortized",
       "protocol.invariants_ok", "run.completed", "spec.ok"}});

  out.push_back(Experiment{
      "e9", "Crash/recovery: RMR cost of the recoverable lock under faults",
      e9_spec(), e9_runner,
      // N is fixed (the sweep axis is the fault plan), so there is no
      // growth series to fit — the artifact carries the raw points, and
      // --check reads their verdicts.
      {},
      {"run.completed", "run.passages_done", "rmrs.per_exit",
       "history.crashes", "history.recoveries", "crash.failed_recoveries",
       "crash.fifo_inversions", "spec.ok"}});

  out.push_back(Experiment{
      "t1_synth", "Trace workloads: synthetic sharing patterns, N axis",
      t1_synth_spec(), t1_synth_runner,
      {// Private streaming is the O(1)-per-op best case in both models.
       decl("rmrs.per_op", "cc", "private", Expectation::kO1),
       decl("rmrs.per_op", "dsm", "private", Expectation::kO1),
       // Hot-set writes under DSM: every touch of another module is an
       // RMR, and total work grows with N — a super-constant total.
       decl("ledger.total_rmrs", "dsm", "hotset", Expectation::kOmegaW),
       decl("rmrs.per_op", "dsm", "hotset"),
       decl("rmrs.per_op", "cc", "hotset"),
       decl("rmrs.per_op", "cc", "zipf"),
       decl("rmrs.per_op", "dsm", "zipf"),
       decl("rmrs.per_op", "cc", "migratory"),
       decl("rmrs.per_op", "cc", "ring")},
      {"trace.ops", "ledger.total_rmrs", "rmrs.per_op"}});

  out.push_back(Experiment{
      "t1_scale", "Trace workloads: zipf trace-length scaling + fleet",
      t1_scale_spec(), t1_scale_runner,
      {decl("rmrs.per_op", "cc", "zipf", Expectation::kO1),
       decl("rmrs.per_op", "dsm", "zipf", Expectation::kO1),
       decl("cycles.mesi.per_op", "cc", "zipf", Expectation::kO1),
       decl("cycles.moesi.per_op", "cc", "zipf", Expectation::kO1),
       decl("cycles.mesif.per_op", "cc", "zipf", Expectation::kO1),
       decl("cycles.dragon.per_op", "cc", "zipf", Expectation::kO1),
       decl("msgs.mesi.per_op", "cc", "zipf"),
       decl("protocol.invariants_ok", "cc", "zipf"),
       decl("protocol.invariants_ok", "dsm", "zipf")},
      {"ledger.total_rmrs", "rmrs.per_op", "cycles.mesi.per_op",
       "cycles.moesi.per_op", "cycles.mesif.per_op", "cycles.dragon.per_op",
       "protocol.invariants_ok"}});

  return out;
}

}  // namespace

const std::vector<Experiment>& all_experiments() {
  static const std::vector<Experiment> kExperiments = build_experiments();
  return kExperiments;
}

const Experiment* find_experiment(const std::string& name) {
  for (const Experiment& e : all_experiments()) {
    if (e.name == name) return &e;
  }
  return nullptr;
}

BenchArtifact make_artifact(const Experiment& exp, SweepResult result,
                            const std::string& generator) {
  BenchArtifact artifact;
  artifact.name = exp.name;
  artifact.title = exp.title;
  artifact.generator = generator;
  artifact.git = git_describe();
  artifact.result = std::move(result);
  for (const SeriesDecl& d : exp.series) {
    FittedSeries fs;
    fs.selector = d.selector;
    fs.series = extract_series(artifact.result, d.selector);
    // A capped grid can leave too few points to fit; drop the series
    // rather than fabricate a class from one point.
    if (fs.series.xs.size() < 2) continue;
    fs.fit = fit_growth_class(fs.series.xs, fs.series.ys);
    fs.expected = d.expected;
    fs.matches_expectation =
        !d.expected.has_value() || matches(*d.expected, fs.fit.cls);
    artifact.series.push_back(std::move(fs));
  }
  return artifact;
}

BenchArtifact run_experiment(const Experiment& exp, int workers,
                             const std::string& generator, int max_n) {
  SweepSpec spec = max_n > 0 ? exp.spec.capped_at(max_n) : exp.spec;
  return make_artifact(exp, run_sweep(spec, exp.runner, workers), generator);
}

bool verdicts_ok(const MetricsRegistry& reg) {
  // adv.in_scope is a classification, not a verdict: e6's cas-raw rows are
  // out of scope by design.
  static constexpr const char* kVerdicts[] = {
      "spec.ok", "run.completed", "protocol.invariants_ok",
      "adv.invariants_ok"};
  for (const char* v : kVerdicts) {
    if (reg.has_value(v) && reg.value(v) != 1.0) return false;
  }
  return true;
}

bool artifact_matches(const BenchArtifact& artifact) {
  for (const FittedSeries& fs : artifact.series) {
    if (!fs.matches_expectation) return false;
  }
  // A fit cannot see a verdict: a series stuck at 0 fits O(1) as well as
  // one stuck at 1. So every 0/1 verdict a point carries must read 1.
  for (const SweepPointResult& pr : artifact.result.points) {
    if (!verdicts_ok(pr.metrics)) return false;
  }
  return true;
}

std::string render_points_table(const Experiment& exp,
                                const BenchArtifact& artifact) {
  const bool show_plan = artifact.result.spec.fault_plans.size() > 1;
  std::vector<std::string> header{"algorithm", "model", "N"};
  if (show_plan) header.push_back("fault plan");
  header.insert(header.end(), exp.columns.begin(), exp.columns.end());
  TextTable t;
  t.set_header(std::move(header));
  for (const SweepPointResult& pr : artifact.result.points) {
    std::vector<std::string> row{pr.point.algorithm, pr.point.model,
                                 std::to_string(pr.point.n)};
    if (show_plan) {
      row.push_back(pr.point.fault_plan.empty() ? "none" : pr.point.fault_plan);
    }
    for (const std::string& c : exp.columns) {
      row.push_back(pr.metrics.has_value(c)
                        ? format_metric_number(pr.metrics.value(c))
                        : "-");
    }
    t.add_row(std::move(row));
  }
  return t.render();
}

std::string render_fit_table(const BenchArtifact& artifact) {
  if (artifact.series.empty()) return {};
  TextTable t;
  t.set_header({"metric", "model", "algorithm", "fitted class", "slope",
                "expected", "match"});
  for (const FittedSeries& fs : artifact.series) {
    char slope[32];
    std::snprintf(slope, sizeof slope, "%.3f", fs.fit.loglog_slope);
    t.add_row({fs.selector.metric, fs.selector.model, fs.selector.algorithm,
               to_string(fs.fit.cls), slope,
               fs.expected ? to_string(*fs.expected) : "-",
               fs.expected ? (fs.matches_expectation ? "ok" : "MISMATCH")
                           : "-"});
  }
  return t.render();
}

}  // namespace rmrsim
