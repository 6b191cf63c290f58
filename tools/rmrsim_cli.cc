// rmrsim — command-line driver.
//
// Run any algorithm under any model and get the ledgers, per-call costs,
// spec verdicts, or full traces without writing a harness:
//
//   rmrsim_cli signal    --alg registration --model dsm --waiters 32
//                        --delay 64 --seed 7 [--trace timeline|csv|json]
//   rmrsim_cli mutex     --lock mcs --model cc-wb --procs 16 --passages 4
//   rmrsim_cli adversary --alg registration --n 64 [--lenient] [--no-erase]
//   rmrsim_cli gme       --procs 16 --sessions 2 --passages 3
//   rmrsim_cli trace     --gen zipf --ops 1000000 --procs 32 --protocols all
//
// Models: dsm | cc | cc-wb | cc-mesi | cc-lfcu.
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <memory>
#include <string>

#include "coherence/fleet.h"
#include "common/check.h"
#include "common/crc32.h"
#include "common/fsio.h"
#include "common/table.h"
#include "gme/session_gme.h"
#include "harness/drive.h"
#include "harness/experiments.h"
#include "lowerbound/adversary.h"
#include "mutex/mcs_lock.h"
#include "sched/schedulers.h"
#include "signaling/workload.h"
#include "trace/call_stats.h"
#include "trace/export.h"
#include "verify/checkpoint.h"
#include "verify/dist/pool.h"
#include "verify/dist/worker.h"
#include "verify/dpor.h"
#include "verify/explorer.h"
#include "verify/shrink.h"
#include "workload/generators.h"
#include "workload/replay.h"
#include "workload/trace.h"

using namespace rmrsim;

namespace {

constexpr long kIntMax = std::numeric_limits<int>::max();
constexpr long kLongMax = std::numeric_limits<long>::max();

struct Args {
  std::map<std::string, std::string> kv;
  std::map<std::string, bool> flags;

  std::string get(const std::string& key, const std::string& def) const {
    auto it = kv.find(key);
    return it == kv.end() ? def : it->second;
  }
  /// Strict: a present-but-malformed value is a one-line error and exit 1
  /// (via main's catch), never a silent 0 the way atol would read it.
  long get_int(const std::string& key, long def) const {
    auto it = kv.find(key);
    if (it == kv.end()) return def;
    const std::string& v = it->second;
    char* end = nullptr;
    errno = 0;
    const long n = std::strtol(v.c_str(), &end, 10);
    ensure(!v.empty() && end != nullptr && *end == '\0' && errno == 0,
           "--" + key + " expects an integer, got '" + v + "'");
    return n;
  }
  /// Bounded: the value must land in [lo, hi]. Every call site that narrows
  /// to int goes through this, so an out-of-range value is a loud error —
  /// previously `--waiters 4294967296` truncated through static_cast<int>
  /// to 0 and ran a silently different experiment.
  long get_int(const std::string& key, long def, long lo, long hi) const {
    const long n = get_int(key, def);
    ensure(n >= lo && n <= hi,
           "--" + key + " must be in [" + std::to_string(lo) + ", " +
               std::to_string(hi) + "], got " + std::to_string(n));
    return n;
  }
  bool has(const std::string& flag) const { return flags.count(flag) != 0; }
};

Args parse(int argc, char** argv, int first) {
  Args a;
  for (int i = first; i < argc; ++i) {
    std::string s = argv[i];
    if (s.rfind("--", 0) != 0) continue;
    s = s.substr(2);
    if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
      a.kv[s] = argv[++i];
    } else {
      a.flags[s] = true;
    }
  }
  return a;
}

/// Subcommands that drive Poll() refuse a Wait()-only --alg before any
/// work, rather than fail deep inside its poll(): a named error, exit 2.
bool refuses_alg(const char* what, const std::string& alg) {
  if (signal_alg_polls(alg)) return false;
  std::fprintf(stderr,
               "error: %s drives Poll(), which --alg %s does not implement "
               "(algorithms with Poll(): %s)\n",
               what, alg.c_str(), polling_signal_alg_names());
  return true;
}

/// The --protocols list: "all" (or the bare flag) or a comma list of
/// names; the fleet rejects unknown ones.
std::vector<std::string> protocols_arg(const Args& a) {
  const std::string spec =
      a.get("protocols", a.has("protocols") ? "all" : "");
  if (spec == "all") return protocol_names();
  std::vector<std::string> names;
  std::stringstream ss(spec);
  std::string tok;
  while (std::getline(ss, tok, ',')) {
    if (!tok.empty()) names.push_back(tok);
  }
  return names;
}

// --protocols [all|name,name,...] [--write-buffer N] [--cycle-cost ...]:
// ride the run with snooping-protocol state machines (optionally behind a
// store buffer) and print their message/cycle tallies afterwards.
ProtocolFleet make_protocol_fleet(const Args& a, int nprocs) {
  return ProtocolFleet(
      nprocs, protocols_arg(a), /*legacy_counters=*/false,
      static_cast<int>(a.get_int("write-buffer", 0, 0, kIntMax)),
      parse_cycle_costs(a.get("cycle-cost", "")));
}

/// The metric/value table of a signal or mutex run: `rows` of `reg`, then
/// the --protocols fleet's, skipping any the registry does not carry. signal
/// and mutex publish through the sweep runners' publishers, so each row is
/// the metric a sweep point of the same configuration carries, printed as
/// BENCH_*.json prints it; their exit code is that registry's verdicts_ok.
TextTable run_table(const MetricsRegistry& reg, std::vector<std::string> rows,
                    const Args& a) {
  for (const std::string& p : protocols_arg(a)) {
    for (const char* m : {"transfers", "invalidations", "updates", "total"}) {
      rows.push_back("msgs." + p + "." + m);
    }
    rows.push_back("cycles." + p + ".total");
  }
  rows.insert(rows.end(), {"wb.buffered", "wb.coalesced", "wb.forwarded",
                           "wb.drained", "protocol.invariants_ok"});
  TextTable t;
  t.set_header({"metric", "value"});
  for (const std::string& name : rows) {
    if (reg.has_value(name)) {
      t.add_row({name, format_metric_number(reg.value(name))});
    }
  }
  return t;
}

int cmd_signal(const Args& a) {
  const std::string alg = a.get("alg", "flag");
  if (!a.has("blocking") && refuses_alg("signal without --blocking", alg)) {
    return 2;
  }
  const int waiters = static_cast<int>(a.get_int("waiters", 8, 1, kIntMax - 1));
  const int nprocs = waiters + 1;
  SignalingWorkloadOptions opt;
  opt.n_waiters = waiters;
  opt.signaler_idle_polls =
      static_cast<int>(a.get_int("delay", 16, 0, kIntMax));
  opt.scheduler_seed =
      static_cast<std::uint64_t>(a.get_int("seed", 0, 0, kLongMax));
  opt.blocking = a.has("blocking");
  if (opt.blocking) opt.signaler_idle_polls = 0;
  ProtocolFleet fleet = make_protocol_fleet(a, nprocs);
  opt.listener = fleet.listener();
  // The registration variant's fixed signaler state lives with the actual
  // signaler, process nprocs-1.
  auto run = run_signaling_workload(
      make_model_by_name(a.get("model", "dsm"), nprocs),
      make_signal_factory_by_name(alg, nprocs - 1), opt);
  MetricsRegistry reg;
  const auto violation = publish_signaling_run(reg, run, opt.blocking);
  fleet.publish(reg);
  if (violation) {
    std::fprintf(stderr, "signal: spec violated: %s\n",
                 violation->what.c_str());
  }

  const std::string trace = a.get("trace", "");
  if (trace == "csv") {
    write_history_csv(std::cout, run.sim->history());
  } else if (trace == "json") {
    write_history_json_lines(std::cout, run.sim->history());
  } else {
    if (trace == "timeline") {
      std::fputs(history_timeline(run.sim->history()).c_str(), stdout);
    }
    std::printf("algorithm %s, model %s, %d waiters + 1 signaler\n",
                run.alg->name().data(), run.mem->model().name().data(),
                waiters);
    TextTable t = run_table(reg,
                            {"history.steps", "ledger.total_rmrs",
                             "rmrs.max_waiter", "rmrs.signaler",
                             "rmrs.amortized", "spec.ok"},
                            a);
    // Not a published metric: adding it to the registry would change every
    // E1/E3/E8 point's metric set.
    t.add_row({"steady-state poll RMRs (max)",
               std::to_string(max_rmrs_from_index(
                   per_call_costs(run.sim->history()), calls::kPoll, 1))});
    std::fputs(t.render().c_str(), stdout);
  }
  return verdicts_ok(reg) ? 0 : 1;
}

int cmd_mutex(const Args& a) {
  MutexRunOptions opt;
  opt.nprocs = static_cast<int>(a.get_int("procs", 8, 1, kIntMax));
  opt.passages = static_cast<int>(a.get_int("passages", 3, 1, kIntMax));
  opt.model = a.get("model", "dsm");
  opt.make_lock = lock_factory_by_name(a.get("lock", "mcs"));
  opt.seed = static_cast<std::uint64_t>(a.get_int("seed", 0, 0, kLongMax));
  opt.fault_plan = a.get("fault-plan", "");
  // A crashed non-recoverable lock wedges forever; --max-steps bounds how
  // long we spin before reporting run.completed 0.
  opt.max_steps = static_cast<std::uint64_t>(
      a.get_int("max-steps", 500'000'000, 0, kLongMax));
  ProtocolFleet fleet = make_protocol_fleet(a, opt.nprocs);
  opt.listener = fleet.listener();
  const MutexRunOutcome o = run_mutex_workload(opt);
  MetricsRegistry reg;
  if (opt.fault_plan.empty()) {
    publish_mutex_run(reg, o);
  } else {
    publish_crash_run(reg, o);
  }
  fleet.publish(reg);
  if (o.violation) {
    std::fprintf(stderr, "mutex: mutual exclusion violated: %s\n",
                 o.violation->what.c_str());
  }
  std::printf("lock %s, model %s, %d procs x %d passages\n",
              o.world.lock->name().data(), o.world.mem->model().name().data(),
              opt.nprocs, opt.passages);
  // crash.fifo_inversions is reported, not asserted: crashes legitimately
  // reorder waiters.
  const TextTable t = run_table(
      reg,
      {"history.steps", "ledger.total_rmrs", "rmrs.per_passage",
       "run.passages_done", "rmrs.per_exit", "history.crashes",
       "history.recoveries", "crash.failed_recoveries",
       "crash.fifo_inversions", "run.completed", "spec.ok"},
      a);
  std::fputs(t.render().c_str(), stdout);
  return verdicts_ok(reg) ? 0 : 1;
}

/// Reads --golden FILE before the run, so a bad path fails in milliseconds
/// rather than after the measurement. False (after saying why) if `path` is
/// set but unreadable; `cmd` names the subcommand.
bool read_golden(const char* cmd, const std::string& path,
                 std::string& bytes) {
  if (path.empty()) return true;
  std::optional<std::string> read = read_file(path);
  if (read) {
    bytes = std::move(*read);
    return true;
  }
  std::fprintf(stderr,
               "%s --golden: cannot read '%s' (no such file or not "
               "readable)\n",
               cmd, path.c_str());
  return false;
}

/// Byte-compares an artifact's JSON against the golden read_golden read.
/// Returns false (after saying why) on a mismatch, true on a match or when
/// no --golden was given.
bool golden_matches(const char* cmd, const std::string& path,
                    const std::string& golden, const std::string& json) {
  if (path.empty()) return true;
  if (golden != json) {
    std::fprintf(stderr,
                 "%s --golden: artifact differs from %s — the measured "
                 "results changed (run with RMRSIM_GIT_DESCRIBE pinned and "
                 "--deterministic to reproduce byte-exactly)\n",
                 cmd, path.c_str());
    return false;
  }
  std::printf("golden match: %s\n", path.c_str());
  return true;
}

int cmd_sweep(const Args& a) {
  if (a.has("list")) {
    TextTable t;
    t.set_header({"name", "grid", "title"});
    for (const Experiment& e : all_experiments()) {
      t.add_row({e.name, std::to_string(e.spec.grid_size()) + " points",
                 e.title});
    }
    std::fputs(t.render().c_str(), stdout);
    return 0;
  }
  const std::string name = a.get("exp", "");
  const Experiment* exp = find_experiment(name);
  if (exp == nullptr) {
    std::fprintf(stderr,
                 "sweep needs --exp <e1..e9> (or --list); got '%s'\n",
                 name.c_str());
    return 2;
  }
  const int workers = static_cast<int>(a.get_int("workers", 1, 1, kIntMax));
  const int max_n = static_cast<int>(a.get_int("max-n", 0, 0, kIntMax));
  const std::string out_dir = a.get("out", ".");
  ensure_dir(out_dir);
  const std::string golden_path = a.get("golden", "");
  std::string golden;
  if (!read_golden("sweep", golden_path, golden)) return 3;
  const BenchArtifact artifact =
      run_experiment(*exp, workers, "rmrsim_cli sweep", max_n);
  std::printf("experiment %s: %zu points, %d workers, %.1f ms\n%s\n",
              exp->name.c_str(), artifact.result.points.size(),
              artifact.result.workers, artifact.result.wall_ms,
              exp->title.c_str());
  std::fputs(render_points_table(*exp, artifact).c_str(), stdout);
  std::fputs(render_fit_table(artifact).c_str(), stdout);
  // --deterministic omits the run-environment fields (wall time, workers),
  // so the written artifact is byte-stable for a given grid + git field —
  // the form the committed golden files are compared against.
  const bool deterministic = a.has("deterministic");
  const std::string path =
      write_artifact(artifact, out_dir, !deterministic);
  std::printf("wrote %s\n", path.c_str());
  if (!golden_matches("sweep", golden_path, golden,
                      artifact_to_json(artifact, !deterministic))) {
    return 3;
  }
  if (a.has("check") && !artifact_matches(artifact)) {
    std::fprintf(stderr,
                 "sweep --check: a fitted class disagrees with the paper's "
                 "claim (see MISMATCH rows) or a point's verdict "
                 "(spec.ok, run.completed, *.invariants_ok) is not 1\n");
    return 1;
  }
  return 0;
}

// trace: parse or synthesize a multi-core memory trace and replay it
// through every requested cost model (and, optionally, the protocol
// fleet). The model grid runs through the sweep engine, so the artifact is
// byte-identical for any --workers count; --deterministic + --golden give
// the same byte-compare regression gate the sweep experiments have.
int cmd_trace(const Args& a) {
  const std::string gen = a.get("gen", "");
  const std::string in = a.get("in", "");
  if (gen.empty() == in.empty()) {
    std::fprintf(stderr,
                 "trace needs exactly one of --gen <kind> or --in <file>\n");
    return 2;
  }
  Trace trace;
  std::string source;
  if (!gen.empty()) {
    ensure(is_generator_name(gen),
           "--gen: unknown generator '" + gen +
               "' (want private|hotset|zipf|ring|migratory)");
    GenSpec g;
    g.kind = gen;
    const long procs = a.get_int("procs", 16, 1, kIntMax);
    const long ops = a.get_int("ops", 100000, 1, kLongMax);
    g.procs = static_cast<int>(procs);
    g.ops = static_cast<std::uint64_t>(ops);
    g.seed = static_cast<std::uint64_t>(a.get_int("seed", 1, 0, kLongMax));
    trace = generate_trace(g);
    source = gen;
  } else {
    trace = load_trace_file(in);
    source = "file";
  }
  const std::string emit = a.get("emit", "");
  if (!emit.empty()) {
    save_trace_file(emit, trace, a.has("binary"));
    std::printf("wrote trace %s (%zu ops, %d procs)\n", emit.c_str(),
                trace.ops.size(), trace.nprocs);
    if (a.has("no-replay")) return 0;
  }

  ReplayOptions opts;
  opts.addr_map = parse_addr_map(a.get("addr-map", "interleave"));
  opts.costs = parse_cycle_costs(a.get("cycle-cost", ""));
  opts.write_buffer =
      static_cast<int>(a.get_int("write-buffer", 0, 0, kIntMax));
  opts.legacy_counters = a.has("legacy-counters");
  opts.protocols = protocols_arg(a);

  const std::string mspec = a.get("models", "all");
  std::vector<std::string> models;
  if (mspec == "all") {
    models = {"dsm", "cc", "cc-wb", "cc-mesi", "cc-lfcu"};
  } else {
    std::stringstream ss(mspec);
    std::string tok;
    while (std::getline(ss, tok, ',')) {
      if (tok.empty()) continue;
      ensure(is_model_name(tok), "--models: unknown model '" + tok +
                                     "' (want dsm|cc|cc-wb|cc-mesi|cc-lfcu)");
      models.push_back(tok);
    }
    ensure(!models.empty(), "--models: empty model list");
  }

  const std::string golden_path = a.get("golden", "");
  std::string golden;
  if (!read_golden("trace", golden_path, golden)) return 3;

  SweepSpec spec;
  spec.name = "t1_" + source;
  spec.models = models;
  spec.algorithms = {source};
  spec.ns = {trace.nprocs};
  const int workers = static_cast<int>(a.get_int("workers", 1, 1, kIntMax));
  const SweepResult result = run_sweep(
      spec,
      [&trace, &opts](const SweepPoint& p) {
        auto mem = make_model_by_name(p.model, trace.nprocs);
        return replay_trace(trace, *mem, opts);
      },
      workers);

  std::printf("trace %s: %zu ops, %d procs, %zu vars, addr-map %s\n",
              source.c_str(), trace.ops.size(), trace.nprocs,
              result.points.empty()
                  ? std::size_t{0}
                  : static_cast<std::size_t>(
                        result.points[0].metrics.value("trace.vars")),
              to_string(opts.addr_map).c_str());
  bool invariants_ok = true;
  TextTable t;
  std::vector<std::string> header = {"model", "rmrs", "rmrs/op"};
  for (const std::string& p : opts.protocols) header.push_back(p + " cycles");
  if (!opts.protocols.empty()) header.push_back("invariants");
  t.set_header(header);
  for (const SweepPointResult& pr : result.points) {
    std::vector<std::string> row = {
        pr.point.model,
        std::to_string(
            static_cast<std::uint64_t>(pr.metrics.value("ledger.total_rmrs"))),
        std::to_string(pr.metrics.value("rmrs.per_op"))};
    for (const std::string& p : opts.protocols) {
      row.push_back(std::to_string(static_cast<std::uint64_t>(
          pr.metrics.value("cycles." + p + ".total"))));
    }
    if (!opts.protocols.empty()) {
      const bool ok = pr.metrics.value("protocol.invariants_ok") != 0.0;
      if (!ok) invariants_ok = false;
      row.push_back(ok ? "ok" : "VIOLATED");
    }
    t.add_row(row);
  }
  std::fputs(t.render().c_str(), stdout);

  BenchArtifact artifact;
  artifact.name = spec.name;
  artifact.title = "trace replay: " + source + " through " +
                   std::to_string(models.size()) + " cost model(s)";
  artifact.generator = "rmrsim_cli trace";
  artifact.git = git_describe();
  artifact.result = result;
  const bool deterministic = a.has("deterministic");
  const std::string out_dir = a.get("out", ".");
  ensure_dir(out_dir);
  const std::string path = write_artifact(artifact, out_dir, !deterministic);
  std::printf("wrote %s\n", path.c_str());
  if (!golden_matches("trace", golden_path, golden,
                      artifact_to_json(artifact, !deterministic))) {
    return 3;
  }
  if (!invariants_ok) {
    std::fprintf(stderr, "trace: protocol invariants violated\n");
    return 1;
  }
  return 0;
}

int cmd_adversary(const Args& a) {
  const std::string alg = a.get("alg", "registration");
  if (refuses_alg("adversary", alg)) return 2;
  const int n = static_cast<int>(a.get_int("n", 32, 3, kIntMax));
  AdversaryConfig c;
  c.nprocs = n;
  c.construction =
      a.has("lenient") ? Construction::kLenient : Construction::kStrict;
  c.erase_during_chase = !a.has("no-erase");
  const std::string model = a.get("model", "dsm");
  if (model != "dsm") {
    c.make_memory = [model](int k) { return make_model_by_name(model, k); };
    c.construction = Construction::kLenient;  // strict requires DSM
  }
  // The registration variant's fixed signaler state lives with a waiter,
  // process n-2: the Lemma 6.13 signaler must have an unwritten module.
  SignalingAdversary adv(
      make_signal_factory_by_name(alg, n - 2), c);
  const auto report = adv.run();
  std::fputs(report.to_string().c_str(), stdout);
  return report.spec_violation ? 1 : 0;
}

int cmd_gme(const Args& a) {
  const int nprocs = static_cast<int>(a.get_int("procs", 8, 1, kIntMax));
  const int passages = static_cast<int>(a.get_int("passages", 3, 1, kIntMax));
  const int n_sessions =
      static_cast<int>(a.get_int("sessions", 2, 1, kIntMax));
  auto mem = make_model_by_name(a.get("model", "dsm"), nprocs);
  SessionGme alg(*mem, std::make_unique<McsLock>(*mem));
  std::vector<Program> programs;
  for (int i = 0; i < nprocs; ++i) {
    std::vector<Word> sessions = {i / std::max(1, nprocs / n_sessions)};
    programs.emplace_back([&alg, passages, sessions](ProcCtx& ctx) {
      return gme_worker(ctx, &alg, passages, sessions, /*cs_dwell=*/20);
    });
  }
  Simulation sim(*mem, std::move(programs));
  RoundRobinScheduler rr;
  const auto result = sim.run(rr, 500'000'000);
  const auto violation = check_gme_safety(sim.history());
  TextTable t;
  t.set_header({"metric", "value"});
  t.add_row({"completed", result.all_terminated ? "yes" : "NO"});
  t.add_row({"max CS occupancy",
             std::to_string(max_cs_occupancy(sim.history()))});
  t.add_row({"RMRs/passage",
             fixed(static_cast<double>(mem->ledger().total_rmrs()) /
                   static_cast<double>(nprocs * passages))});
  t.add_row({"session safety",
             violation ? "VIOLATED: " + violation->what : "ok"});
  std::fputs(t.render().c_str(), stdout);
  return violation ? 1 : 0;
}

std::string schedule_str(const std::vector<ProcId>& s) {
  std::string out;
  for (const ProcId p : s) {
    if (!out.empty()) out += ' ';
    out += std::to_string(p);
  }
  return out;
}

// Model-check a small configuration: DPOR exploration of every schedule
// class up to --depth, shrinking any counterexample (--shrink). The world
// and its checker come from harness/drive.h, where the model-checking tests
// build theirs; the builder is called once per tree node (and concurrently
// when --workers > 1), so it closes over nothing mutable.
int cmd_explore(const Args& a, const char* argv0) {
  // Hidden worker mode (sharded exploration): this process was exec'd by a
  // coordinator's DistPool with the pipe protocol on stdin/stdout. Steal
  // stdout for the protocol immediately and point fd 1 at stderr, so the
  // banner printfs below (and anything else that writes to stdout) cannot
  // corrupt a frame.
  const bool dist_worker = a.has("dist-worker");
  int proto_out = -1;
  if (dist_worker) {
    proto_out = ::dup(1);
    ensure(proto_out >= 0, "--dist-worker: dup(stdout) failed");
    ::dup2(2, 1);
  }

  const std::string target = a.get("target", "signal");
  const std::string model = a.get("model", "dsm");

  ExploreBuilder build;
  ExploreChecker check;
  // Canonical description of everything that determines the search results;
  // FNV-hashed into the checkpoint fingerprint so a checkpoint written under
  // one configuration refuses to resume under another. Worker count is
  // deliberately absent: verdicts are worker-count-invariant.
  std::string fp_src;
  if (target == "signal") {
    const std::string alg = a.get("alg", "registration");
    if (refuses_alg("explore --target signal", alg)) return 2;
    const int waiters =
        static_cast<int>(a.get_int("waiters", 2, 1, kIntMax - 1));
    const int polls = static_cast<int>(a.get_int("polls", 1, 0, kIntMax));
    // The registration variant's fixed signaler state lives with the
    // actual signaler, process `waiters`.
    build = signaling_explore_builder(
        model, make_signal_factory_by_name(alg, waiters), waiters, polls);
    check = polling_spec_checker();
    std::printf("explore signal: alg %s, model %s, %d waiters x %d polls\n",
                alg.c_str(), model.c_str(), waiters, polls);
    fp_src = "signal|alg=" + alg + "|model=" + model + "|waiters=" +
             std::to_string(waiters) + "|polls=" + std::to_string(polls);
  } else if (target == "mutex") {
    const int nprocs = static_cast<int>(a.get_int("procs", 2, 1, kIntMax));
    const int passages =
        static_cast<int>(a.get_int("passages", 1, 1, kIntMax));
    const std::string lock_name = a.get("lock", "tas");
    build = mutex_explore_builder(model, lock_factory_by_name(lock_name),
                                  nprocs, passages);
    check = mutual_exclusion_checker();
    std::printf("explore mutex: lock %s, model %s, %d procs x %d passages\n",
                lock_name.c_str(), model.c_str(), nprocs, passages);
    fp_src = "mutex|lock=" + lock_name + "|model=" + model + "|procs=" +
             std::to_string(nprocs) + "|passages=" + std::to_string(passages);
  } else {
    std::fprintf(stderr, "unknown explore target '%s' (signal|mutex)\n",
                 target.c_str());
    return 2;
  }

  DporOptions opt;
  opt.max_depth = static_cast<int>(a.get_int("depth", 20, 1, kIntMax));
  opt.max_nodes =
      static_cast<std::uint64_t>(a.get_int("max-nodes", 2'000'000, 0, kLongMax));
  opt.workers = static_cast<int>(a.get_int("workers", 1, 1, kIntMax));
  opt.trunk_depth = static_cast<int>(a.get_int("trunk-depth", 6, 0, kIntMax));
  opt.item_max_attempts =
      static_cast<int>(a.get_int("item-attempts", 3, 1, kIntMax));
  opt.retry_backoff_ms =
      static_cast<std::uint64_t>(a.get_int("backoff-ms", 1, 0, kLongMax));
  opt.item_node_limit =
      static_cast<std::uint64_t>(a.get_int("item-step-limit", 0, 0, kLongMax));
  // Deterministic worker-death injection for the robustness harness: the
  // first attempt of every item whose root schedule hashes to 0 mod N dies;
  // retries succeed. Independent of worker count and timing.
  const long inject_every =
      a.get_int("inject-worker-failures", 0, 0, kLongMax);
  if (inject_every > 0) {
    opt.inject_item_failure = [inject_every](const std::vector<ProcId>& sched,
                                             int attempt) {
      if (attempt > 1) return false;
      std::string key;
      for (const ProcId p : sched) {
        key += std::to_string(p);
        key += ',';
      }
      return fnv1a64(key) %
                 static_cast<std::uint64_t>(inject_every) == 0;
    };
  }

  // "|mode=snapshot" names the reconstruction engine the CLI no longer
  // lets one choose; kept so checkpoints written before stay resumable.
  fp_src += "|mode=snapshot|depth=" + std::to_string(opt.max_depth) +
            "|max-nodes=" + std::to_string(opt.max_nodes) + "|trunk-depth=" +
            std::to_string(opt.trunk_depth) + "|item-attempts=" +
            std::to_string(opt.item_max_attempts) + "|item-step-limit=" +
            std::to_string(opt.item_node_limit) + "|inject=" +
            std::to_string(inject_every);
  // Deliberately absent from fp_src, like the worker count: --shards only
  // moves where items run, so coordinator and workers fingerprint-match and
  // checkpoints stay valid across shard counts.

  if (dist_worker) {
    return dist::run_dist_worker(build, check, opt, fnv1a64(fp_src),
                                 /*in_fd=*/0, proto_out);
  }

  // Sharded coordinator: --shards S forks S worker processes (this binary,
  // re-exec'd with the same explore flags plus --dist-worker) and runs every
  // work item out-of-process. Coordinator-only flags are stripped from the
  // worker argv; everything that determines the search is forwarded, and the
  // hello handshake cross-checks the fingerprints.
  std::optional<dist::DistPool> pool;
  if (a.kv.count("shards") != 0 || a.has("shards")) {
    const int shards = static_cast<int>(a.get_int("shards", 1, 1, 256));
    std::vector<std::string> wargv;
    char self[4096];
    const ssize_t n = ::readlink("/proc/self/exe", self, sizeof self - 1);
    if (n > 0) {
      self[n] = '\0';
      wargv.push_back(self);
    } else {
      wargv.push_back(argv0);
    }
    wargv.push_back("explore");
    static const std::set<std::string> coordinator_only = {
        "shards", "checkpoint-dir", "resume", "report",
        "snapshot-stats", "shrink"};
    for (const auto& [k, v] : a.kv) {
      if (coordinator_only.count(k) != 0) continue;
      wargv.push_back("--" + k);
      wargv.push_back(v);
    }
    for (const auto& [k, on] : a.flags) {
      if (!on || coordinator_only.count(k) != 0) continue;
      wargv.push_back("--" + k);
    }
    wargv.push_back("--dist-worker");

    dist::DistPool::Config pc;
    pc.shards = shards;
    pc.worker_argv = std::move(wargv);
    pc.fingerprint = fnv1a64(fp_src);
    pc.item_max_attempts = opt.item_max_attempts;
    pool.emplace(std::move(pc));
    opt.dist = &*pool;
  }

  // Persistent frontier: --checkpoint-dir D records progress into D (a
  // fresh run wipes stale epochs first); --resume D loads the newest valid
  // epoch and continues. Checkpoint bookkeeping prints to stderr so stdout
  // and --report stay byte-identical between interrupted and uninterrupted
  // runs.
  std::optional<ExploreCheckpoint> ckpt;
  const bool resume = a.kv.count("resume") != 0;
  const std::string ck_dir =
      resume ? a.get("resume", "") : a.get("checkpoint-dir", "");
  if (resume && ck_dir.empty()) {
    std::fprintf(stderr, "--resume expects a checkpoint directory\n");
    return 2;
  }
  if (!ck_dir.empty()) {
    ExploreCheckpoint::Config cfg;
    cfg.dir = ck_dir;
    cfg.fingerprint = fnv1a64(fp_src);
    cfg.flush_interval =
        static_cast<int>(a.get_int("checkpoint-interval", 8, 1, kIntMax));
    if (const char* kill_at = std::getenv("RMRSIM_KILL_AFTER_EPOCH")) {
      // Self-fault injection for the resume harness: die by SIGKILL the
      // instant the N-th epoch is durably on disk. A malformed value is a
      // loud error, not a silent strtoull 0 (= die at the first epoch).
      char* end = nullptr;
      errno = 0;
      const unsigned long long at = std::strtoull(kill_at, &end, 10);
      ensure(*kill_at != '\0' && end != nullptr && *end == '\0' &&
                 errno == 0,
             std::string("RMRSIM_KILL_AFTER_EPOCH expects an integer, "
                         "got '") +
                 kill_at + "'");
      cfg.on_epoch_written = [at](std::uint64_t epoch) {
        if (epoch >= at) raise(SIGKILL);
      };
    }
    ckpt.emplace(std::move(cfg));
    if (resume) {
      const ExploreCheckpoint::LoadReport rep = ckpt->load_latest();
      for (const std::string& d : rep.discarded) {
        std::fprintf(stderr, "resume: discarded %s\n", d.c_str());
      }
      std::fprintf(stderr,
                   "resume: epoch %llu, %zu item outcomes, %zu quarantined\n",
                   static_cast<unsigned long long>(rep.epoch), rep.outcomes,
                   rep.quarantined);
    } else {
      ckpt->reset();
    }
    opt.checkpoint = &*ckpt;
  }

  const ExploreResult dpor = explore_dpor(build, check, opt);

  if (ckpt.has_value()) {
    std::fprintf(stderr,
                 "checkpoint: %llu epochs written, %llu item hits, "
                 "%llu worker failures, %llu retries\n",
                 static_cast<unsigned long long>(
                     dpor.stats.checkpoint_epochs),
                 static_cast<unsigned long long>(
                     dpor.stats.checkpoint_item_hits),
                 static_cast<unsigned long long>(dpor.stats.worker_failures),
                 static_cast<unsigned long long>(dpor.stats.item_retries));
  }

  TextTable t;
  t.set_header({"metric", "dpor"});
  t.add_row({"nodes visited", std::to_string(dpor.nodes_visited)});
  t.add_row({"complete schedules", std::to_string(dpor.complete_schedules)});
  t.add_row({"truncated schedules", std::to_string(dpor.truncated_schedules)});
  const std::string stopped = dpor.quarantined_items.empty()
                                  ? "max-nodes hit"
                                  : "items quarantined";
  t.add_row({"exhausted", dpor.exhausted ? "yes" : "NO (" + stopped + ")"});
  t.add_row({"sleep-set prunes", std::to_string(dpor.stats.sleep_set_prunes)});
  t.add_row({"backtrack points", std::to_string(dpor.stats.backtrack_points)});
  t.add_row({"replayed sim steps", std::to_string(dpor.stats.replayed_steps)});
  t.add_row({"naive tree estimate", fixed(dpor.stats.naive_tree_estimate)});
  if (opt.workers > 1) {
    t.add_row({"parallel rounds", std::to_string(dpor.stats.rounds)});
    t.add_row({"work items", std::to_string(dpor.stats.work_items)});
  }
  if (a.has("snapshot-stats")) {
    t.add_row({"snapshot hits", std::to_string(dpor.stats.snapshot_hits)});
    t.add_row({"snapshot misses", std::to_string(dpor.stats.snapshot_misses)});
    t.add_row({"snapshots taken", std::to_string(dpor.stats.snapshots_taken)});
    t.add_row(
        {"snapshot evictions", std::to_string(dpor.stats.snapshot_evictions)});
    t.add_row({"snapshot delta steps",
               std::to_string(dpor.stats.snapshot_delta_steps)});
    t.add_row({"snapshot peak bytes",
               std::to_string(dpor.stats.snapshot_peak_bytes)});
  }
  // A clean search proves nothing past what it searched, so the verdict of
  // a search that stopped early, or that cut schedules at the depth bound,
  // says so (the exit code stays 0).
  std::string verdict = "no violation";
  if (dpor.violation) {
    verdict = "VIOLATED: " + *dpor.violation;
  } else if (!dpor.exhausted) {
    verdict = "no violation found, search incomplete (" + stopped + ")";
  } else if (dpor.truncated_schedules > 0) {
    verdict = "clean within depth " + std::to_string(opt.max_depth) + ", " +
              std::to_string(dpor.truncated_schedules) +
              " truncated schedules";
  }
  t.add_row({"verdict", verdict});

  // The report is one deterministic string: printed to stdout and, with
  // --report FILE, atomically written for byte-comparison by the resume
  // harness. Interrupted-and-resumed runs must reproduce it exactly.
  std::string report = t.render();
  for (const ExploreResult::QuarantinedItem& q : dpor.quarantined_items) {
    report += "quarantined item (" + std::to_string(q.schedule.size()) +
              " steps): " + schedule_str(q.schedule) + " — " + q.reason +
              "\n";
  }
  if (dpor.violation) {
    report += "violating schedule (" +
              std::to_string(dpor.violating_schedule.size()) +
              " steps): " + schedule_str(dpor.violating_schedule) + "\n";
    if (a.has("shrink")) {
      const auto shrunk =
          shrink_counterexample(build, check, dpor.violating_schedule);
      if (shrunk.has_value()) {
        report += "shrunk to " + std::to_string(shrunk->schedule.size()) +
                  " steps (" + std::to_string(shrunk->candidates_tried) +
                  " candidates tried): " + schedule_str(shrunk->schedule) +
                  "\n";
      }
    }
  }
  std::fputs(report.c_str(), stdout);
  const std::string report_path = a.get("report", "");
  if (!report_path.empty()) write_file_atomic(report_path, report);

  return dpor.violation ? 1 : 0;
}

void usage() {
  std::fputs(
      "usage: rmrsim_cli <signal|mutex|adversary|gme|explore|sweep|trace> "
      "[--key value ...]\n"
      "  signal    --alg A --model M --waiters N --delay D --seed S\n"
      "            [--blocking] [--trace timeline|csv|json]\n"
      "            [--protocols all|mesi,mesif,moesi,dragon]\n"
      "            [--write-buffer N]  (per-proc store buffer in front of\n"
      "                       the protocols; N entries, TSO drain order)\n"
      "            [--cycle-cost ...]  (protocol cycle costs, as for trace)\n"
      "  mutex     --lock L --model M --procs N --passages K --seed S\n"
      "            [--protocols ...] [--write-buffer N] [--cycle-cost ...]\n"
      "                       (as for signal)\n"
      "            L: mcs|ya|anderson|ticket|tas|clh|bakery|peterson|\n"
      "               recoverable\n"
      "            [--fault-plan step:proc=P,n=N[,recover=R]\n"
      "                        | rmr:proc=P,n=N[,recover=R]\n"
      "                        | random:rate=F[,seed=S][,recover=R][,max=M]]\n"
      "            [--max-steps B]  (bound for wedged crash runs)\n"
      "            signal and mutex print the run's metrics under the names\n"
      "            sweep artifacts use and exit 1 iff spec.ok, run.completed\n"
      "            or protocol.invariants_ok is not 1 (any --trace mode)\n"
      "  adversary --alg A --n N [--lenient] [--no-erase] [--model M]\n"
      "            (--no-erase: strict construction only; the lenient one\n"
      "             never erases. A: any algorithm with Poll(), not\n"
      "             blocking-leader)\n"
      "  gme       --procs N --sessions K --passages P --model M\n"
      "  explore   --target signal|mutex --model M [--depth D]\n"
      "            [--max-nodes N] [--workers W] [--trunk-depth T]\n"
      "            [--shards S]  (fork S worker processes and run every\n"
      "                       work item out-of-process; the report is\n"
      "                       byte-identical for any S, 1..256)\n"
      "            [--snapshot-stats] (print snapshot cache counters)\n"
      "            [--shrink] (minimize any counterexample)\n"
      "            [--report FILE]  (write the results block atomically)\n"
      "            [--checkpoint-dir D | --resume D]  (persistent frontier:\n"
      "                       record progress into D / continue from the\n"
      "                       newest valid epoch in D)\n"
      "            [--checkpoint-interval K]  (epoch every K item outcomes)\n"
      "            [--item-attempts A] [--backoff-ms B]  (worker-failure\n"
      "                       retry policy: A attempts, exponential backoff)\n"
      "            [--item-step-limit L]  (per-attempt node deadline)\n"
      "            [--inject-worker-failures N]  (test hook: first attempt\n"
      "                       of every N-th item dies and is retried)\n"
      "            signal: --alg A --waiters N --polls P\n"
      "            mutex:  --lock L --procs N --passages K\n"
      "            model-checks every schedule class up to D macro steps;\n"
      "            exits 1 iff a violation is found\n"
      "  sweep     --exp e1..e9|e4_<protocol> [--workers W] [--out DIR]\n"
      "            [--max-n N]\n"
      "            [--deterministic] [--golden FILE]\n"
      "            [--check] [--list]\n"
      "            runs the experiment's declarative grid on W threads\n"
      "            (output is bit-identical for any W), prints one row per\n"
      "            point, writes BENCH_<exp>.json, and fits each series'\n"
      "            growth class; --check exits 1 if a fit misses the\n"
      "            paper's claim or a point's verdict metric is not 1;\n"
      "            --max-n caps the grid for quick CI runs\n"
      "  trace     --gen private|hotset|zipf|ring|migratory | --in FILE\n"
      "            [--ops K] [--procs N] [--seed S]\n"
      "            [--models all|dsm,cc,cc-wb,cc-mesi,cc-lfcu]\n"
      "            [--protocols [all|mesi,mesif,moesi,dragon]]\n"
      "            [--write-buffer N] [--addr-map interleave[:B]|global|\n"
      "                       first-touch]  (address -> (var, home) policy)\n"
      "            [--cycle-cost fetch=F,transfer=T,signal=S,update=U,\n"
      "                       writeback=W]  (override protocol cycle costs)\n"
      "            [--legacy-counters]  (also tally the legacy bus,\n"
      "                       ideal and coarse message counters)\n"
      "            [--emit FILE [--binary] [--no-replay]]  (save the trace)\n"
      "            [--workers W] [--out DIR] [--deterministic]\n"
      "            [--golden FILE]  (byte-compare BENCH_t1_*.json, exit 3)\n"
      "            replays the trace through every requested cost model and\n"
      "            protocol, writes BENCH_t1_<gen>.json; byte-identical for\n"
      "            any --workers count\n"
      "a --key the subcommand does not read is an error (exit 2)\n",
      stderr);
}

// The keys each subcommand reads. main() refuses any other --key before the
// subcommand starts, so a typo such as --waiterz is a one-line error instead
// of a run with the default silently in its place. Keep in step with the
// a.get/a.has/a.get_int calls of the cmd_* functions.
const std::map<std::string, std::set<std::string>> kCommandKeys = {
    {"signal",
     {"alg", "blocking", "cycle-cost", "delay", "model", "protocols", "seed",
      "trace", "waiters", "write-buffer"}},
    {"mutex",
     {"cycle-cost", "fault-plan", "lock", "max-steps", "model", "passages",
      "procs", "protocols", "seed", "write-buffer"}},
    {"adversary", {"alg", "lenient", "model", "n", "no-erase"}},
    {"gme", {"model", "passages", "procs", "sessions"}},
    {"explore",
     {"alg", "backoff-ms", "checkpoint-dir", "checkpoint-interval", "depth",
      "dist-worker", "inject-worker-failures", "item-attempts",
      "item-step-limit", "lock", "max-nodes", "model", "passages", "polls",
      "procs", "report", "resume", "shards", "shrink", "snapshot-stats",
      "target", "trunk-depth", "waiters", "workers"}},
    {"sweep",
     {"check", "deterministic", "exp", "golden", "list", "max-n", "out",
      "workers"}},
    {"trace",
     {"addr-map", "binary", "cycle-cost", "deterministic", "emit", "gen",
      "golden", "in", "legacy-counters", "models", "no-replay", "ops", "out",
      "procs", "protocols", "seed", "workers", "write-buffer"}},
};

/// The first key in `a` that `cmd` does not accept, if any.
std::optional<std::string> unknown_key(const std::string& cmd,
                                       const Args& a) {
  const std::set<std::string>& keys = kCommandKeys.at(cmd);
  for (const auto& [k, v] : a.kv) {
    if (keys.count(k) == 0) return k;
  }
  for (const auto& [k, on] : a.flags) {
    if (keys.count(k) == 0) return k;
  }
  return std::nullopt;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage();
    return 2;
  }
  const std::string cmd = argv[1];
  if (kCommandKeys.count(cmd) == 0) {
    usage();
    return 2;
  }
  const Args args = parse(argc, argv, 2);
  if (const auto key = unknown_key(cmd, args)) {
    std::fprintf(stderr, "error: %s does not accept --%s\n", cmd.c_str(),
                 key->c_str());
    return 2;
  }
  try {
    if (cmd == "signal") return cmd_signal(args);
    if (cmd == "mutex") return cmd_mutex(args);
    if (cmd == "adversary") return cmd_adversary(args);
    if (cmd == "gme") return cmd_gme(args);
    if (cmd == "explore") return cmd_explore(args, argv[0]);
    if (cmd == "sweep") return cmd_sweep(args);
    if (cmd == "trace") return cmd_trace(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  usage();
  return 2;
}
