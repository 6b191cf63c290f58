#!/usr/bin/env python3
"""rmrsim's benchmark: one command per workload, end to end and per layer.

    python3 perfbench/run.py --workload W [--seed N] [--seconds S] [--trace 0|1]

builds the simulator from this checkout's sources (Release, into
.bench_build/), sets the workload up, times passes of it for --seconds,
checks every simulated output against the recorded reference, and prints
one JSON line last:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json;
with --trace 1 they are its per-layer metrics, from a traced pass and the
layer suite (rmrbench layers). Other modes:

    --steadiness [--runs N]   two sets of N runs of one workload; prints each
                              end-to-end metric's spread against its bound
                              and flags work counts that did not repeat
    --record                  rewrites perfbench/reference/ from this build
                              (only when simulated outputs are meant to
                              change; a speed-up must never need it)

See perfbench/README.md for the workloads, the metrics and the layer map.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "rmrbench")
OUT_DIR = os.path.join(ROOT, ".bench_out")
REF_DIR = os.path.join(HERE, "reference")
BENCH = os.path.join(BUILD_DIR, "rmrbench")
CLI = os.path.join(BUILD_DIR, "rmrsim_tools", "rmrsim_cli")

WORKLOADS = ("sweep_separation", "trace_fleet", "explore_dpor",
             "explore_sharded")
# --seed picks the trace_fleet generator seed from this tuning set; the
# held-out seed is reached only with --held-out, so a later claim can be
# checked on a trace that no tuning run has seen. The other workloads have
# no seed axis: round-robin scheduling and exhaustive search are
# deterministic.
TRACE_SEEDS = tuple(range(1, 17))
HELD_OUT_SEED = 1_000_003
# A timed run sets the workload up before every pass: rmrbench repeats the
# set-up in one process for SETUP_BUDGET_MS (at least SETUP_MIN times before
# the first pass, once before each later one). Like a pass, each set-up
# counts its least disturbed sample; setup_s is the median over the run's
# set-ups, which are spread over the run as the passes are.
SETUP_BUDGET_MS = 200
SETUP_MIN = 3
# How often a pass's process tree is sampled for its peak memory.
RSS_POLL_S = 0.1
EXPLORE_ARGS = ["explore", "--target", "signal", "--alg", "registration",
                "--waiters", "3", "--polls", "2", "--depth", "32",
                "--max-nodes", "3000000"]
SHARDS = "2"


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def die(msg, code=1):
    log("perfbench: " + msg)
    sys.exit(code)


def child_env(git):
    env = dict(os.environ)
    env["RMRSIM_GIT_DESCRIBE"] = git
    env["TMPDIR"] = os.path.join(ROOT, ".bench_build", "tmp")
    return env


# ---- build and provenance ---------------------------------------------------

def build():
    for need in ("src/CMakeLists.txt", "tools/CMakeLists.txt"):
        if not os.path.exists(os.path.join(ROOT, need)):
            die("cannot build: %s is missing next to perfbench/ (run from "
                "a checkout of the rmrsim sources)" % need, 2)
    os.makedirs(os.path.join(ROOT, ".bench_build", "tmp"), exist_ok=True)
    env = child_env("unknown")
    cache = os.path.join(BUILD_DIR, "CMakeCache.txt")
    if not os.path.exists(cache):
        run_quiet(["cmake", "-S", HERE, "-B", BUILD_DIR,
                   "-DCMAKE_BUILD_TYPE=Release"], env, "configure")
    jobs = str(min(4, os.cpu_count() or 1))
    run_quiet(["cmake", "--build", BUILD_DIR, "-j", jobs, "--target",
               "rmrbench", "rmrsim_cli"], env, "build")


def run_quiet(cmd, env, what):
    p = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                       stderr=subprocess.STDOUT, text=True)
    if p.returncode != 0:
        log(p.stdout[-4000:])
        die("%s failed (exit %d)" % (what, p.returncode))


def provenance():
    """The build's stamp. rmrbench refuses, by name, to run at all when its
    build directory was configured by hand as Debug or with a sanitizer."""
    p = subprocess.run([BENCH, "stamp"], stdout=subprocess.PIPE,
                       stderr=subprocess.PIPE, text=True)
    if p.returncode != 0:
        die("rmrbench refused to run: " + p.stderr.strip(), 3)
    stamp = json.loads(p.stdout)
    if stamp["build_type"] != "Release":
        die("build directory holds a %s build, expected Release"
            % stamp["build_type"], 3)
    stamp["nproc"] = os.cpu_count()
    try:
        g = subprocess.run(["git", "-C", ROOT, "describe", "--always",
                            "--dirty"], stdout=subprocess.PIPE,
                           stderr=subprocess.DEVNULL, text=True)
        stamp["git"] = g.stdout.strip() if g.returncode == 0 else "unknown"
    except OSError:
        stamp["git"] = "unknown"
    return stamp


# ---- child processes -----------------------------------------------------------

def tree_hwm_kb(root, seen):
    """Records in seen (pid -> kB) the peak resident set (VmHWM) of root and
    of every descendant of root now alive."""
    children = defaultdict(list)
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open("/proc/%s/stat" % name) as f:
                stat = f.read()
        except OSError:
            continue
        ppid = int(stat[stat.rfind(")") + 2:].split()[1])
        children[ppid].append(int(name))
    stack = [root]
    while stack:
        pid = stack.pop()
        stack.extend(children[pid])
        try:
            with open("/proc/%d/status" % pid) as f:
                for line in f:
                    if line.startswith("VmHWM:"):
                        seen[pid] = max(seen.get(pid, 0),
                                        int(line.split()[1]))
                        break
        except OSError:
            pass


def run_child(cmd, env, stderr_path):
    """Runs cmd to completion; returns (exit code, stdout, host wall s,
    rusage, peak kB). The rusage covers the child and every descendant it
    waited for: CPU is summed over them, ru_maxrss is the largest of them.
    The peak is the memory of the whole process tree: the sum of each
    process's own peak, sampled every RSS_POLL_S, and never less than
    ru_maxrss (which is exact for a single process)."""
    seen = {}
    stop = threading.Event()
    with open(stderr_path, "w") as err:
        t0 = time.perf_counter()
        p = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE,
                             stderr=err, text=True)

        def poll():
            while not stop.wait(RSS_POLL_S):
                tree_hwm_kb(p.pid, seen)

        poller = threading.Thread(target=poll)
        poller.start()
        out = p.stdout.read()
        stop.set()
        poller.join()
        _, status, ru = os.wait4(p.pid, 0)
        wall = time.perf_counter() - t0
        p.stdout.close()
        p.returncode = os.waitstatus_to_exitcode(status)
    return (p.returncode, out, wall, ru,
            max(ru.ru_maxrss, sum(seen.values())))


def workdir(workload):
    d = os.path.join(OUT_DIR, workload)
    os.makedirs(d, exist_ok=True)
    return d


def set_up(workload, trace_seed, env, budget_ms, min_samples):
    """Sets the workload up; returns the host seconds of each set-up
    sample, timed inside rmrbench."""
    d = workdir(workload)
    code, out, _, _, _ = run_child(
        [BENCH, "setup", "--workload", workload, "--dir", d, "--trace-seed",
         str(trace_seed), "--budget-ms", str(budget_ms),
         "--min-samples", str(min_samples)],
        env, os.path.join(d, "setup.err"))
    if code != 0:
        die("setup of %s failed (exit %d); see %s" %
            (workload, code, os.path.join(d, "setup.err")))
    return json.loads(out.strip().splitlines()[-1])["setup_s"]


def parse_report(report):
    def row(name):
        m = re.search(r"^%s\s+(.*)$" % re.escape(name), report, re.M)
        return m.group(1).strip() if m else None
    nodes = row("nodes visited")
    complete = row("complete schedules")
    return {
        "verdict": row("verdict"),
        "nodes_visited": int(nodes) if nodes and nodes.isdigit() else None,
        "complete_schedules":
            int(complete) if complete and complete.isdigit() else None,
        "report": report,
    }


def sharded_cli(env, d, extra=()):
    """The explore_sharded pass: the real CLI, coordinator plus forked
    workers, wall to wall."""
    report_path = os.path.join(d, "sharded_report.txt")
    if os.path.exists(report_path):
        os.remove(report_path)
    cmd = [CLI] + EXPLORE_ARGS + ["--shards", SHARDS, "--report",
                                  report_path] + list(extra)
    code, _, wall, ru, peak_kb = run_child(cmd, env,
                                           os.path.join(d, "cli.err"))
    report = open(report_path).read() if os.path.exists(report_path) else ""
    unit = parse_report(report)
    return {
        "exit": code,
        "wall_s": wall,
        "cpu_s": ru.ru_utime + ru.ru_stime,
        "rss_mb": peak_kb / 1024.0,
        "work": unit["nodes_visited"] or 0,
        "units": {"explore/report": unit},
    }


def one_pass(workload, env, spans=None, pass_id="1"):
    d = workdir(workload)
    if workload == "explore_sharded":
        if spans is None:
            return sharded_cli(env, d)
        # The CLI is observed from outside: one span around the process.
        start = time.perf_counter_ns()
        res = sharded_cli(env, d)
        end = time.perf_counter_ns()
        with open(spans, "w") as f:
            json.dump([{"id": 0, "name": "pass", "parent": -1,
                        "pass": "explore_sharded:" + pass_id,
                        "start_ns": start, "end_ns": end},
                       {"id": 1, "name": "cli.explore_sharded", "parent": 0,
                        "pass": "explore_sharded:" + pass_id,
                        "start_ns": start, "end_ns": end}], f)
        return res
    cmd = [BENCH, "pass", "--workload", workload, "--dir", d]
    if spans is not None:
        cmd += ["--spans", spans, "--pass-id", pass_id]
    code, out, _, _, peak_kb = run_child(cmd, env,
                                         os.path.join(d, "pass.err"))
    if code != 0:
        log(open(os.path.join(d, "pass.err")).read()[-2000:])
        return {"exit": code, "units": {}, "work": 0}
    res = json.loads(out.strip().splitlines()[-1])
    res["exit"] = 0
    res["rss_mb"] = peak_kb / 1024.0
    return res


# ---- references -------------------------------------------------------------------

def ref_path(workload):
    name = "explore" if workload.startswith("explore") else workload
    return os.path.join(REF_DIR, name + ".json")


def load_reference(workload, trace_seed):
    path = ref_path(workload)
    if not os.path.exists(path):
        die("no recorded reference %s (run --record)" % path)
    ref = json.load(open(path))
    if workload == "trace_fleet":
        ref = ref.get(str(trace_seed))
        if ref is None:
            die("no recorded reference for trace seed %d" % trace_seed)
    return ref


def check(res, ref, label):
    """Counts checked outputs and mismatches of one pass: every reference
    unit, plus the work count."""
    attempted, failed = 0, 0
    if res.get("exit", 1) != 0:
        return len(ref["units"]) + 1, len(ref["units"]) + 1
    for key, want in ref["units"].items():
        attempted += 1
        got = res["units"].get(key)
        if got != want:
            failed += 1
            log("MISMATCH %s %s:\n  want %s\n  got  %s" %
                (label, key, json.dumps(want)[:400], json.dumps(got)[:400]))
    for key in res["units"]:
        if key not in ref["units"]:
            attempted += 1
            failed += 1
            log("MISMATCH %s %s: not in the reference" % (label, key))
    attempted += 1
    if res["work"] != ref["work"]:
        failed += 1
        log("MISMATCH %s work count: want %d got %d" %
            (label, ref["work"], res["work"]))
    return attempted, failed


def record(env):
    os.makedirs(REF_DIR, exist_ok=True)
    for workload in ("sweep_separation", "explore_dpor"):
        set_up(workload, TRACE_SEEDS[0], env, budget_ms=0, min_samples=1)
        res = one_pass(workload, env)
        if res["exit"] != 0:
            die("recording %s failed" % workload)
        write_json(ref_path(workload),
                   {"work": res["work"], "units": res["units"]})
    sharded = one_pass("explore_sharded", env)
    dpor = json.load(open(ref_path("explore_dpor")))
    if sharded["units"] != dpor["units"]:
        die("the sharded CLI report differs from the in-process one")
    traces = {}
    for seed in TRACE_SEEDS + (HELD_OUT_SEED,):
        set_up("trace_fleet", seed, env, budget_ms=0, min_samples=1)
        res = one_pass("trace_fleet", env)
        if res["exit"] != 0:
            die("recording trace_fleet seed %d failed" % seed)
        traces[str(seed)] = {"work": res["work"], "units": res["units"]}
        log("recorded trace seed %d" % seed)
    write_json(ref_path("trace_fleet"), traces)


def write_json(path, obj):
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        json.dump(obj, f, indent=1, sort_keys=True)
        f.write("\n")
    os.replace(tmp, path)


# ---- spans ---------------------------------------------------------------------

def self_times_ms(spans):
    """Self time per span name: each span's duration minus the part of it
    its children cover (children on worker threads may overlap)."""
    children = defaultdict(list)
    for s in spans:
        if s["parent"] >= 0:
            children[int(s["parent"])].append(s)
    out = defaultdict(float)
    for s in spans:
        lo, hi = s["start_ns"], s["end_ns"]
        ivs = sorted((max(c["start_ns"], lo), min(c["end_ns"], hi))
                     for c in children[s["id"]])
        covered, cur_lo, cur_hi = 0, None, None
        for a, b in ivs:
            if b <= a:
                continue
            if cur_hi is None or a > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = a, b
            else:
                cur_hi = max(cur_hi, b)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[s["name"]] += (hi - lo - covered) / 1e6
    return dict(out)


# ---- the runs -----------------------------------------------------------------

def bench_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        die("BENCHMARK.json is missing at the checkout root", 2)
    return json.load(open(path))


def metric_out(spec_list, values):
    out = {}
    for m in spec_list:
        if m["name"] not in values:
            die("metric %s was not measured" % m["name"])
        out[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    return out


def timed_run(args, spec, env, trace_seed):
    ref = load_reference(args.workload, trace_seed)
    passes = []
    setups = []
    attempted = failed = 0
    t0 = time.perf_counter()
    while True:
        s0 = time.perf_counter()
        setups.append(set_up(args.workload, trace_seed, env,
                             SETUP_BUDGET_MS, SETUP_MIN if not setups else 1))
        setup_wall = time.perf_counter() - s0
        res = one_pass(args.workload, env)
        a, f = check(res, ref, "%s pass %d" % (args.workload, len(passes) + 1))
        attempted += a
        failed += f
        if res["exit"] == 0:
            passes.append(res)
        used = time.perf_counter() - t0
        est = setup_wall + (min(p["wall_s"] for p in passes)
                            if passes else 0)
        if not passes or used + est > args.seconds:
            break
    if not passes:
        die("every pass of %s failed" % args.workload)
    # Interference from the rest of the machine only ever adds host time,
    # so the fastest pass is the least disturbed measurement of the fixed
    # work; memory is not disturbed that way and takes the median.
    fastest = min(passes, key=lambda p: p["wall_s"])
    values = {
        "wall_s": fastest["wall_s"],
        "cpu_s": min(p["cpu_s"] for p in passes),
        "peak_rss_mb": statistics.median(p["rss_mb"] for p in passes),
        "setup_s": statistics.median(min(s) for s in setups),
        "sim_rate": fastest["work"] / fastest["wall_s"],
    }
    detail = {
        "passes": [{k: p.get(k) for k in ("wall_s", "cpu_s", "rss_mb",
                                          "work", "counts")}
                   for p in passes],
        "setups_s": setups,
    }
    return attempted, failed, metric_out(spec["end_to_end"], values), detail


def traced_run(args, spec, env, trace_seed):
    d = workdir(args.workload)
    set_up(args.workload, trace_seed, env, budget_ms=0, min_samples=1)
    ref = load_reference(args.workload, trace_seed)
    attempted = failed = 0

    plain = one_pass(args.workload, env)
    spans_path = os.path.join(d, "spans.json")
    traced = one_pass(args.workload, env, spans=spans_path,
                      pass_id="seed%d" % args.seed)
    for label, res in (("untraced", plain), ("traced", traced)):
        a, f = check(res, ref, "%s %s pass" % (args.workload, label))
        attempted += a
        failed += f
    if plain["exit"] != 0 or traced["exit"] != 0:
        die("a pass of %s failed" % args.workload)
    spans = json.load(open(spans_path))
    selfs = self_times_ms(spans)

    code, out, _, _, _ = run_child(
        [BENCH, "layers", "--trace-seed", str(trace_seed)], env,
        os.path.join(d, "layers.err"))
    if code != 0:
        log(open(os.path.join(d, "layers.err")).read()[-2000:])
        die("the layer suite failed (exit %d)" % code)
    layers = json.loads(out.strip().splitlines()[-1])
    values = dict(layers["metrics"])
    attempted += 1
    failed += 1 if layers["check_failures"] else 0

    # Full-history bytes per step: the RSS slope between two e1 sizes.
    probes = []
    for n in (512, 1024):
        code, out, _, ru, _ = run_child(
            [BENCH, "history-probe", "--n", str(n)], env,
            os.path.join(d, "probe.err"))
        if code != 0:
            die("history probe n=%d failed" % n)
        probes.append((json.loads(out)["steps"], ru.ru_maxrss * 1024.0))
    values["history.full.bytes_per_step"] = (
        (probes[1][1] - probes[0][1]) / (probes[1][0] - probes[0][0]))

    # verify/dist: the sharded CLI against the in-process search at equal
    # parallelism, and its failure counters from a checkpointed run (the
    # only place the CLI reports them).
    sharded = (plain if args.workload == "explore_sharded"
               else sharded_cli(env, d))
    explore_ref = load_reference("explore_dpor", trace_seed)
    a, f = check(sharded, explore_ref, "sharded CLI")
    attempted += a
    failed += f
    values["dist.overhead_s"] = sharded["wall_s"] - values["verify.dpor.wall_s"]
    ckpt = os.path.join(d, "ckpt")
    res = sharded_cli(env, d, ["--checkpoint-dir", ckpt])
    err = open(os.path.join(d, "cli.err")).read()
    m = re.search(r"(\d+) worker failures, (\d+) retries", err)
    attempted += 1
    if res["exit"] != 0 or m is None:
        failed += 1
        log("checkpointed sharded run: no failure counters in its output")
        values["dist.worker_failures"] = -1
        values["dist.item_retries"] = -1
    else:
        values["dist.worker_failures"] = int(m.group(1))
        values["dist.item_retries"] = int(m.group(2))
        failed += 1 if (int(m.group(1)) or int(m.group(2))) else 0

    values["tracing.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    values["tracing.pass_self_ms"] = selfs.get("pass", 0.0)
    detail = {
        "spans": spans_path,
        "self_ms": selfs,
        "tallies": traced.get("tallies", {}),
        "untraced_wall_s": plain["wall_s"],
        "traced_wall_s": traced["wall_s"],
    }
    write_json(os.path.join(d, "trace_summary.json"), detail)
    log("self time by span (ms): " + json.dumps(
        {k: round(v, 3) for k, v in sorted(selfs.items())}))
    return attempted, failed, metric_out(spec["per_layer"], values), detail


def steadiness(args, spec):
    """Two sets of runs of the same build; each end-to-end metric's spread
    (interquartile range over median) against its bound, the drift of the
    second set's median, and every work count that did not repeat."""
    seeds = list(range(1, args.runs + 1))
    sets = []
    for s in range(2):
        runs = []
        for seed in seeds:
            cmd = [sys.executable, os.path.abspath(__file__), "--workload",
                   args.workload, "--seed", str(seed), "--seconds",
                   str(args.seconds), "--trace", "0"]
            p = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            if p.returncode != 0:
                die("steadiness run failed: " + " ".join(cmd))
            line = json.loads(p.stdout.strip().splitlines()[-1])
            detail = json.load(open(result_path(args.workload, seed, 0)))
            runs.append((line, detail))
            log("set %d seed %d: %s" % (s + 1, seed, json.dumps(
                {k: v["value"] for k, v in line["metrics"].items()})))
        sets.append(runs)
    ok = True
    print("%-12s %10s %10s %8s %8s %8s" %
          ("metric", "median1", "median2", "spread1", "spread2", "bound"))
    for m in spec["end_to_end"]:
        meds, spreads = [], []
        for runs in sets:
            vals = [r[0]["metrics"][m["name"]]["value"] for r in runs]
            med = statistics.median(vals)
            q = statistics.quantiles(vals, n=4) if len(vals) > 1 else [med] * 3
            meds.append(med)
            spreads.append((q[2] - q[0]) / med if med else float("inf"))
        worse = (meds[1] - meds[0]) / meds[0] if meds[0] else 0.0
        if m["better"] == "higher":
            worse = -worse
        flag = ""
        if max(spreads) > m["bound"]:
            flag, ok = "SPREAD>BOUND", False
        elif max(spreads) > m["bound"] / 3:
            flag = "spread>bound/3"
        if worse > m["bound"]:
            flag, ok = flag + " DRIFT>BOUND", False
        print("%-12s %10.4g %10.4g %8.4f %8.4f %8.3f %s" %
              (m["name"], meds[0], meds[1], spreads[0], spreads[1],
               m["bound"], flag))
    for i, seed in enumerate(seeds):
        a = [p["work"] for p in sets[0][i][1]["detail"]["passes"]]
        b = [p["work"] for p in sets[1][i][1]["detail"]["passes"]]
        ca = [p.get("counts") for p in sets[0][i][1]["detail"]["passes"]]
        cb = [p.get("counts") for p in sets[1][i][1]["detail"]["passes"]]
        if len(set(a + b)) != 1 or any(c != ca[0] for c in ca + cb):
            ok = False
            print("WORK COUNT DID NOT REPEAT (seed %d): %s vs %s" %
                  (seed, a, b))
        for r in (sets[0][i][0], sets[1][i][0]):
            if not r["correct"]:
                ok = False
                print("INCORRECT OUTPUT (seed %d)" % seed)
    print("steadiness: %s" % ("ok" if ok else "NOT STEADY"))
    return 0 if ok else 1


def result_path(workload, seed, trace):
    return os.path.join(OUT_DIR, "result_%s_seed%d_trace%d.json" %
                        (workload, seed, trace))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--held-out", action="store_true",
                    help="trace_fleet: use the held-out trace seed")
    ap.add_argument("--steadiness", action="store_true")
    ap.add_argument("--runs", type=int, default=5)
    ap.add_argument("--record", action="store_true")
    args = ap.parse_args()

    spec = bench_spec()
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    if not args.record and args.workload is None:
        die("--workload is required (one of %s)" % ", ".join(WORKLOADS), 2)
    if args.steadiness:
        return steadiness(args, spec)

    build()
    stamp = provenance()
    env = child_env(stamp["git"])
    log("provenance: " + json.dumps(stamp))
    if args.record:
        record(env)
        return 0

    trace_seed = (HELD_OUT_SEED if args.held_out
                  else TRACE_SEEDS[args.seed % len(TRACE_SEEDS)])
    run = traced_run if args.trace else timed_run
    attempted, failed, metrics, detail = run(args, spec, env, trace_seed)
    write_json(result_path(args.workload, args.seed, args.trace), {
        "provenance": stamp,
        "workload": args.workload,
        "seed": args.seed,
        "trace_seed": trace_seed if args.workload == "trace_fleet" else None,
        "seconds": args.seconds,
        "mismatch_ratio": failed / attempted,
        "metrics": metrics,
        "detail": detail,
    })
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
