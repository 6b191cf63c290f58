// Self-fault-injection harness for crash-tolerant exploration.
//
// Drives the real rmrsim_cli binary through kill-and-resume cycles and
// asserts that every interrupted-then-resumed search reproduces the
// uninterrupted run's report byte-for-byte:
//
//   1. Reference: run `rmrsim_cli explore ... --report ref.txt` once,
//      uninterrupted, with checkpointing on.
//   2. Boundary kills: for every epoch k the reference run wrote, run with
//      RMRSIM_KILL_AFTER_EPOCH=k (the CLI SIGKILLs itself the instant
//      epoch k is durable), then resume and byte-compare the report.
//   3. Randomized kills: SIGKILL the explorer from outside at randomized
//      delays, chaining --resume across as many kills as land, then
//      byte-compare the final report.
//   4. Torn checkpoint: truncate the newest epoch of an interrupted run
//      mid-record; resume must fall back to the previous epoch (the CLI
//      logs the discarded file) and still reproduce the reference.
//   5. Sharded worker kills: run `--shards 2` with every initial worker
//      process SIGKILLing itself on its first work item
//      (RMRSIM_WORKER_EXIT_AFTER_ITEMS=0); the coordinator must absorb
//      the deaths through respawn-and-retry and still produce a report
//      byte-identical to the unsharded, uninterrupted reference.
//
// The sharded scenario runs the full battery 1-4 with a multi-process
// coordinator/worker tree: boundary and randomized kills land on the
// coordinator (orphaned workers must self-clean on pipe EOF), and the
// resumed runs must reproduce the sharded reference byte-for-byte.
//
// Standalone on purpose: links no rmrsim libraries, only POSIX — the
// harness must observe the explorer strictly from outside, exactly like
// the operator whose job it simulates. Usage:
//
//   resume_harness <path-to-rmrsim_cli> <scratch-dir> [seed]
//
// Exits 0 iff every scenario passed; failures print one line each.

#include <fcntl.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

namespace {

int g_failures = 0;

void check(bool ok, const char* fmt, ...) {
  if (ok) return;
  ++g_failures;
  std::va_list ap;
  va_start(ap, fmt);
  std::fputs("FAIL: ", stderr);
  std::vfprintf(stderr, fmt, ap);
  std::fputc('\n', stderr);
  va_end(ap);
}

/// xorshift64*: deterministic across platforms, seeded from argv.
struct Rng {
  std::uint64_t s;
  std::uint64_t next() {
    s ^= s >> 12;
    s ^= s << 25;
    s ^= s >> 27;
    return s * 0x2545F4914F6CDD1DULL;
  }
  std::uint64_t below(std::uint64_t n) { return next() % n; }
};

std::string read_file(const std::string& path) {
  FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return {};
  std::string out;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) out.append(buf, n);
  std::fclose(f);
  return out;
}

struct RunResult {
  int exit_code = -1;    // -1 when killed by a signal
  int term_signal = 0;
};

/// fork + execv the CLI with the given args, stdout/stderr to `log_path`,
/// optionally with one extra KEY=VALUE in the environment. If `kill_after_us`
/// > 0, SIGKILL the child from outside after that many microseconds (unless
/// it exits first).
RunResult run_cli(const std::string& cli, const std::vector<std::string>& args,
                  const std::string& log_path, const std::string& env_kv = "",
                  std::uint64_t kill_after_us = 0) {
  const pid_t pid = fork();
  if (pid < 0) {
    std::perror("fork");
    std::exit(2);
  }
  if (pid == 0) {
    const int fd =
        open(log_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
    if (fd >= 0) {
      dup2(fd, 1);
      dup2(fd, 2);
      close(fd);
    }
    if (!env_kv.empty()) {
      const std::size_t eq = env_kv.find('=');
      setenv(env_kv.substr(0, eq).c_str(), env_kv.substr(eq + 1).c_str(), 1);
    }
    std::vector<char*> argv;
    argv.push_back(const_cast<char*>(cli.c_str()));
    for (const std::string& a : args) {
      argv.push_back(const_cast<char*>(a.c_str()));
    }
    argv.push_back(nullptr);
    execv(cli.c_str(), argv.data());
    std::perror("execv");
    _exit(127);
  }
  if (kill_after_us > 0) {
    // Poll instead of sleeping the whole delay: if the child finishes first
    // we must not kill a recycled pid.
    std::uint64_t slept = 0;
    while (slept < kill_after_us) {
      const std::uint64_t step =
          kill_after_us - slept < 500 ? kill_after_us - slept : 500;
      usleep(static_cast<useconds_t>(step));
      slept += step;
      int status = 0;
      const pid_t done = waitpid(pid, &status, WNOHANG);
      if (done == pid) {
        RunResult r;
        if (WIFEXITED(status)) r.exit_code = WEXITSTATUS(status);
        if (WIFSIGNALED(status)) r.term_signal = WTERMSIG(status);
        return r;
      }
    }
    kill(pid, SIGKILL);
  }
  int status = 0;
  waitpid(pid, &status, 0);
  RunResult r;
  if (WIFEXITED(status)) r.exit_code = WEXITSTATUS(status);
  if (WIFSIGNALED(status)) r.term_signal = WTERMSIG(status);
  return r;
}

int run_shell(const std::string& cmd) { return std::system(cmd.c_str()); }

/// One explore configuration under test.
struct Scenario {
  const char* name;
  std::vector<std::string> base;  // explore args minus checkpoint/report
  int expect_exit;                // 0 = no violation, 1 = violation found
};

std::vector<std::string> with(std::vector<std::string> v,
                              std::initializer_list<std::string> extra) {
  v.insert(v.end(), extra.begin(), extra.end());
  return v;
}

/// Count epoch files currently in `dir` and return the largest epoch number
/// (0 when none). Filenames are epoch-NNNNNN.ckpt.
std::uint64_t newest_epoch(const std::string& dir) {
  std::uint64_t best = 0;
  std::string cmd = "ls '" + dir + "' 2>/dev/null";
  FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) return 0;
  char line[256];
  while (std::fgets(line, sizeof line, pipe) != nullptr) {
    unsigned long long e = 0;
    if (std::sscanf(line, "epoch-%llu.ckpt", &e) == 1 && e > best) best = e;
  }
  pclose(pipe);
  return best;
}

void run_scenario(const std::string& cli, const std::string& scratch,
                  const Scenario& sc, Rng& rng) {
  const std::string dir = scratch + "/" + sc.name;
  run_shell("rm -rf '" + dir + "' && mkdir -p '" + dir + "'");
  const std::string ref_report = dir + "/ref.txt";

  // 1. Uninterrupted reference (checkpointing on, so the cost of writing
  //    epochs is part of what we compare against).
  RunResult ref = run_cli(
      cli,
      with(sc.base, {"--checkpoint-dir", dir + "/ref-ck", "--report",
                     ref_report}),
      dir + "/ref.log");
  check(ref.exit_code == sc.expect_exit, "%s: reference run exited %d, want %d",
        sc.name, ref.exit_code, sc.expect_exit);
  const std::string want = read_file(ref_report);
  check(!want.empty(), "%s: reference report is empty", sc.name);
  const std::uint64_t epochs = newest_epoch(dir + "/ref-ck");
  check(epochs > 0, "%s: reference run wrote no epochs", sc.name);

  // 2. Boundary kills: die exactly when epoch k hits the disk, for every k.
  for (std::uint64_t k = 1; k <= epochs; ++k) {
    const std::string ck = dir + "/bk-" + std::to_string(k);
    char env[64];
    std::snprintf(env, sizeof env, "RMRSIM_KILL_AFTER_EPOCH=%llu",
                  static_cast<unsigned long long>(k));
    RunResult killed =
        run_cli(cli, with(sc.base, {"--checkpoint-dir", ck}),
                dir + "/bk-kill.log", env);
    if (killed.term_signal != SIGKILL) {
      // The whole search finished before epoch k (races with the final
      // flush); that is a legal outcome, resume still must agree.
      check(killed.exit_code == sc.expect_exit,
            "%s: boundary kill %llu: run finished with exit %d, want %d",
            sc.name, static_cast<unsigned long long>(k), killed.exit_code,
            sc.expect_exit);
    }
    const std::string rep = ck + "-resume.txt";
    RunResult resumed = run_cli(
        cli, with(sc.base, {"--resume", ck, "--report", rep}),
        dir + "/bk-resume.log");
    check(resumed.exit_code == sc.expect_exit,
          "%s: boundary kill %llu: resume exited %d, want %d", sc.name,
          static_cast<unsigned long long>(k), resumed.exit_code,
          sc.expect_exit);
    check(read_file(rep) == want,
          "%s: boundary kill %llu: resumed report differs from reference",
          sc.name, static_cast<unsigned long long>(k));
  }

  // 3. Randomized external SIGKILLs, chained: a fixed budget of kill
  //    attempts at random delays (each resuming the last), then one clean
  //    resume that must complete and match. A kill that misses (the run
  //    finishes first) is harmless — the next round resumes a complete
  //    checkpoint, which is itself a state worth exercising.
  {
    const std::string ck = dir + "/rand";
    const std::string rep = dir + "/rand.txt";
    int kills = 0;
    for (int round = 0; round < 8; ++round) {
      std::vector<std::string> args =
          round == 0
              ? with(sc.base, {"--checkpoint-dir", ck, "--report", rep})
              : with(sc.base, {"--resume", ck, "--report", rep});
      // Delays span "barely started" to "probably done": both tails matter
      // (kill before the first epoch, kill during the final flush).
      const std::uint64_t delay_us = 500 + rng.below(20'000);
      RunResult r = run_cli(cli, args, dir + "/rand.log", "", delay_us);
      if (r.term_signal == SIGKILL) ++kills;
    }
    RunResult final_run = run_cli(
        cli, with(sc.base, {"--resume", ck, "--report", rep}),
        dir + "/rand.log");
    check(final_run.exit_code == sc.expect_exit,
          "%s: randomized: final run exited %d, want %d", sc.name,
          final_run.exit_code, sc.expect_exit);
    check(read_file(rep) == want,
          "%s: randomized (%d kills): final report differs from reference",
          sc.name, kills);
    std::printf("  %s: randomized landed %d/8 kills\n", sc.name, kills);
  }

  // 4. Torn checkpoint: interrupt, truncate the newest epoch mid-record,
  //    resume. The loader must discard the torn file, fall back to the
  //    previous epoch, and still match the reference.
  {
    const std::string ck = dir + "/torn";
    run_cli(cli, with(sc.base, {"--checkpoint-dir", ck}),
            dir + "/torn-kill.log", "RMRSIM_KILL_AFTER_EPOCH=2");
    const std::uint64_t top = newest_epoch(ck);
    if (top >= 2) {
      char name[64];
      std::snprintf(name, sizeof name, "epoch-%06llu.ckpt",
                    static_cast<unsigned long long>(top));
      run_shell("truncate -s 40 '" + ck + "/" + name + "'");
      const std::string rep = ck + "-resume.txt";
      const std::string log = dir + "/torn-resume.log";
      RunResult resumed = run_cli(
          cli, with(sc.base, {"--resume", ck, "--report", rep}), log);
      check(resumed.exit_code == sc.expect_exit,
            "%s: torn: resume exited %d, want %d", sc.name, resumed.exit_code,
            sc.expect_exit);
      check(read_file(rep) == want,
            "%s: torn: resumed report differs from reference", sc.name);
      check(read_file(log).find("resume: discarded") != std::string::npos,
            "%s: torn: resume did not log the discarded epoch", sc.name);
    }
  }

  std::printf("scenario %s: done (reference epochs: %llu)\n", sc.name,
              static_cast<unsigned long long>(epochs));
}

/// Step 5: worker-process deaths absorbed without a trace. The reference
/// is deliberately unsharded — the comparison asserts sharding parity and
/// crash absorption in one stroke.
void run_worker_kill_scenario(const std::string& cli,
                              const std::string& scratch) {
  const char* name = "signal-worker-kill-s2";
  const std::string dir = scratch + "/" + name;
  run_shell("rm -rf '" + dir + "' && mkdir -p '" + dir + "'");
  const std::vector<std::string> base = {
      "explore", "--target", "signal", "--alg",  "registration",
      "--model", "dsm",      "--waiters", "2",   "--polls", "1",
      "--depth", "14"};

  const std::string ref_report = dir + "/ref.txt";
  RunResult ref = run_cli(cli, with(base, {"--report", ref_report}),
                          dir + "/ref.log");
  check(ref.exit_code == 0, "%s: reference run exited %d, want 0", name,
        ref.exit_code);
  const std::string want = read_file(ref_report);
  check(!want.empty(), "%s: reference report is empty", name);

  // Every initial worker dies upon receiving its first item; the pool
  // respawns them with the kill switch cleared and retries the items.
  const std::string rep = dir + "/killed.txt";
  RunResult killed = run_cli(
      cli, with(base, {"--shards", "2", "--report", rep}),
      dir + "/killed.log", "RMRSIM_WORKER_EXIT_AFTER_ITEMS=0");
  check(killed.exit_code == 0,
        "%s: run with dying workers exited %d, want 0", name,
        killed.exit_code);
  check(read_file(rep) == want,
        "%s: report after worker deaths differs from the unsharded "
        "reference",
        name);
  std::printf("scenario %s: done\n", name);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) {
    std::fprintf(stderr, "usage: resume_harness <rmrsim_cli> <scratch-dir> "
                         "[seed]\n");
    return 2;
  }
  const std::string cli = argv[1];
  const std::string scratch = argv[2];
  Rng rng{argc > 3 ? std::strtoull(argv[3], nullptr, 10) : 0x9E3779B97F4A7C15ULL};
  if (rng.s == 0) rng.s = 1;
  run_shell("mkdir -p '" + scratch + "'");

  // Small enough to finish in ~a second uninterrupted, big enough to write
  // several epochs: the kill windows in step 3 then actually land mid-run.
  const std::vector<Scenario> scenarios = {
      // Parallel snapshot-mode search, healthy algorithm: no violation.
      {"signal-snapshot-w2",
       {"explore", "--target", "signal", "--alg", "registration", "--model",
        "dsm", "--waiters", "2", "--polls", "1", "--depth", "14", "--workers",
        "2", "--checkpoint-interval", "2"},
       0},
      // Broken algorithm: the lex-least violating schedule is part of the
      // report, so resume must reproduce the exact counterexample too. The
      // violation truncates schedules early, so the trunk is shallow —
      // trunk-depth 2 keeps real work items (and hence epochs) in play.
      {"signal-broken-w2",
       {"explore", "--target", "signal", "--alg", "broken", "--model", "dsm",
        "--waiters", "2", "--polls", "1", "--depth", "14", "--workers", "2",
        "--trunk-depth", "2", "--checkpoint-interval", "2"},
       1},
      // Multi-process search: work items run in forked worker processes.
      // Boundary and randomized kills hit the coordinator mid-epoch; the
      // orphaned workers must self-clean and the resumed (re-sharded) run
      // must still reproduce the reference byte-for-byte.
      {"signal-sharded-s2",
       {"explore", "--target", "signal", "--alg", "registration", "--model",
        "dsm", "--waiters", "2", "--polls", "1", "--depth", "14", "--shards",
        "2", "--checkpoint-interval", "2"},
       0},
  };
  for (const Scenario& sc : scenarios) run_scenario(cli, scratch, sc, rng);
  run_worker_kill_scenario(cli, scratch);

  if (g_failures == 0) {
    std::printf("resume_harness: all scenarios passed\n");
    return 0;
  }
  std::fprintf(stderr, "resume_harness: %d failure(s)\n", g_failures);
  return 1;
}
