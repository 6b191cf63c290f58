// Parity between the single-run subcommands and the sweep runners.
//
// `rmrsim_cli signal` and `mutex` publish through the same publishers as the
// E8/E9 point runners (harness/drive.h). Each test runs the real CLI binary
// on the configuration of one sweep point and checks every metric row it
// prints against format_metric_number of that point's value, so the two
// paths cannot drift apart without failing here.
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdio>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "harness/experiments.h"
#include "metrics/registry.h"

#ifndef RMRSIM_CLI
#error "RMRSIM_CLI must name the rmrsim_cli binary"
#endif

namespace rmrsim {
namespace {

/// The one row `signal` prints that is not a registry metric.
constexpr const char* kCliOnlyRow = "steady-state poll RMRs (max)";

/// Runs `rmrsim_cli <args>`; returns its stdout and stores the exit status.
std::string run_cli(const std::string& args, int& exit_status) {
  const std::string cmd = std::string("'") + RMRSIM_CLI + "' " + args;
  FILE* pipe = ::popen(cmd.c_str(), "r");
  if (pipe == nullptr) {
    exit_status = -1;
    return {};
  }
  std::string out;
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, pipe)) > 0) out.append(buf, n);
  const int status = ::pclose(pipe);
  exit_status = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return out;
}

std::string trim(const std::string& s) {
  const std::size_t b = s.find_first_not_of(' ');
  if (b == std::string::npos) return {};
  return s.substr(b, s.find_last_not_of(' ') - b + 1);
}

/// The (metric, value) rows of the CLI's metric/value table.
std::vector<std::pair<std::string, std::string>> metric_rows(
    const std::string& out) {
  std::vector<std::pair<std::string, std::string>> rows;
  std::istringstream in(out);
  std::string line;
  std::size_t value_col = std::string::npos;
  while (std::getline(in, line)) {
    if (value_col == std::string::npos) {
      if (line.rfind("metric ", 0) == 0) value_col = line.find("value");
      continue;
    }
    if (line.empty() || line[0] == '-') continue;
    rows.emplace_back(trim(line.substr(0, value_col)),
                      trim(line.substr(value_col)));
  }
  return rows;
}

/// Runs the CLI and the named experiment's runner on `point`, and checks
/// that the CLI printed `expected_rows` rows, each equal to the point's
/// metric of the same name.
void expect_cli_matches_point(const std::string& args, const std::string& exp,
                              SweepPoint point, std::size_t expected_rows) {
  int status = 0;
  const std::string out = run_cli(args, status);
  ASSERT_EQ(status, 0) << args << "\n" << out;
  const auto rows = metric_rows(out);
  ASSERT_EQ(rows.size(), expected_rows) << out;

  const Experiment* e = find_experiment(exp);
  ASSERT_NE(e, nullptr) << exp;
  const MetricsRegistry reg = e->runner(point);
  for (const auto& [name, value] : rows) {
    if (name == kCliOnlyRow) continue;
    ASSERT_TRUE(reg.has_value(name))
        << exp << " point does not carry the CLI row " << name;
    EXPECT_EQ(value, format_metric_number(reg.value(name))) << name;
  }
}

SweepPoint point(std::string model, std::string algorithm, int n,
                 std::string fault_plan = {}) {
  SweepPoint p;
  p.model = std::move(model);
  p.algorithm = std::move(algorithm);
  p.n = n;
  p.fault_plan = std::move(fault_plan);
  return p;
}

// Rows per protocol: msgs transfers/invalidations/updates/total and cycles
// total; then protocol.invariants_ok.
constexpr std::size_t kFleetRows = 4 * 5 + 1;

TEST(CliParity, SignalMatchesE8FlagPoint) {
  // Six run rows, the CLI-only steady-state row, the fleet.
  expect_cli_matches_point(
      "signal --alg flag --model cc --waiters 8 --delay 64 --protocols all",
      "e8", point("cc", "flag", 8), 6 + 1 + kFleetRows);
}

TEST(CliParity, MutexMatchesE8TasPoint) {
  // Steps, total RMRs, per passage, crashes, recoveries, completed,
  // spec.ok, the fleet.
  expect_cli_matches_point(
      "mutex --lock tas --model cc --procs 8 --passages 3 --protocols all",
      "e8", point("cc", "tas", 8), 7 + kFleetRows);
}

TEST(CliParity, FaultPlanMutexMatchesE9Point) {
  const std::string plan = "random:rate=0.01,seed=1234,recover=50,max=64";
  // Steps, total RMRs, passages done, per exit, crashes, recoveries,
  // failed recoveries, FIFO inversions, completed, spec.ok.
  expect_cli_matches_point(
      "mutex --lock recoverable --model dsm --procs 6 --passages 4 "
      "--fault-plan " + plan + " --max-steps 60000000",
      "e9", point("dsm", "recoverable", 6, plan), 10);
}

}  // namespace
}  // namespace rmrsim
