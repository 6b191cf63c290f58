// rmrbench: the timing harness behind perfbench/run.py.
//
//   rmrbench stamp
//   rmrbench setup   --workload W --dir D [--trace-seed S] [--budget-ms B]
//                    [--min-samples K]
//   rmrbench pass    --workload W --dir D [--spans FILE --pass-id ID]
//   rmrbench layers  [--trace-seed S]
//   rmrbench history-probe --n N
//
// Every subcommand first checks how it was built and refuses to time a
// Debug or sanitizer build: those numbers measure the instrumentation, not
// the simulator.
#include <cstdio>
#include <cstring>
#include <exception>
#include <string>

#include "bench.h"

namespace {

/// Non-empty when this build must not be timed; names the reason.
std::string refusal() {
  const std::string type = RMRBENCH_BUILD_TYPE;
  const std::string sanitize = RMRBENCH_SANITIZE;
  if (type == "Debug") {
    return "refusing to time a Debug build (configure with "
           "-DCMAKE_BUILD_TYPE=Release)";
  }
  if (!sanitize.empty() && sanitize != "OFF") {
    return "refusing to time an RMRSIM_SANITIZE=" + sanitize +
           " build (sanitizer instrumentation dominates the timings)";
  }
  return {};
}

std::string stamp() {
  return rmrbench::JsonObject()
      .str("build_type", RMRBENCH_BUILD_TYPE)
      .str("sanitize", RMRBENCH_SANITIZE)
      .str("compiler", std::string("gcc ") + __VERSION__)
      .dump();
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: rmrbench <stamp|setup|pass|layers|history-probe> "
                 "[--key value ...]\n");
    return 2;
  }
  const std::string cmd = argv[1];
  if (const std::string why = refusal(); !why.empty()) {
    std::fprintf(stderr, "rmrbench: %s\n", why.c_str());
    return 3;
  }
  rmrbench::Args args;
  for (int i = 2; i < argc; ++i) {
    if (std::strncmp(argv[i], "--", 2) != 0) {
      std::fprintf(stderr, "rmrbench: unexpected argument '%s'\n", argv[i]);
      return 2;
    }
    const std::string key = argv[i] + 2;
    if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
      args.kv[key] = argv[++i];
    } else {
      args.kv[key] = "1";
    }
  }
  try {
    if (cmd == "stamp") {
      std::printf("%s\n", stamp().c_str());
      return 0;
    }
    if (cmd == "setup") return rmrbench::run_setup(args);
    if (cmd == "pass") return rmrbench::run_pass(args);
    if (cmd == "layers") return rmrbench::run_layers(args);
    if (cmd == "history-probe") return rmrbench::run_history_probe(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "rmrbench %s: error: %s\n", cmd.c_str(), e.what());
    return 1;
  }
  std::fprintf(stderr, "rmrbench: unknown subcommand '%s'\n", cmd.c_str());
  return 2;
}
