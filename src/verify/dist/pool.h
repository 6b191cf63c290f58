// Fork/exec worker pool for sharded exploration — the coordinator half.
//
// DistPool implements DporOptions::dist (verify/dpor.h DistItemExecutor):
// it forks S worker processes (each exec'ing the host binary back in
// hidden worker mode, see verify/dist/worker.h), validates their hello
// handshakes against the coordinator's configuration fingerprint, and per
// round dispatches work items over the pipe protocol in canonical item
// order, one in-flight item per worker.
//
// Determinism: the pool only moves *where* an item runs. Each item is
// self-contained, outcomes are reported through the coordinator's `done`
// callback and merged by explore_dpor in item order at the round barrier —
// so an S-shard run's ExploreResult is byte-identical to the in-process
// search whenever the node budget does not trip (and with one shard,
// unconditionally: dispatch is then fully sequential).
//
// Worker failure: a worker that dies mid-item (EOF on its pipe) is reaped,
// respawned, and the item is re-dispatched, up to `item_max_attempts`
// total attempts; after that the item is quarantined with the reason —
// exactly the retry/quarantine ladder run_item_recovering applies to
// in-process failures. Charges commit only when an outcome arrives, so
// worker deaths never skew nodes_visited.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

#include "verify/dpor.h"

namespace rmrsim::dist {

class DistPool : public DistItemExecutor {
 public:
  struct Config {
    /// Worker process count (>= 1).
    int shards = 2;
    /// argv for one worker process; argv[0] is the executable path
    /// (typically /proc/self/exe readlink'd by the CLI).
    std::vector<std::string> worker_argv;
    /// The coordinator's configuration fingerprint; every worker hello
    /// must match it exactly.
    std::uint64_t fingerprint = 0;
    /// Total attempts per item across worker deaths (DporOptions::
    /// item_max_attempts).
    int item_max_attempts = 3;
    /// Environment variables to clear in respawned workers (the worker
    /// kill-switch RMRSIM_WORKER_EXIT_AFTER_ITEMS must fire once, not on
    /// every respawn).
    std::vector<std::string> clear_env_on_respawn = {
        "RMRSIM_WORKER_EXIT_AFTER_ITEMS"};
  };

  /// Spawns the workers and completes their handshakes. Throws
  /// std::runtime_error if a worker cannot be spawned or reports a
  /// mismatched fingerprint/protocol version.
  explicit DistPool(Config config);
  ~DistPool() override;

  DistPool(const DistPool&) = delete;
  DistPool& operator=(const DistPool&) = delete;

  void run_round(
      const std::vector<DporWorkItem>& items,
      const std::vector<std::size_t>& live,
      const std::function<std::uint64_t()>& committed_nodes,
      const std::function<void(std::size_t, DistItemResult&&)>& done) override;

  /// Worker processes spawned over the pool's lifetime (>= shards;
  /// respawns after deaths add to it). Exposed for tests.
  int spawns() const { return spawns_; }

 private:
  struct Worker {
    pid_t pid = -1;
    int to_fd = -1;    // coordinator -> worker (worker stdin)
    int from_fd = -1;  // worker -> coordinator (worker stdout)
    long long job = -1;  // live index in flight, -1 = idle
  };

  Worker spawn_worker();
  void shutdown_worker(Worker& w);

  Config config_;
  std::vector<Worker> workers_;
  int spawns_ = 0;
  bool respawned_once_ = false;
};

}  // namespace rmrsim::dist
