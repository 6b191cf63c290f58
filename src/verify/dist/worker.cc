#include "verify/dist/worker.h"

#include <signal.h>
#include <stdlib.h>

#include <memory>
#include <stdexcept>
#include <string>
#include <utility>

#include "runtime/snapshot_codec.h"
#include "verify/dist/protocol.h"
#include "verify/snapshot_cache.h"

namespace rmrsim::dist {

int run_dist_worker(const ExploreBuilder& build, const ExploreChecker& check,
                    const DporOptions& options, std::uint64_t fingerprint,
                    int in_fd, int out_fd) {
  HelloMsg hello;
  hello.fingerprint = fingerprint;
  write_frame(out_fd, encode_hello(hello));

  // Proto snapshot for grafting the unserializable immutables (programs,
  // policy, keepalive — see runtime/snapshot_codec.h): the untouched fresh
  // world every rebuild starts from, built exactly the way the
  // coordinator builds its own.
  std::shared_ptr<const WorldSnapshot> proto;
  if (options.snapshot.mode == SnapshotMode::kSnapshot) {
    proto = take_snapshot(fresh_world(build, options.counters_only_history,
                                      /*snapshots=*/true));
  }

  // Deterministic mid-item death for the failure harnesses: SIGKILL upon
  // receiving item N+1, after N served.
  long long exit_after = -1;
  if (const char* env = ::getenv("RMRSIM_WORKER_EXIT_AFTER_ITEMS")) {
    exit_after = ::atoll(env);
  }
  std::uint64_t served = 0;

  std::string payload;
  while (read_frame(in_fd, &payload)) {
    ItemMsg msg = decode_item(payload);
    if (exit_after >= 0 && served >= static_cast<std::uint64_t>(exit_after)) {
      ::raise(SIGKILL);
    }
    if (!msg.snapshot.empty()) {
      if (proto == nullptr) {
        throw std::runtime_error(
            "item carries a snapshot but the worker runs in replay mode");
      }
      msg.item.root_snap = std::make_shared<const WorldSnapshot>(
          decode_world_snapshot(msg.snapshot, *proto));
    }
    OutcomeMsg out;
    out.index = msg.index;
    out.result =
        run_dist_item(build, check, options, msg.item, msg.base_nodes);
    write_frame(out_fd, encode_outcome(out));
    ++served;
  }
  return 0;
}

}  // namespace rmrsim::dist
