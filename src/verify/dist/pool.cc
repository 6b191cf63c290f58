#include "verify/dist/pool.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <stdlib.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <deque>
#include <map>
#include <stdexcept>
#include <utility>

#include "common/check.h"
#include "runtime/snapshot_codec.h"
#include "verify/dist/protocol.h"

namespace rmrsim::dist {

namespace {

void set_cloexec(int fd) {
  const int flags = ::fcntl(fd, F_GETFD);
  if (flags >= 0) ::fcntl(fd, F_SETFD, flags | FD_CLOEXEC);
}

void close_fd(int& fd) {
  if (fd >= 0) {
    ::close(fd);
    fd = -1;
  }
}

}  // namespace

DistPool::DistPool(Config config) : config_(std::move(config)) {
  ensure(config_.shards >= 1, "DistPool needs at least one shard");
  ensure(!config_.worker_argv.empty(), "DistPool needs a worker argv");
  // A worker dying while the coordinator writes to it must surface as an
  // EPIPE error (handled as a worker death), not a fatal SIGPIPE.
  ::signal(SIGPIPE, SIG_IGN);
  workers_.reserve(static_cast<std::size_t>(config_.shards));
  for (int i = 0; i < config_.shards; ++i) {
    workers_.push_back(spawn_worker());
  }
}

DistPool::~DistPool() {
  for (Worker& w : workers_) shutdown_worker(w);
}

DistPool::Worker DistPool::spawn_worker() {
  // Parent-side pipe ends are close-on-exec so sibling workers do not
  // inherit each other's pipes (a sibling holding a stray write end would
  // keep a worker's stdin open past shutdown).
  int to[2] = {-1, -1};    // coordinator -> worker stdin
  int from[2] = {-1, -1};  // worker stdout -> coordinator
  if (::pipe(to) != 0 || ::pipe(from) != 0) {
    throw std::runtime_error(std::string("pipe() failed: ") +
                             std::strerror(errno));
  }
  set_cloexec(to[1]);
  set_cloexec(from[0]);

  std::vector<char*> argv;
  argv.reserve(config_.worker_argv.size() + 1);
  for (const std::string& a : config_.worker_argv) {
    argv.push_back(const_cast<char*>(a.c_str()));
  }
  argv.push_back(nullptr);

  const pid_t pid = ::fork();
  if (pid < 0) {
    throw std::runtime_error(std::string("fork() failed: ") +
                             std::strerror(errno));
  }
  if (pid == 0) {
    // Child: wire the protocol onto stdin/stdout and exec the worker.
    // Only async-signal-safe calls between fork and exec.
    ::dup2(to[0], 0);
    ::dup2(from[1], 1);
    ::close(to[0]);
    ::close(to[1]);
    ::close(from[0]);
    ::close(from[1]);
    ::execv(argv[0], argv.data());
    ::_exit(127);
  }
  ::close(to[0]);
  ::close(from[1]);
  ++spawns_;

  Worker w;
  w.pid = pid;
  w.to_fd = to[1];
  w.from_fd = from[0];

  // Handshake: the worker leads with its protocol version and its search
  // configuration fingerprint. Any mismatch is a launch bug, not a
  // retryable failure.
  std::string payload;
  bool got = false;
  try {
    got = read_frame(w.from_fd, &payload);
  } catch (const std::exception&) {
    got = false;
  }
  if (!got) {
    shutdown_worker(w);
    throw std::runtime_error("dist worker failed to start (no hello)");
  }
  const HelloMsg hello = decode_hello(payload);
  if (hello.version != kProtocolVersion) {
    shutdown_worker(w);
    throw std::runtime_error("dist worker protocol version mismatch");
  }
  if (hello.fingerprint != config_.fingerprint) {
    shutdown_worker(w);
    throw std::runtime_error(
        "dist worker configuration fingerprint mismatch: the worker was "
        "launched with different search options than the coordinator");
  }
  return w;
}

void DistPool::shutdown_worker(Worker& w) {
  close_fd(w.to_fd);  // EOF on the worker's stdin: it exits its loop
  close_fd(w.from_fd);
  if (w.pid > 0) {
    int status = 0;
    while (::waitpid(w.pid, &status, 0) < 0 && errno == EINTR) {
    }
    w.pid = -1;
  }
}

void DistPool::run_round(
    const std::vector<DporWorkItem>& items,
    const std::vector<std::size_t>& live,
    const std::function<std::uint64_t()>& committed_nodes,
    const std::function<void(std::size_t, DistItemResult&&)>& done) {
  struct Job {
    std::size_t idx = 0;
    int attempts = 0;          // dispatches so far (1-based once in flight)
    std::uint64_t deaths = 0;  // worker processes lost to this item
    std::uint64_t retries = 0;
  };

  std::deque<Job> queue;  // canonical order; retried items go to the front
  for (const std::size_t idx : live) queue.push_back(Job{idx});
  std::map<std::size_t, Job> inflight;  // live index -> bookkeeping
  std::size_t open = queue.size();

  // Worker-death handler shared by dispatch-time write failures and
  // read-side EOFs: reap, decide retry vs quarantine, respawn.
  const auto handle_death = [&](Worker& w) {
    if (w.pid > 0) {
      ::kill(w.pid, SIGKILL);  // no-op if already gone
    }
    shutdown_worker(w);
    if (w.job >= 0) {
      Job j = inflight.at(static_cast<std::size_t>(w.job));
      inflight.erase(static_cast<std::size_t>(w.job));
      w.job = -1;
      ++j.deaths;
      if (j.attempts >= config_.item_max_attempts) {
        DistItemResult res;
        res.ok = false;
        res.quarantine_reason = "worker process died mid-item";
        res.worker_failures = j.deaths;
        res.item_retries = j.retries;
        done(j.idx, std::move(res));
        --open;
      } else {
        ++j.retries;
        queue.push_front(j);
      }
    }
    // The worker kill-switch must fire once, not on every respawn.
    if (!respawned_once_) {
      respawned_once_ = true;
      for (const std::string& name : config_.clear_env_on_respawn) {
        ::unsetenv(name.c_str());
      }
    }
    w = spawn_worker();
  };

  while (open > 0) {
    // Dispatch to idle workers in canonical queue order. One item in
    // flight per worker: the worker is either blocked reading its stdin
    // (and will drain our write) or running an item — never writing while
    // we write, so blocking pipe I/O cannot deadlock.
    for (Worker& w : workers_) {
      if (w.job >= 0) continue;
      if (queue.empty()) break;
      Job j = queue.front();
      queue.pop_front();
      ++j.attempts;
      const DporWorkItem& item = items[j.idx];
      ItemMsg msg;
      msg.index = j.idx;
      msg.base_nodes = committed_nodes();
      msg.item.schedule = item.schedule;
      msg.item.path = item.path;
      msg.item.sleep = item.sleep;
      msg.item.naive_product = item.naive_product;
      msg.item.naive_sum = item.naive_sum;
      if (item.root_snap != nullptr) {
        msg.snapshot = encode_world_snapshot(*item.root_snap);
      }
      w.job = static_cast<long long>(j.idx);
      inflight.emplace(j.idx, j);
      try {
        write_frame(w.to_fd, encode_item(msg));
      } catch (const std::exception&) {
        handle_death(w);  // dead before it even got the item
      }
    }
    if (open == 0) break;

    // Wait for any busy worker to report (or die).
    std::vector<pollfd> fds;
    std::vector<std::size_t> who;
    for (std::size_t i = 0; i < workers_.size(); ++i) {
      if (workers_[i].job < 0) continue;
      fds.push_back(pollfd{workers_[i].from_fd, POLLIN, 0});
      who.push_back(i);
    }
    if (fds.empty()) continue;  // everything re-queued by write failures
    while (::poll(fds.data(), fds.size(), -1) < 0) {
      if (errno != EINTR) {
        throw std::runtime_error(std::string("poll() failed: ") +
                                 std::strerror(errno));
      }
    }
    for (std::size_t k = 0; k < fds.size(); ++k) {
      if ((fds[k].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      Worker& w = workers_[who[k]];
      if (w.job < 0) continue;  // already handled this sweep
      std::string payload;
      bool ok = false;
      OutcomeMsg out;
      try {
        if (read_frame(w.from_fd, &payload)) {
          out = decode_outcome(payload);
          ok = true;
        }
      } catch (const std::exception&) {
        ok = false;  // torn frame or CRC mismatch: treat as a death
      }
      if (!ok || out.index != static_cast<std::uint64_t>(w.job)) {
        handle_death(w);
        continue;
      }
      const std::size_t idx = static_cast<std::size_t>(out.index);
      Job j = inflight.at(idx);
      inflight.erase(idx);
      w.job = -1;
      DistItemResult res = std::move(out.result);
      res.worker_failures += j.deaths;
      res.item_retries += j.retries;
      done(j.idx, std::move(res));
      --open;
    }
  }
}

}  // namespace rmrsim::dist
