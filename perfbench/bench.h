// Shared pieces of the rmrbench harness: the pinned workload configs, a
// minimal JSON writer, host timing, and the span/tally recorders the traced
// run uses. Every timing in the harness is host time; every count it
// reports is a simulated quantity the program computed.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "verify/dpor.h"

namespace rmrbench {

using Clock = std::chrono::steady_clock;

/// Host seconds since `t0`.
double seconds_since(Clock::time_point t0);

/// Host nanoseconds on the steady clock (span timestamps).
std::int64_t now_ns();

/// User + system CPU seconds of this process (all threads) plus every child
/// it has waited for.
double cpu_seconds();

/// Command-line flags as `--key value` pairs; a flag without a value maps to
/// "1".
struct Args {
  std::map<std::string, std::string> kv;
  std::string get(const std::string& key, const std::string& def = "") const;
  long long get_int(const std::string& key, long long def) const;
};

/// A JSON object assembled key by key in insertion order. Doubles keep every
/// digit (%.17g); counts print as integers.
class JsonObject {
 public:
  JsonObject& num(std::string_view key, double value);
  JsonObject& count(std::string_view key, std::uint64_t value);
  JsonObject& str(std::string_view key, std::string_view value);
  JsonObject& boolean(std::string_view key, bool value);
  JsonObject& raw(std::string_view key, const std::string& json);
  std::string dump() const { return "{" + body_ + "}"; }

 private:
  void key(std::string_view k);
  std::string body_;
};

std::string json_escape(std::string_view s);

// ---- pinned workload configurations -------------------------------------

/// trace_fleet: a zipf trace of this shape, replayed through every model
/// with every protocol behind an 8-entry write buffer.
inline constexpr int kTraceProcs = 32;
inline constexpr std::uint64_t kTraceOps = 1'000'000;
inline constexpr int kTraceWriteBuffer = 8;
const std::vector<std::string>& trace_models();

/// The explore reference config: `explore --target signal --alg
/// registration --waiters 3 --polls 2 --depth 32 --max-nodes 3000000`.
inline constexpr int kExploreWaiters = 3;
inline constexpr int kExplorePolls = 2;
inline constexpr int kExploreDepth = 32;
inline constexpr std::uint64_t kExploreMaxNodes = 3'000'000;
/// Workers (threads or shards) for every parallel pass: the benchmark uses
/// at most two.
inline constexpr int kWorkers = 2;

/// The reference instance, built the way the CLI's `explore --target
/// signal` builds it.
rmrsim::ExploreBuilder explore_builder();
rmrsim::ExploreChecker explore_checker();
/// DporOptions as the CLI sets them for the reference config.
rmrsim::DporOptions explore_options(int workers);
/// The results block the CLI writes with `--report` for a 1-worker run,
/// sharded or not, byte for byte. The CLI's two extra rows for
/// `--workers > 1` are never printed.
std::string render_explore_report(const rmrsim::ExploreResult& r);

// ---- traced-run recorders -------------------------------------------------

/// Calls and host nanoseconds of one wrapped function, accumulated in
/// per-thread slots so concurrent callers never share a cache line.
class CallTally {
 public:
  void add(std::uint64_t ns);
  std::uint64_t calls() const;
  std::uint64_t ns() const;

 private:
  struct alignas(64) Slot {
    std::atomic<std::uint64_t> calls{0};
    std::atomic<std::uint64_t> ns{0};
  };
  static constexpr std::size_t kSlots = 64;
  std::array<Slot, kSlots> slots_;
};

/// Spans recorded around calls into the program's layers: name, start,
/// end, parent span and the pass they belong to. Kept in memory and written
/// out once, when the pass ends. Thread-safe.
class SpanLog {
 public:
  explicit SpanLog(std::string pass_id) : pass_id_(std::move(pass_id)) {}

  /// Opens a span under `parent` (-1 = root) and returns its id.
  int open(std::string name, int parent);
  void close(int id);

  /// The spans as a JSON array.
  std::string to_json() const;

 private:
  struct Span {
    std::string name;
    int parent = -1;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
  };
  std::string pass_id_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
};

/// Closes its span on scope exit. A null log records nothing.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, std::string name, int parent)
      : log_(log), id_(log ? log->open(std::move(name), parent) : -1) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->close(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int id() const { return id_; }

 private:
  SpanLog* log_;
  int id_;
};

/// `build` and `check` with every call timed into `tally`; the builder's
/// calls are also spanned under `parent` when `spans` is set. The checker
/// runs at every search node, so it is tallied rather than spanned.
rmrsim::ExploreBuilder timed_builder(rmrsim::ExploreBuilder build,
                                     CallTally* tally, SpanLog* spans = nullptr,
                                     int parent = -1);
rmrsim::ExploreChecker timed_checker(rmrsim::ExploreChecker check,
                                     CallTally* tally);

// ---- subcommands -----------------------------------------------------------

int run_setup(const Args& args);
int run_pass(const Args& args);
int run_layers(const Args& args);
int run_history_probe(const Args& args);

}  // namespace rmrbench
