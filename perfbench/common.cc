#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <memory>

#include "bench.h"
#include "common/table.h"
#include "harness/drive.h"
#include "signaling/checker.h"

namespace rmrbench {

using namespace rmrsim;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

namespace {

double tv_seconds(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) +
         static_cast<double>(tv.tv_usec) / 1e6;
}

double rusage_seconds(int who) {
  rusage ru{};
  getrusage(who, &ru);
  return tv_seconds(ru.ru_utime) + tv_seconds(ru.ru_stime);
}

}  // namespace

double cpu_seconds() {
  return rusage_seconds(RUSAGE_SELF) + rusage_seconds(RUSAGE_CHILDREN);
}

std::string Args::get(const std::string& key, const std::string& def) const {
  const auto it = kv.find(key);
  return it == kv.end() ? def : it->second;
}

long long Args::get_int(const std::string& key, long long def) const {
  const auto it = kv.find(key);
  if (it == kv.end()) return def;
  char* end = nullptr;
  const long long v = std::strtoll(it->second.c_str(), &end, 10);
  if (end == it->second.c_str() || *end != '\0') {
    std::fprintf(stderr, "rmrbench: --%s expects an integer, got '%s'\n",
                 key.c_str(), it->second.c_str());
    std::exit(2);
  }
  return v;
}

// ---- JSON ------------------------------------------------------------------

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void JsonObject::key(std::string_view k) {
  if (!body_.empty()) body_ += ',';
  body_ += '"';
  body_ += json_escape(k);
  body_ += "\":";
}

JsonObject& JsonObject::num(std::string_view k, double value) {
  key(k);
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  body_ += buf;
  return *this;
}

JsonObject& JsonObject::count(std::string_view k, std::uint64_t value) {
  key(k);
  body_ += std::to_string(value);
  return *this;
}

JsonObject& JsonObject::str(std::string_view k, std::string_view value) {
  key(k);
  body_ += '"';
  body_ += json_escape(value);
  body_ += '"';
  return *this;
}

JsonObject& JsonObject::boolean(std::string_view k, bool value) {
  key(k);
  body_ += value ? "true" : "false";
  return *this;
}

JsonObject& JsonObject::raw(std::string_view k, const std::string& json) {
  key(k);
  body_ += json;
  return *this;
}

// ---- workload configs ------------------------------------------------------

const std::vector<std::string>& trace_models() {
  static const std::vector<std::string> kModels = {"dsm", "cc", "cc-wb",
                                                   "cc-mesi", "cc-lfcu"};
  return kModels;
}

ExploreBuilder explore_builder() {
  const int waiters = kExploreWaiters;
  const int polls = kExplorePolls;
  const int nprocs = waiters + 1;
  const SignalingFactory factory =
      make_signal_factory_by_name("registration", nprocs - 1);
  return [=]() {
    ExploreInstance inst;
    inst.mem = make_model_by_name("dsm", nprocs);
    std::shared_ptr<SignalingAlgorithm> alg{factory(*inst.mem)};
    std::vector<Program> programs;
    for (int i = 0; i < waiters; ++i) {
      programs.emplace_back([a = alg.get(), polls](ProcCtx& ctx) {
        return polling_waiter(ctx, a, polls);
      });
    }
    programs.emplace_back(
        [a = alg.get()](ProcCtx& ctx) { return signaler(ctx, a); });
    inst.sim = std::make_unique<Simulation>(*inst.mem, std::move(programs));
    inst.keepalive = alg;
    return inst;
  };
}

ExploreChecker explore_checker() {
  return [](const History& h) -> std::optional<std::string> {
    if (const auto v = check_polling_spec(h)) return v->what;
    return std::nullopt;
  };
}

DporOptions explore_options(int workers) {
  DporOptions opt;
  opt.max_depth = kExploreDepth;
  opt.max_nodes = kExploreMaxNodes;
  opt.workers = workers;
  return opt;
}

// A copy of the CLI's report renderer (tools/rmrsim_cli.cc, `explore`) in its
// single-worker form. The CLI adds "parallel rounds" and "work items" rows
// when --workers > 1; they are left out here although the in-process pass
// searches with 2 worker threads. Those two rows depend on how the search is
// split, and the sharded CLI run (--shards 2, 1 worker per process) prints
// neither, so leaving them out makes the two reports comparable. The other
// rows are the search's results and must match byte for byte. A change to
// the CLI's report format must be mirrored here.
std::string render_explore_report(const ExploreResult& r) {
  TextTable t;
  t.set_header({"metric", "dpor"});
  t.add_row({"nodes visited", std::to_string(r.nodes_visited)});
  t.add_row({"complete schedules", std::to_string(r.complete_schedules)});
  t.add_row({"truncated schedules", std::to_string(r.truncated_schedules)});
  t.add_row({"exhausted", r.exhausted ? "yes"
                                      : (r.quarantined_items.empty()
                                             ? "NO (max-nodes hit)"
                                             : "NO (items quarantined)")});
  t.add_row({"sleep-set prunes", std::to_string(r.stats.sleep_set_prunes)});
  t.add_row({"backtrack points", std::to_string(r.stats.backtrack_points)});
  t.add_row({"replayed sim steps", std::to_string(r.stats.replayed_steps)});
  t.add_row({"naive tree estimate", fixed(r.stats.naive_tree_estimate)});
  t.add_row({"verdict",
             r.violation ? "VIOLATED: " + *r.violation : "no violation"});
  std::string report = t.render();
  const auto join = [](const std::vector<ProcId>& schedule) {
    std::string out;
    for (const ProcId p : schedule) {
      if (!out.empty()) out += ' ';
      out += std::to_string(p);
    }
    return out;
  };
  for (const ExploreResult::QuarantinedItem& q : r.quarantined_items) {
    report += "quarantined item (" + std::to_string(q.schedule.size()) +
              " steps): " + join(q.schedule) + " — " + q.reason + "\n";
  }
  if (r.violation) {
    report += "violating schedule (" +
              std::to_string(r.violating_schedule.size()) + " steps): " +
              join(r.violating_schedule) + "\n";
  }
  return report;
}

// ---- recorders -------------------------------------------------------------

namespace {

std::size_t thread_slot() {
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t slot = next.fetch_add(1);
  return slot;
}

}  // namespace

void CallTally::add(std::uint64_t ns) {
  Slot& s = slots_[thread_slot() % kSlots];
  s.calls.fetch_add(1, std::memory_order_relaxed);
  s.ns.fetch_add(ns, std::memory_order_relaxed);
}

std::uint64_t CallTally::calls() const {
  std::uint64_t total = 0;
  for (const Slot& s : slots_) total += s.calls.load();
  return total;
}

std::uint64_t CallTally::ns() const {
  std::uint64_t total = 0;
  for (const Slot& s : slots_) total += s.ns.load();
  return total;
}

namespace {

std::uint64_t ns_since(Clock::time_point t0) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0)
          .count());
}

}  // namespace

ExploreBuilder timed_builder(ExploreBuilder build, CallTally* tally,
                             SpanLog* spans, int parent) {
  return [build = std::move(build), tally, spans, parent]() {
    ScopedSpan s(spans, "verify.build", parent);
    const auto t0 = Clock::now();
    ExploreInstance inst = build();
    tally->add(ns_since(t0));
    return inst;
  };
}

ExploreChecker timed_checker(ExploreChecker check, CallTally* tally) {
  return [check = std::move(check), tally](const History& h) {
    const auto t0 = Clock::now();
    auto verdict = check(h);
    tally->add(ns_since(t0));
    return verdict;
  };
}

int SpanLog::open(std::string name, int parent) {
  const std::int64_t start = now_ns();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{std::move(name), parent, start, 0});
  return static_cast<int>(spans_.size()) - 1;
}

void SpanLog::close(int id) {
  const std::int64_t end = now_ns();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(id)].end_ns = end;
}

std::string SpanLog::to_json() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (i != 0) out += ',';
    out += JsonObject()
               .count("id", i)
               .str("name", s.name)
               .num("parent", s.parent)
               .str("pass", pass_id_)
               .num("start_ns", static_cast<double>(s.start_ns))
               .num("end_ns", static_cast<double>(s.end_ns))
               .dump();
  }
  return out + "]";
}

}  // namespace rmrbench
