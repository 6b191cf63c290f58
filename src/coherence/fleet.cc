#include "coherence/fleet.h"

#include <cerrno>
#include <cstdlib>
#include <set>
#include <sstream>
#include <utility>

#include "coherence/protocols/dragon.h"
#include "coherence/protocols/mesi.h"
#include "coherence/protocols/mesif.h"
#include "coherence/protocols/moesi.h"
#include "common/check.h"

namespace rmrsim {

namespace {

/// msgs.<counter-name>.* tallies from a coherence message counter.
void publish_messages(MetricsRegistry& reg, const MessageCounter& counter) {
  const std::string base = "msgs." + std::string(counter.name());
  reg.add(base + ".transfers", counter.transfer_messages());
  reg.add(base + ".invalidations", counter.invalidation_messages());
  reg.add(base + ".useful", counter.useful_invalidations());
  reg.add(base + ".superfluous", counter.superfluous_invalidations());
  reg.add(base + ".updates", counter.update_messages());
  reg.add(base + ".total", counter.total_messages());
}

/// cycles.<protocol>.* cost-model tallies from a state machine, plus a
/// per-proc cycle summary (and its msgs.* side).
void publish_protocol(MetricsRegistry& reg, const SnoopingCache& cache) {
  publish_messages(reg, cache);
  const ProtocolStats& s = cache.stats();
  const std::string base = "cycles." + std::string(cache.name());
  reg.add(base + ".total", s.cycles);
  reg.add(base + ".hits", s.cache_hits);
  reg.add(base + ".memory_fetches", s.memory_fetches);
  reg.add(base + ".cache_transfers", s.cache_transfers);
  reg.add(base + ".bus_signals", s.bus_signals);
  reg.add(base + ".bus_updates", s.bus_updates);
  reg.add(base + ".write_backs", s.write_backs);
  for (ProcId p = 0; p < cache.nprocs(); ++p) {
    const std::uint64_t cy = cache.proc_cycles(p);
    if (cy == 0) continue;
    reg.observe(base + ".proc_cycles", static_cast<double>(cy));
  }
}

}  // namespace

const std::vector<std::string>& protocol_names() {
  static const std::vector<std::string> kNames = {"mesi", "mesif", "moesi",
                                                  "dragon"};
  return kNames;
}

std::unique_ptr<SnoopingCache> make_protocol(const std::string& name,
                                             int nprocs, CycleCosts costs) {
  if (name == "mesi") return std::make_unique<MesiCache>(nprocs, costs);
  if (name == "mesif") return std::make_unique<MesifCache>(nprocs, costs);
  if (name == "moesi") return std::make_unique<MoesiCache>(nprocs, costs);
  if (name == "dragon") return std::make_unique<DragonCache>(nprocs, costs);
  return nullptr;
}

CycleCosts parse_cycle_costs(const std::string& spec) {
  CycleCosts costs;
  if (spec.empty()) return costs;
  std::set<std::string> seen;
  std::stringstream ss(spec);
  std::string item;
  while (std::getline(ss, item, ',')) {
    const std::size_t eq = item.find('=');
    ensure(eq != std::string::npos && eq > 0 && eq + 1 < item.size(),
           "--cycle-cost: expected key=value, got '" + item + "'");
    const std::string key = item.substr(0, eq);
    const std::string val = item.substr(eq + 1);
    ensure(seen.insert(key).second,
           "--cycle-cost: duplicate key '" + key + "'");
    char* end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(val.c_str(), &end, 10);
    ensure(val[0] != '-' && end != nullptr && *end == '\0' && errno == 0,
           "--cycle-cost: " + key + " expects a non-negative integer, got '" +
               val + "'");
    if (key == "fetch") {
      costs.memory_fetch = v;
    } else if (key == "transfer") {
      costs.cache_transfer = v;
    } else if (key == "signal") {
      costs.bus_signal = v;
    } else if (key == "update") {
      costs.bus_update = v;
    } else if (key == "writeback") {
      costs.write_back = v;
    } else {
      fail("--cycle-cost: unknown key '" + key +
           "' (want fetch|transfer|signal|update|writeback)");
    }
  }
  return costs;
}

ProtocolFleet::ProtocolFleet(int nprocs,
                             const std::vector<std::string>& protocols,
                             bool legacy_counters, int write_buffer,
                             CycleCosts costs)
    : nprocs_(nprocs), legacy_(legacy_counters), coarse_(nprocs) {
  for (const std::string& name : protocols) {
    auto cache = make_protocol(name, nprocs, costs);
    ensure(cache != nullptr, "unknown protocol '" + name +
                                 "' (want mesi|mesif|moesi|dragon)");
    fanout_.add(cache.get());
    caches_.push_back(std::move(cache));
  }
  if (legacy_) {
    fanout_.add(&bus_);
    fanout_.add(&ideal_);
    fanout_.add(&coarse_);
  }
  if (write_buffer > 0) {
    ensure(!fanout_.empty(),
           "write buffer has nothing behind it: attach a protocol or the "
           "legacy counters");
    wb_.emplace(&fanout_, nprocs, write_buffer);
  }
}

CoherenceListener* ProtocolFleet::listener() {
  if (wb_) return &*wb_;
  return fanout_.empty() ? nullptr : &fanout_;
}

void ProtocolFleet::flush() {
  if (CoherenceListener* l = listener()) l->flush();
}

SnoopingCache* ProtocolFleet::cache(std::string_view name) {
  for (auto& c : caches_) {
    if (c->name() == name) return c.get();
  }
  return nullptr;
}

std::vector<MessageCounter*> ProtocolFleet::counters() {
  std::vector<MessageCounter*> out;
  for (auto& c : caches_) out.push_back(c.get());
  if (legacy_) {
    out.push_back(&bus_);
    out.push_back(&ideal_);
    out.push_back(&coarse_);
  }
  return out;
}

void ProtocolFleet::reset() {
  for (auto& c : caches_) c->reset();
  bus_.reset();
  ideal_.reset();
  coarse_.reset();
  if (wb_) wb_->reset();
}

std::optional<std::string> ProtocolFleet::check_invariants() const {
  for (const auto& c : caches_) {
    if (auto err = c->check_invariants()) return err;
  }
  return std::nullopt;
}

void ProtocolFleet::publish(MetricsRegistry& reg) const {
  for (const auto& c : caches_) publish_protocol(reg, *c);
  if (legacy_) {
    publish_messages(reg, bus_);
    publish_messages(reg, ideal_);
    publish_messages(reg, coarse_);
  }
  if (wb_) {
    reg.add("wb.buffered", wb_->buffered_writes());
    reg.add("wb.coalesced", wb_->coalesced_writes());
    reg.add("wb.forwarded", wb_->forwarded_reads());
    reg.add("wb.drained", wb_->drained_writes());
  }
  if (!caches_.empty()) {
    reg.set("protocol.invariants_ok", check_invariants() ? 0.0 : 1.0);
  }
}

}  // namespace rmrsim
