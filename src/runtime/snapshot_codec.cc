#include "runtime/snapshot_codec.h"

#include <stdexcept>

#include "common/check.h"
#include "common/codec.h"
#include "common/crc32.h"

namespace rmrsim {

namespace {

void put_ledger(std::string& out, const RmrLedger& ledger) {
  put_u32(out, static_cast<std::uint32_t>(ledger.nprocs()));
  for (int p = 0; p < ledger.nprocs(); ++p) {
    put_u64(out, ledger.ops(static_cast<ProcId>(p)));
    put_u64(out, ledger.rmrs(static_cast<ProcId>(p)));
  }
}

RmrLedger take_ledger(ByteReader& r) {
  const int nprocs = static_cast<int>(r.u32());
  if (nprocs <= 0 || nprocs > 1 << 20) {
    throw std::runtime_error("bad ledger process count");
  }
  RmrLedger ledger(nprocs);
  for (int p = 0; p < nprocs; ++p) {
    const std::uint64_t ops = r.u64();
    const std::uint64_t rmrs = r.u64();
    if (rmrs > ops) throw std::runtime_error("ledger rmrs exceed ops");
    ledger.charge(static_cast<ProcId>(p), ops, rmrs);
  }
  return ledger;
}

/// World core shared by the wire format and the fingerprint: cost-model
/// identity and state, store content, ledger, clock.
void put_world_core(std::string& out, const WorldSnapshot& snap) {
  put_string(out, snap.model->name());
  std::string state;
  snap.model->save_state(state);
  put_string(out, state);
  snap.store.encode(out);
  put_ledger(out, snap.ledger);
  put_u64(out, snap.now);
}

void put_procs(std::string& out, const WorldSnapshot& snap) {
  put_u32(out, static_cast<std::uint32_t>(snap.procs.size()));
  for (const WorldSnapshot::ProcState& ps : snap.procs) {
    put_u32(out, ps.started ? 1 : 0);
    put_u32(out, ps.finished ? 1 : 0);
    put_u32(out, ps.erased ? 1 : 0);
    put_u32(out, ps.crashed ? 1 : 0);
    put_u32(out, static_cast<std::uint32_t>(ps.directives));
    put_u32(out, static_cast<std::uint32_t>(ps.crashes));
    put_u32(out, static_cast<std::uint32_t>(ps.recoveries));
    put_u64(out, ps.steps);
    put_u64(out, ps.wake_time);
    put_u32(out, static_cast<std::uint32_t>(ps.log.size()));
    for (const ResumeRecord& rec : ps.log) {
      put_u32(out, static_cast<std::uint32_t>(rec.kind));
      put_u64(out, static_cast<std::uint64_t>(rec.outcome.result));
      put_u32(out, rec.outcome.rmr ? 1 : 0);
      put_u32(out, rec.outcome.nontrivial ? 1 : 0);
      put_u32(out, static_cast<std::uint32_t>(rec.outcome.prev_writer));
      put_u32(out, static_cast<std::uint32_t>(rec.directive.action));
      put_u64(out, static_cast<std::uint64_t>(rec.directive.arg));
    }
  }
}

std::vector<WorldSnapshot::ProcState> take_procs(ByteReader& r) {
  // Untrusted counts: the input must hold that many minimum-size entries.
  const std::uint32_t n = r.u32();
  r.need(std::size_t{48} * n);
  std::vector<WorldSnapshot::ProcState> procs;
  procs.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    WorldSnapshot::ProcState ps;
    ps.started = r.u32() != 0;
    ps.finished = r.u32() != 0;
    ps.erased = r.u32() != 0;
    ps.crashed = r.u32() != 0;
    ps.directives = static_cast<int>(r.u32());
    ps.crashes = static_cast<int>(r.u32());
    ps.recoveries = static_cast<int>(r.u32());
    ps.steps = r.u64();
    ps.wake_time = r.u64();
    const std::uint32_t nlog = r.u32();
    r.need(std::size_t{36} * nlog);
    ps.log.reserve(nlog);
    for (std::uint32_t j = 0; j < nlog; ++j) {
      ResumeRecord rec;
      const std::uint32_t kind = r.u32();
      if (kind > static_cast<std::uint32_t>(ActionKind::kFinished)) {
        throw std::runtime_error("bad resume-record kind");
      }
      rec.kind = static_cast<ActionKind>(kind);
      rec.outcome.result = static_cast<Word>(r.u64());
      rec.outcome.rmr = r.u32() != 0;
      rec.outcome.nontrivial = r.u32() != 0;
      rec.outcome.prev_writer = static_cast<ProcId>(r.u32());
      rec.directive.action = static_cast<int>(r.u32());
      rec.directive.arg = static_cast<Word>(r.u64());
      ps.log.push_back(rec);
    }
    procs.push_back(std::move(ps));
  }
  return procs;
}

}  // namespace

std::string encode_world_snapshot(const WorldSnapshot& snap) {
  ensure(snap.model != nullptr,
         "encode_world_snapshot() on a moved-from snapshot");
  std::string out;
  put_world_core(out, snap);
  snap.history.encode(out);
  put_schedule(out, snap.schedule);
  put_u32(out, static_cast<std::uint32_t>(snap.fault_trace.size()));
  for (const Simulation::FaultRecord& f : snap.fault_trace) {
    put_u32(out, static_cast<std::uint32_t>(f.kind));
    put_u32(out, static_cast<std::uint32_t>(f.proc));
    put_u64(out, f.at);
  }
  put_procs(out, snap);
  return out;
}

WorldSnapshot decode_world_snapshot(std::string_view bytes,
                                    const WorldSnapshot& proto) {
  ensure(proto.model != nullptr,
         "decode_world_snapshot() needs a proto with a live cost model");
  ByteReader r(bytes);
  WorldSnapshot out;
  const std::string model_name = r.str();
  if (model_name != proto.model->name()) {
    throw std::runtime_error("snapshot cost-model mismatch: wire has '" +
                             model_name + "', this process runs '" +
                             std::string(proto.model->name()) + "'");
  }
  out.model = proto.model->clone();
  out.model->reset();
  {
    const std::string state = r.str();
    ByteReader sr(state);
    out.model->load_state(sr);
    if (!sr.done()) {
      throw std::runtime_error("trailing bytes in cost-model state");
    }
  }
  out.store = proto.store;
  out.store.decode(r);
  out.ledger = take_ledger(r);
  if (out.ledger.nprocs() != proto.ledger.nprocs()) {
    throw std::runtime_error("snapshot ledger process count mismatch");
  }
  out.now = r.u64();
  out.history.decode(r);
  out.schedule = r.schedule();
  const std::uint32_t nfaults = r.u32();
  r.need(std::size_t{16} * nfaults);
  out.fault_trace.reserve(nfaults);
  for (std::uint32_t i = 0; i < nfaults; ++i) {
    Simulation::FaultRecord f;
    const std::uint32_t kind = r.u32();
    if (kind > static_cast<std::uint32_t>(
                   Simulation::FaultRecord::Kind::kRecover)) {
      throw std::runtime_error("bad fault-record kind");
    }
    f.kind = static_cast<Simulation::FaultRecord::Kind>(kind);
    f.proc = static_cast<ProcId>(r.u32());
    f.at = r.u64();
    out.fault_trace.push_back(f);
  }
  out.procs = take_procs(r);
  if (out.procs.size() != proto.procs.size()) {
    throw std::runtime_error("snapshot process count mismatch");
  }
  if (!r.done()) throw std::runtime_error("trailing bytes in snapshot");
  out.programs = proto.programs;
  out.policy = proto.policy;
  out.keepalive = proto.keepalive;
  return out;
}

std::uint64_t WorldSnapshot::fingerprint() const {
  ensure(model != nullptr, "fingerprint() on a moved-from snapshot");
  std::string bytes;
  put_world_core(bytes, *this);
  history.encode_counters(bytes);
  put_procs(bytes, *this);
  return fnv1a64(bytes);
}

}  // namespace rmrsim
