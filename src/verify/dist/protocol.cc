#include "verify/dist/protocol.h"

#include <errno.h>
#include <unistd.h>

#include <cstring>
#include <stdexcept>

#include "common/codec.h"
#include "common/crc32.h"
#include "verify/checkpoint.h"

namespace rmrsim::dist {

namespace {

// A frame larger than this is a protocol error, not a big message: the
// largest legitimate payload is one work item carrying one world snapshot.
constexpr std::uint32_t kMaxFrameBytes = 1u << 30;

void put_tag(std::string& out, MsgTag tag) {
  put_u32(out, static_cast<std::uint32_t>(tag));
}

void expect_tag(ByteReader& r, MsgTag want) {
  const std::uint32_t got = r.u32();
  if (got != static_cast<std::uint32_t>(want)) {
    throw std::runtime_error("unexpected message tag " + std::to_string(got));
  }
}

void put_footprint(std::string& out, const Simulation::MacroFootprint& fp) {
  put_u32(out, fp.has_op ? 1 : 0);
  put_u32(out, static_cast<std::uint32_t>(fp.var));
  put_u32(out, static_cast<std::uint32_t>(fp.access));
  put_u32(out, fp.observable ? 1 : 0);
  put_u32(out, fp.terminated ? 1 : 0);
}

Simulation::MacroFootprint take_footprint(ByteReader& r) {
  Simulation::MacroFootprint fp;
  fp.has_op = r.u32() != 0;
  fp.var = static_cast<VarId>(r.u32());
  const std::uint32_t access = r.u32();
  if (access > static_cast<std::uint32_t>(AccessClass::kMutate)) {
    throw std::runtime_error("bad footprint access class");
  }
  fp.access = static_cast<AccessClass>(access);
  fp.observable = r.u32() != 0;
  fp.terminated = r.u32() != 0;
  return fp;
}

}  // namespace

MsgTag peek_tag(std::string_view payload) {
  ByteReader r(payload);
  const std::uint32_t tag = r.u32();
  if (tag < static_cast<std::uint32_t>(MsgTag::kHello) ||
      tag > static_cast<std::uint32_t>(MsgTag::kOutcome)) {
    throw std::runtime_error("bad message tag " + std::to_string(tag));
  }
  return static_cast<MsgTag>(tag);
}

std::string encode_hello(const HelloMsg& msg) {
  std::string out;
  put_tag(out, MsgTag::kHello);
  put_u32(out, msg.version);
  put_u64(out, msg.fingerprint);
  return out;
}

HelloMsg decode_hello(std::string_view payload) {
  ByteReader r(payload);
  expect_tag(r, MsgTag::kHello);
  HelloMsg msg;
  msg.version = r.u32();
  msg.fingerprint = r.u64();
  if (!r.done()) throw std::runtime_error("trailing bytes in hello");
  return msg;
}

std::string encode_item(const ItemMsg& msg) {
  std::string out;
  put_tag(out, MsgTag::kItem);
  put_u64(out, msg.index);
  put_u64(out, msg.base_nodes);
  put_schedule(out, msg.item.schedule);
  put_u32(out, static_cast<std::uint32_t>(msg.item.path.size()));
  for (const DporPathStep& s : msg.item.path) {
    put_u32(out, static_cast<std::uint32_t>(s.proc));
    put_footprint(out, s.fp);
    put_u32(out, static_cast<std::uint32_t>(s.clock.size()));
    for (const std::int32_t c : s.clock) {
      put_u32(out, static_cast<std::uint32_t>(c));
    }
  }
  put_u32(out, static_cast<std::uint32_t>(msg.item.sleep.size()));
  for (const DporSleepEntry& e : msg.item.sleep) {
    put_u32(out, static_cast<std::uint32_t>(e.proc));
    put_footprint(out, e.fp);
  }
  put_double(out, msg.item.naive_product);
  put_double(out, msg.item.naive_sum);
  put_string(out, msg.snapshot);
  return out;
}

ItemMsg decode_item(std::string_view payload) {
  ByteReader r(payload);
  expect_tag(r, MsgTag::kItem);
  ItemMsg msg;
  msg.index = r.u64();
  msg.base_nodes = r.u64();
  msg.item.schedule = r.schedule();
  // Untrusted counts: the input must hold that many minimum-size entries.
  const std::uint32_t npath = r.u32();
  r.need(std::size_t{28} * npath);
  msg.item.path.reserve(npath);
  for (std::uint32_t i = 0; i < npath; ++i) {
    DporPathStep s;
    s.proc = static_cast<ProcId>(r.u32());
    s.fp = take_footprint(r);
    const std::uint32_t nclock = r.u32();
    r.need(std::size_t{4} * nclock);
    s.clock.reserve(nclock);
    for (std::uint32_t j = 0; j < nclock; ++j) {
      s.clock.push_back(static_cast<std::int32_t>(r.u32()));
    }
    msg.item.path.push_back(std::move(s));
  }
  const std::uint32_t nsleep = r.u32();
  r.need(std::size_t{24} * nsleep);
  msg.item.sleep.reserve(nsleep);
  for (std::uint32_t i = 0; i < nsleep; ++i) {
    DporSleepEntry e;
    e.proc = static_cast<ProcId>(r.u32());
    e.fp = take_footprint(r);
    msg.item.sleep.push_back(e);
  }
  msg.item.naive_product = r.dbl();
  msg.item.naive_sum = r.dbl();
  msg.snapshot = r.str();
  if (!r.done()) throw std::runtime_error("trailing bytes in item");
  return msg;
}

std::string encode_outcome(const OutcomeMsg& msg) {
  std::string out;
  put_tag(out, MsgTag::kOutcome);
  put_u64(out, msg.index);
  put_u32(out, msg.result.ok ? 1 : 0);
  put_u64(out, msg.result.worker_failures);
  put_u64(out, msg.result.item_retries);
  if (msg.result.ok) {
    // The checkpoint encoding of the outcome, byte-identical to what the
    // in-process pool would record, plus the budget flag the checkpoint
    // format deliberately omits (budget-hit outcomes are never recorded).
    put_string(out, encode_item_outcome(msg.result.outcome));
    put_u32(out, msg.result.outcome.budget_hit ? 1 : 0);
  } else {
    put_string(out, msg.result.quarantine_reason);
  }
  return out;
}

OutcomeMsg decode_outcome(std::string_view payload) {
  ByteReader r(payload);
  expect_tag(r, MsgTag::kOutcome);
  OutcomeMsg msg;
  msg.index = r.u64();
  msg.result.ok = r.u32() != 0;
  msg.result.worker_failures = r.u64();
  msg.result.item_retries = r.u64();
  if (msg.result.ok) {
    msg.result.outcome = decode_item_outcome(r.str());
    msg.result.outcome.budget_hit = r.u32() != 0;
  } else {
    msg.result.quarantine_reason = r.str();
  }
  if (!r.done()) throw std::runtime_error("trailing bytes in outcome");
  return msg;
}

namespace {

/// Reads exactly `n` bytes, restarting on EINTR. Returns false iff EOF hits
/// before the first byte and `eof_ok`; throws on errors and short reads.
bool read_exact(int fd, char* buf, std::size_t n, bool eof_ok) {
  std::size_t got = 0;
  while (got < n) {
    const ssize_t rc = ::read(fd, buf + got, n - got);
    if (rc < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error(std::string("pipe read failed: ") +
                               std::strerror(errno));
    }
    if (rc == 0) {
      if (got == 0 && eof_ok) return false;
      throw std::runtime_error("pipe closed mid-frame");
    }
    got += static_cast<std::size_t>(rc);
  }
  return true;
}

void write_all(int fd, const char* buf, std::size_t n) {
  std::size_t put = 0;
  while (put < n) {
    const ssize_t rc = ::write(fd, buf + put, n - put);
    if (rc < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error(std::string("pipe write failed: ") +
                               std::strerror(errno));
    }
    put += static_cast<std::size_t>(rc);
  }
}

}  // namespace

namespace {

std::uint32_t load_le32(const char* p) {
  const auto* b = reinterpret_cast<const unsigned char*>(p);
  return static_cast<std::uint32_t>(b[0]) |
         (static_cast<std::uint32_t>(b[1]) << 8) |
         (static_cast<std::uint32_t>(b[2]) << 16) |
         (static_cast<std::uint32_t>(b[3]) << 24);
}

}  // namespace

void write_frame(int fd, std::string_view payload) {
  std::string buf;
  put_record(buf, payload);
  write_all(fd, buf.data(), buf.size());
}

bool read_frame(int fd, std::string* payload) {
  char hdr[4];
  if (!read_exact(fd, hdr, sizeof hdr, /*eof_ok=*/true)) return false;
  const std::uint32_t len = load_le32(hdr);
  if (len > kMaxFrameBytes) throw std::runtime_error("oversized frame");
  std::string body(std::size_t{len} + 4, '\0');
  read_exact(fd, body.data(), body.size(), /*eof_ok=*/false);
  const std::uint32_t want = load_le32(body.data() + len);
  payload->assign(body, 0, len);
  if (crc32(*payload) != want) {
    throw std::runtime_error("frame CRC mismatch");
  }
  return true;
}

}  // namespace rmrsim::dist
