// Wire protocol for sharded multi-process exploration.
//
// The coordinator (verify/dist/pool.h) and its fork/exec'd workers
// (verify/dist/worker.h) talk over a pair of pipes in CRC-32-framed
// little-endian records — the exact framing the checkpoint file format uses
// (common/codec.h put_record/take_record), so a torn or corrupted frame is
// rejected, never half-parsed. Three message kinds:
//
//   kHello    worker -> coordinator, once at startup: protocol version and
//             the fingerprint of the worker's search configuration. The
//             coordinator refuses a worker whose fingerprint differs from
//             its own — a worker launched with different flags would
//             explore a subtly different tree.
//   kItem     coordinator -> worker: one work item — index, budget base,
//             root schedule, trunk path (footprints + vector clocks), sleep
//             set, naive-estimate seeds, and the serialized root world
//             (runtime/snapshot_codec.h; absent in replay mode, where the
//             worker rebuilds by replaying the schedule).
//   kOutcome  worker -> coordinator: the echoed index plus either the
//             item's ItemOutcome (verify/checkpoint.h encoding, byte-
//             identical to what the in-process pool would checkpoint) or a
//             quarantine reason.
//
// Everything decodable throws std::runtime_error on truncation, CRC
// mismatch, bad tags, or malformed payloads.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "verify/dpor.h"

namespace rmrsim::dist {

// Bump on any change to frame, message or snapshot bytes. Version history:
//   v2  per-process snapshot state no longer carries bytecode pc/register
//       fields.
//   v3  outcomes no longer carry a subtree footprint summary (checkpoint
//       format v3).
//   v4  items no longer carry a collect-completes flag (complete schedules
//       are collected in-process only), and outcomes no longer carry a node
//       count (checkpoint format v4).
inline constexpr std::uint32_t kProtocolVersion = 4;

enum class MsgTag : std::uint32_t {
  kHello = 1,
  kItem = 2,
  kOutcome = 3,
};

struct HelloMsg {
  std::uint32_t version = kProtocolVersion;
  /// Fingerprint of the worker's (instance, options) configuration —
  /// computed from the same inputs as the checkpoint fingerprint, so
  /// coordinator and worker agree iff they were launched compatibly.
  std::uint64_t fingerprint = 0;
};

struct ItemMsg {
  std::uint64_t index = 0;       ///< round-local item index, echoed back
  std::uint64_t base_nodes = 0;  ///< coordinator's committed count at dispatch
  /// The work item; `item.root_snap` stays null on the wire — the world
  /// travels as `snapshot` and is grafted onto the worker's proto.
  DporWorkItem item;
  std::string snapshot;  ///< encode_world_snapshot bytes; empty = replay mode
};

struct OutcomeMsg {
  std::uint64_t index = 0;
  DistItemResult result;
};

/// Reads the tag of a decoded frame payload without consuming it.
MsgTag peek_tag(std::string_view payload);

std::string encode_hello(const HelloMsg& msg);
std::string encode_item(const ItemMsg& msg);
std::string encode_outcome(const OutcomeMsg& msg);
HelloMsg decode_hello(std::string_view payload);
ItemMsg decode_item(std::string_view payload);
OutcomeMsg decode_outcome(std::string_view payload);

/// Writes one framed payload to `fd`, restarting on EINTR and short writes.
/// Throws std::runtime_error on any write error (EPIPE included — the
/// caller handles dead workers via the read side).
void write_frame(int fd, std::string_view payload);

/// Reads one framed payload from `fd`. Returns false on a clean EOF before
/// the first header byte (the peer closed its end between frames); throws
/// on mid-frame EOF, oversized frames, read errors, or CRC mismatch.
bool read_frame(int fd, std::string* payload);

}  // namespace rmrsim::dist
