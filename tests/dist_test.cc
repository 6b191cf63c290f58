// Sharded exploration: fingerprints, the snapshot/work-item wire codec,
// frame integrity, and the dist executor's byte-identical merge.
//
// The multi-process pool itself (fork/exec, pipes, respawn) is covered
// end-to-end by the shard-parity ctests and resume_harness; these tests pin
// the layers underneath with no processes involved:
//
//  * WorldSnapshot::fingerprint — deterministic across fork/restore round
//    trips and across re-encodes, sensitive to a single poked store word.
//  * encode/decode_world_snapshot — canonical round trip, loud rejection
//    of truncation and structural mismatch.
//  * protocol frames — CRC-checked round trip over a real pipe; torn
//    writes and flipped bytes throw, clean EOF returns false.
//  * decoder count bounds — a length field the input cannot back is a
//    named std::runtime_error, never an allocation sized by it.
//
// The whole dist stack minus fork — every work item through the wire codec
// and run_dist_item in-process — runs on every corpus world in
// oracle_matrix_test (LoopbackExecutor).
#include <gtest/gtest.h>
#include <unistd.h>

#include <memory>
#include <string>
#include <vector>

#include "common/codec.h"
#include "harness/drive.h"
#include "history/history.h"
#include "memory/cc_model.h"
#include "memory/shared_memory.h"
#include "runtime/simulation.h"
#include "runtime/snapshot_codec.h"
#include "verify/checkpoint.h"
#include "verify/dist/protocol.h"
#include "verify/dpor.h"
#include "verify/explorer.h"
#include "verify/snapshot_cache.h"

namespace rmrsim {
namespace {

std::shared_ptr<const WorldSnapshot> snapshot_after(
    const ExploreBuilder& build, const std::vector<ProcId>& schedule) {
  ExploreInstance inst = build();
  inst.sim->enable_fork_log();
  for (const ProcId p : schedule) inst.sim->macro_step(p);
  return take_snapshot(inst);
}

// ---- fingerprint ------------------------------------------------------

TEST(Fingerprint, StableAcrossForkRestoreRoundTrips) {
  const ExploreBuilder build = signaling_explore_builder(
      "dsm", make_signal_factory_by_name("registration", 2), 2, 1);
  const auto snap = snapshot_after(build, {0, 1, 2});
  const std::uint64_t fp = snap->fingerprint();
  EXPECT_EQ(fp, snap->fingerprint()) << "fingerprint must be pure";

  // Restore the world, snapshot it again untouched: same semantic state,
  // same hash.
  ExploreInstance restored = restore_instance(*snap);
  const auto again = take_snapshot(restored);
  EXPECT_EQ(again->fingerprint(), fp);

  // And across the wire: decode(encode(snap)) hashes identically too.
  const auto proto = snapshot_after(build, {});
  const WorldSnapshot decoded =
      decode_world_snapshot(encode_world_snapshot(*snap), *proto);
  EXPECT_EQ(decoded.fingerprint(), fp);
}

TEST(Fingerprint, DistinguishesStatesAndIgnoresHowTheyWereReached) {
  const ExploreBuilder build = signaling_explore_builder(
      "dsm", make_signal_factory_by_name("registration", 2), 2, 1);
  const auto before = snapshot_after(build, {});
  const auto after = snapshot_after(build, {0});
  EXPECT_NE(before->fingerprint(), after->fingerprint())
      << "a executed step must change the world hash";

  // A single poked store word flips the hash: two identically-driven
  // worlds hash equal until exactly one word of one store is changed.
  const auto a = snapshot_after(build, {0, 1});
  ExploreInstance inst = build();
  inst.sim->enable_fork_log();
  inst.sim->macro_step(0);
  inst.sim->macro_step(1);
  ASSERT_EQ(take_snapshot(inst)->fingerprint(), a->fingerprint());
  MemoryStore& store = inst.mem->store();
  ASSERT_GT(store.num_vars(), 0);
  store.poke(VarId{0}, store.value(VarId{0}) + 1, kNoProc);
  EXPECT_NE(take_snapshot(inst)->fingerprint(), a->fingerprint());
}

// ---- snapshot wire codec ---------------------------------------------

TEST(SnapshotWireCodec, CanonicalRoundTrip) {
  const ExploreBuilder build = signaling_explore_builder(
      "dsm", make_signal_factory_by_name("registration", 2), 2, 1);
  const auto snap = snapshot_after(build, {0, 2, 1});
  const auto proto = snapshot_after(build, {});

  const std::string wire = encode_world_snapshot(*snap);
  const WorldSnapshot decoded = decode_world_snapshot(wire, *proto);
  // Canonical: re-encoding the decoded snapshot reproduces the bytes.
  EXPECT_EQ(encode_world_snapshot(decoded), wire);

  // The decoded world must actually run: restore it and drive the same
  // macro step in both worlds, then compare the hashes again.
  ExploreInstance orig = restore_instance(*snap);
  ExploreInstance copy = restore_instance(decoded);
  orig.sim->macro_step(1);
  copy.sim->macro_step(1);
  EXPECT_EQ(take_snapshot(orig)->fingerprint(),
            take_snapshot(copy)->fingerprint());
}

TEST(SnapshotWireCodec, RejectsTruncationAndStructuralMismatch) {
  const ExploreBuilder build = signaling_explore_builder(
      "dsm", make_signal_factory_by_name("registration", 2), 2, 1);
  const auto snap = snapshot_after(build, {0});
  const auto proto = snapshot_after(build, {});
  const std::string wire = encode_world_snapshot(*snap);

  // Truncation at any coarse cut must throw, never return a world.
  for (const std::size_t keep :
       {std::size_t{0}, std::size_t{3}, wire.size() / 2, wire.size() - 1}) {
    EXPECT_THROW(decode_world_snapshot(wire.substr(0, keep), *proto),
                 std::exception)
        << "truncated to " << keep << " bytes";
  }
  // Trailing garbage is a malformed payload, not padding.
  EXPECT_THROW(decode_world_snapshot(wire + "x", *proto), std::exception);

  // A proto of a structurally different instance (different store layout /
  // process count) must be refused: grafting immutables across instance
  // shapes would explore a subtly different world.
  const auto other_proto = snapshot_after(
      signaling_explore_builder(
          "dsm", make_signal_factory_by_name("registration", 3), 3, 1),
      {});
  EXPECT_THROW(decode_world_snapshot(wire, *other_proto), std::exception);
}

// ---- pipe frames ------------------------------------------------------

struct Pipe {
  int fd[2] = {-1, -1};
  Pipe() { EXPECT_EQ(::pipe(fd), 0); }
  ~Pipe() {
    if (fd[0] >= 0) ::close(fd[0]);
    if (fd[1] >= 0) ::close(fd[1]);
  }
  void close_write() {
    ::close(fd[1]);
    fd[1] = -1;
  }
};

TEST(DistFrames, RoundTripAndCleanEof) {
  Pipe p;
  // Multi-PIPE_BUF but under the 64 KiB pipe capacity: both frames must be
  // fully buffered before the single-threaded read below drains them.
  dist::write_frame(p.fd[1], "hello frame");
  dist::write_frame(p.fd[1], std::string(40'000, 'x'));
  p.close_write();

  std::string payload;
  ASSERT_TRUE(dist::read_frame(p.fd[0], &payload));
  EXPECT_EQ(payload, "hello frame");
  ASSERT_TRUE(dist::read_frame(p.fd[0], &payload));
  EXPECT_EQ(payload, std::string(40'000, 'x'));
  // Writer gone, no bytes pending: clean EOF is false, not a throw — the
  // worker's normal shutdown signal.
  EXPECT_FALSE(dist::read_frame(p.fd[0], &payload));
}

TEST(DistFrames, TornFrameAndCorruptionThrow) {
  {
    // EOF mid-frame: the length header promises more bytes than arrive.
    Pipe p;
    std::string frame;
    put_record(frame, "a torn frame's payload");
    const std::string half = frame.substr(0, frame.size() / 2);
    ASSERT_EQ(::write(p.fd[1], half.data(), half.size()),
              static_cast<ssize_t>(half.size()));
    p.close_write();
    std::string payload;
    EXPECT_THROW(dist::read_frame(p.fd[0], &payload), std::exception);
  }
  {
    // One flipped payload byte: the CRC trailer must catch it.
    Pipe p;
    std::string frame;
    put_record(frame, "payload protected by crc32");
    frame[6] ^= 0x20;
    ASSERT_EQ(::write(p.fd[1], frame.data(), frame.size()),
              static_cast<ssize_t>(frame.size()));
    p.close_write();
    std::string payload;
    EXPECT_THROW(dist::read_frame(p.fd[0], &payload), std::exception);
  }
}

TEST(DistProtocol, MessageRoundTrips) {
  dist::HelloMsg hello;
  hello.fingerprint = 0xDEADBEEFCAFEF00DULL;
  const dist::HelloMsg hello2 = dist::decode_hello(dist::encode_hello(hello));
  EXPECT_EQ(hello2.version, dist::kProtocolVersion);
  EXPECT_EQ(hello2.fingerprint, hello.fingerprint);

  dist::ItemMsg item;
  item.index = 7;
  item.base_nodes = 12345;
  item.item.schedule = {0, 2, 1};
  item.item.naive_product = 6.0;
  item.item.naive_sum = 11.0;
  DporPathStep step;
  step.proc = 2;
  step.fp = {true, 3, AccessClass::kMutate, false, false};
  step.clock = {1, 0, 2};
  item.item.path = {step};
  item.item.sleep = {{1, {true, 5, AccessClass::kObserve, true,
                          false}}};
  item.snapshot = "opaque snapshot bytes";
  const dist::ItemMsg item2 = dist::decode_item(dist::encode_item(item));
  EXPECT_EQ(item2.index, item.index);
  EXPECT_EQ(item2.base_nodes, item.base_nodes);
  EXPECT_EQ(item2.item.schedule, item.item.schedule);
  ASSERT_EQ(item2.item.path.size(), 1u);
  EXPECT_EQ(item2.item.path[0].proc, 2);
  EXPECT_EQ(item2.item.path[0].fp.var, 3);
  EXPECT_EQ(item2.item.path[0].clock, step.clock);
  ASSERT_EQ(item2.item.sleep.size(), 1u);
  EXPECT_EQ(item2.item.sleep[0].fp.var, 5);
  EXPECT_EQ(item2.item.naive_product, 6.0);
  EXPECT_EQ(item2.item.naive_sum, 11.0);
  EXPECT_EQ(item2.snapshot, item.snapshot);

  dist::OutcomeMsg out;
  out.index = 7;
  out.result.ok = true;
  out.result.worker_failures = 2;
  out.result.item_retries = 1;
  out.result.outcome.schedule = {0, 2, 1};
  out.result.outcome.charged = 42;
  const dist::OutcomeMsg out2 =
      dist::decode_outcome(dist::encode_outcome(out));
  EXPECT_EQ(out2.index, 7u);
  EXPECT_TRUE(out2.result.ok);
  EXPECT_EQ(out2.result.worker_failures, 2u);
  EXPECT_EQ(out2.result.item_retries, 1u);
  EXPECT_EQ(out2.result.outcome.schedule, out.result.outcome.schedule);
  EXPECT_EQ(out2.result.outcome.charged, 42u);

  dist::OutcomeMsg bad;
  bad.index = 9;
  bad.result.ok = false;
  bad.result.quarantine_reason = "deliberate";
  const dist::OutcomeMsg bad2 =
      dist::decode_outcome(dist::encode_outcome(bad));
  EXPECT_FALSE(bad2.result.ok);
  EXPECT_EQ(bad2.result.quarantine_reason, "deliberate");
}

// ---- decoder count bounds ---------------------------------------------

/// `prefix` followed by a u32 count of 0xFFFFFFFF and nothing else: a
/// length field no short buffer can back. The count is deliberately the
/// maximum — a decoder that sizes a container from it before checking the
/// input asks for tens of gigabytes and dies with std::bad_alloc.
std::string with_huge_count(std::string prefix) {
  put_u32(prefix, 0xFFFFFFFFu);
  return prefix;
}

TEST(DecoderBounds, HugeCountsAreNamedErrorsNotAllocations) {
  // History::decode: the per-process counter count, then (full mode) the
  // record count after an empty counter block.
  const auto history_rejects = [](const std::string& prefix) {
    const std::string bytes = with_huge_count(prefix);
    ByteReader r(bytes);
    History h;
    EXPECT_THROW(h.decode(r), std::runtime_error);
  };
  std::string head;
  put_u32(head, static_cast<std::uint32_t>(HistoryMode::kCountersOnly));
  history_rejects(head);
  head.clear();
  put_u32(head, static_cast<std::uint32_t>(HistoryMode::kFull));
  put_u32(head, 0);                              // no per-process counters
  for (int i = 0; i < 4; ++i) put_u64(head, 0);  // size and the three totals
  put_u32(head, 0);                              // saw_ll_sc
  history_rejects(head);
  // CcModel::load_state: the cache-line count.
  {
    const std::string bytes = with_huge_count("");
    ByteReader r(bytes);
    CcModel model(CcPolicy::kWriteBack);
    EXPECT_THROW(model.load_state(r), std::runtime_error);
  }
  // decode_world_snapshot: the fault-record, process and resume-log counts.
  // The snapshot ends with the fault trace and the per-process states, so
  // their offsets follow from the encoded sizes of those tail sections.
  {
    const ExploreBuilder build = signaling_explore_builder(
        "dsm", make_signal_factory_by_name("registration", 2), 2, 1);
    const auto snap = snapshot_after(build, {0, 2});
    const auto proto = snapshot_after(build, {});
    const std::string wire = encode_world_snapshot(*snap);
    std::size_t procs_bytes = 4;
    for (const WorldSnapshot::ProcState& ps : snap->procs) {
      procs_bytes += 48 + 36 * ps.log.size();
    }
    const std::size_t procs_at = wire.size() - procs_bytes;
    const std::size_t faults_at = procs_at - 4 - 16 * snap->fault_trace.size();

    EXPECT_THROW(
        decode_world_snapshot(with_huge_count(wire.substr(0, faults_at)),
                              *proto),
        std::runtime_error);
    EXPECT_THROW(
        decode_world_snapshot(with_huge_count(wire.substr(0, procs_at)),
                              *proto),
        std::runtime_error);
    // One process whose fixed fields are intact but whose log count is huge.
    std::string one_proc = wire.substr(0, procs_at);
    put_u32(one_proc, 1);
    one_proc += wire.substr(procs_at + 4, 44);
    EXPECT_THROW(decode_world_snapshot(with_huge_count(one_proc), *proto),
                 std::runtime_error);
  }
  // dist::decode_item: the trunk-path count, then the sleep-set count.
  head.clear();
  put_u32(head, static_cast<std::uint32_t>(dist::MsgTag::kItem));
  put_u64(head, 0);  // index
  put_u64(head, 0);  // base_nodes
  put_schedule(head, {});
  EXPECT_THROW(dist::decode_item(with_huge_count(head)), std::runtime_error);
  put_u32(head, 0);  // empty path
  EXPECT_THROW(dist::decode_item(with_huge_count(head)), std::runtime_error);
}

}  // namespace
}  // namespace rmrsim
