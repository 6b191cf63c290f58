// Wire serialization of WorldSnapshot (sharded exploration).
//
// A WorldSnapshot deep-copies everything a world owns — except the program
// callables, directive policy, and keepalive, which are shared immutably and
// are not serializable (a std::function captures live pointers). Shipping a snapshot to a worker process therefore splits the
// snapshot in two:
//
//  * the *content* — store values/masks, cost-model state, ledger, clock,
//    history, schedule, fault trace, per-process control state and resume
//    logs — crosses the wire via encode_world_snapshot();
//  * the *immutables* — programs, policy, keepalive — are grafted
//    on the receiving side from a `proto` snapshot the worker builds locally
//    by constructing the same instance (same builder, same options) and
//    snapshotting it untouched.
//
// decode_world_snapshot() validates that the wire content structurally
// matches the proto (same process count, same store layout, same cost-model
// name) and throws std::runtime_error on any mismatch, truncation, or
// malformed payload — a worker launched with different options must fail
// loudly, never explore a subtly different world.
#pragma once

#include <string>
#include <string_view>

#include "runtime/simulation.h"

namespace rmrsim {

/// Serializes the snapshot's content (everything except the unserializable
/// shared immutables) in the common little-endian codec. Canonical: a pure
/// function of the world state.
std::string encode_world_snapshot(const WorldSnapshot& snap);

/// Rebuilds a snapshot from wire content, grafting the shared immutables
/// (programs, policy, keepalive) and the store's diagnostic names
/// from `proto`. The result restores into a world byte-equivalent to the
/// sender's (same future steps, ledger, history).
WorldSnapshot decode_world_snapshot(std::string_view bytes,
                                    const WorldSnapshot& proto);

}  // namespace rmrsim
