// The signaling problem (Section 4) — algorithm interface and client drivers.
//
// Signalers and waiters exchange one bit of information: "the event has
// occurred". With *polling semantics* a solution provides Signal() and
// Poll() -> bool; with *blocking semantics*, Signal() and Wait(). Safety is
// Specification 4.1 (see checker.h). A process may call Signal() at most
// once and Poll() arbitrarily many times, in any order, and may terminate
// after finitely many calls even if none returned true — the variation used
// in the Section 6 lower bound.
//
// Implementation contract for algorithms (load-bearing for the adversary's
// erasure-by-replay): an algorithm object owns NO mutable C++ state. All
// persistent state — including per-process private state that survives
// across procedure calls, such as "I already registered" — lives in shared
// memory variables allocated at construction (per-process private state in
// variables homed at that process, which is exactly the paper's "local
// memory"). SharedMemory::reset() then restores the algorithm to its initial
// state, making replays exact.
#pragma once

#include <memory>
#include <string_view>

#include "runtime/coro.h"
#include "runtime/proc_ctx.h"
#include "runtime/simulation.h"

namespace rmrsim {

class SignalingAlgorithm {
 public:
  virtual ~SignalingAlgorithm() = default;

  /// Poll(): returns true iff the signal is known to have been issued.
  virtual SubTask<bool> poll(ProcCtx& ctx) = 0;

  /// Signal(): issues the signal. Callable at most once per process.
  virtual SubTask<void> signal(ProcCtx& ctx) = 0;

  /// Wait(): returns only after some Signal() has begun. Default: busy-wait
  /// by repeated Poll() — the reduction the paper notes for every variant.
  /// Algorithms with a cheaper native blocking path may override.
  virtual SubTask<void> wait(ProcCtx& ctx);

  virtual std::string_view name() const = 0;
};

/// Directive actions understood by signaling_driver.
namespace signaling_actions {
inline constexpr int kTerminate = Directive::kTerminate;  // 0
inline constexpr int kPoll = 1;
inline constexpr int kSignal = 2;
inline constexpr int kWait = 3;
}  // namespace signaling_actions

/// General driver: repeatedly asks the simulation's directive policy what to
/// call next. This is how the lower-bound adversary steers processes through
/// the histories of Definition 6.1 (arbitrary call sequences, then
/// termination). Records call boundaries for the Specification 4.1 checker.
ProcTask signaling_driver(ProcCtx& ctx, SignalingAlgorithm* alg);

/// Canned waiter: calls Poll() until it returns true or `max_polls` calls
/// completed, then terminates. No directive policy required.
ProcTask polling_waiter(ProcCtx& ctx, SignalingAlgorithm* alg, int max_polls);

/// Canned waiter for blocking semantics: one Wait() call, then terminates.
ProcTask blocking_waiter(ProcCtx& ctx, SignalingAlgorithm* alg);

/// Canned signaler: performs `idle_polls` Poll() calls (0 for none), then one
/// Signal(), then terminates. The polls let tests exercise mixed roles.
/// `signaled`, if given, is set to true as soon as the Signal() call ends.
ProcTask signaler(ProcCtx& ctx, SignalingAlgorithm* alg, int idle_polls = 0,
                  bool* signaled = nullptr);

}  // namespace rmrsim
