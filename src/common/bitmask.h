// Multi-word process bitmasks.
//
// A set of processes over nprocs processors is mask_words(nprocs) 64-bit
// words, process p at bit p % 64 of word p / 64. Callers keep many such sets
// back to back in one flat array (set i at words [i * W, (i + 1) * W)), so a
// membership test is one load and a cardinality is a popcount. Grids and the
// E4 experiment run well past 64 processes, hence several words rather than
// one uint64_t. Used by the store's writer and LL-reservation sets, the
// coherence fleet's sharer sets and the write buffer's holder sets.
#pragma once

#include <bit>
#include <cstdint>

#include "common/types.h"

namespace rmrsim {

/// Words per process set over `nprocs` processors.
constexpr int mask_words(int nprocs) { return (nprocs + 63) / 64; }

inline bool mask_test(const std::uint64_t* m, ProcId p) {
  return (m[p >> 6] >> (p & 63)) & 1u;
}

inline void mask_set(std::uint64_t* m, ProcId p) {
  m[p >> 6] |= std::uint64_t{1} << (p & 63);
}

inline void mask_clear(std::uint64_t* m, ProcId p) {
  m[p >> 6] &= ~(std::uint64_t{1} << (p & 63));
}

/// Number of members.
inline int mask_count(const std::uint64_t* m, int words) {
  int n = 0;
  for (int w = 0; w < words; ++w) n += std::popcount(m[w]);
  return n;
}

/// Calls f(p) for every member p in ascending order. Each word is read once
/// before its members are visited, so f may clear bits of the set.
template <typename F>
void mask_for_each(const std::uint64_t* m, int words, F&& f) {
  for (int w = 0; w < words; ++w) {
    for (std::uint64_t bits = m[w]; bits != 0; bits &= bits - 1) {
      f(static_cast<ProcId>(w * 64 + std::countr_zero(bits)));
    }
  }
}

}  // namespace rmrsim
