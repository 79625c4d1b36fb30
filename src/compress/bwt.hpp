#pragma once

#include <cstdint>
#include <cstddef>

#include "util/bytes.hpp"

namespace acex::bwt {

/// Result of the forward Burrows–Wheeler transform: the last column of the
/// sorted rotation matrix plus the row index of the original string, which
/// the inverse transform needs to re-anchor.
struct Transformed {
  Bytes last_column;
  std::uint32_t primary = 0;
};

/// Forward BWT over all cyclic rotations of `block` (§2.4 step 1).
///
/// Rotation order is established with prefix doubling (Manber–Myers on the
/// cyclic string): each round is one stable counting sort, O(n) per round
/// and O(n log n) overall. It is still the "slow, strong" method of the
/// paper; its cost is what Figs. 3/4 measure.
///
/// Equal rotations (a periodic block, e.g. "abab") keep the fixed relative
/// order this sequence of stable sorts leaves them in. That order picks
/// `primary` and the last column, so it is part of the wire format: a
/// different sort must reproduce it exactly.
Transformed forward(ByteView block);

/// Inverse BWT via LF-mapping (counting sort + backwards walk), O(n).
/// Throws DecodeError if `primary` is out of range.
Bytes inverse(ByteView last_column, std::uint32_t primary);

}  // namespace acex::bwt
