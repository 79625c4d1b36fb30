#include "compress/bwt.hpp"

#include <array>
#include <memory>
#include <utility>
#include <vector>

#include "util/error.hpp"

namespace acex::bwt {

Transformed forward(ByteView block) {
  const std::size_t n = block.size();
  Transformed result;
  if (n == 0) return result;
  if (n == 1) {
    result.last_column.assign(block.begin(), block.end());
    result.primary = 0;
    return result;
  }

  // Prefix doubling over cyclic rotations with radix (counting) sorts:
  // after the round for step k, `rank[i]` orders rotation i by its first 2k
  // characters (dense ranks) and `head[r]` is the first slot of rank r in
  // `idx`. O(n log n) total — this is the codec's hot loop.
  // One uninitialised allocation for all five arrays: every slot is written
  // before it is read, and a single block keeps repeated calls from paying
  // fresh page faults for five large buffers each time.
  const auto len = static_cast<std::uint32_t>(n);
  const auto storage = std::make_unique_for_overwrite<std::uint32_t[]>(5 * n);
  std::uint32_t* idx = storage.get();
  std::uint32_t* sorted = idx + n;
  std::uint32_t* rank = sorted + n;
  std::uint32_t* next_rank = rank + n;
  std::uint32_t* head = next_rank + n;

  // Round 0: counting sort by first character.
  std::array<std::uint32_t, 257> counts{};
  for (std::size_t i = 0; i < n; ++i) ++counts[block[i] + 1];
  for (std::size_t c = 1; c <= 256; ++c) counts[c] += counts[c - 1];
  for (std::uint32_t i = 0; i < len; ++i) idx[counts[block[i]]++] = i;
  std::uint32_t classes = 0;
  for (std::uint32_t j = 0; j < len; ++j) {
    if (j == 0 || block[idx[j]] != block[idx[j - 1]]) head[classes++] = j;
    rank[idx[j]] = classes - 1;
  }

  for (std::uint32_t k = 1; classes < len && k < len; k <<= 1) {
    // Sorting pairs (rank[i], rank[(i+k) mod n]). `idx` is sorted by rank;
    // stepping every position back by k yields the order sorted by the
    // SECOND pair element, so one stable counting sort by the first element
    // (its buckets start at `head`) finishes the job. k < n, so each wrap
    // is one compare-and-subtract.
    for (std::uint32_t j = 0; j < len; ++j) {
      const std::uint32_t i = idx[j] >= k ? idx[j] - k : idx[j] + (len - k);
      sorted[head[rank[i]]++] = i;
    }
    std::swap(idx, sorted);
    // Re-rank by (first, second) pair equality, carrying the previous pair.
    // The scatter left `head` holding bucket ends, so it is rebuilt in
    // place; classes <= j, so the unconditional store stays in bounds and
    // is kept only where a new class starts (no data-dependent branch).
    std::uint32_t prev_first = 0;
    std::uint32_t prev_second = 0;
    classes = 0;
    for (std::uint32_t j = 0; j < len; ++j) {
      const std::uint32_t i = idx[j];
      const std::uint32_t first = rank[i];
      const std::uint32_t second = rank[i >= len - k ? i - (len - k) : i + k];
      const bool starts = (j == 0) | (first != prev_first) |
                          (second != prev_second);
      head[classes] = j;
      classes += starts;
      next_rank[i] = classes - 1;
      prev_first = first;
      prev_second = second;
    }
    std::swap(rank, next_rank);
  }

  result.last_column.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t start = idx[i];
    result.last_column[i] = block[start == 0 ? n - 1 : start - 1];
    if (start == 0) result.primary = static_cast<std::uint32_t>(i);
  }
  return result;
}

Bytes inverse(ByteView last_column, std::uint32_t primary) {
  const std::size_t n = last_column.size();
  if (n == 0) return {};
  if (primary >= n) throw DecodeError("bwt: primary index out of range");

  // C[c] = number of characters in L strictly smaller than c;
  // occ[i] = rank of L[i] among equal characters in L[0..i].
  std::array<std::uint32_t, 256> counts{};
  for (const auto c : last_column) ++counts[c];
  std::array<std::uint32_t, 256> before{};
  std::uint32_t sum = 0;
  for (unsigned c = 0; c < 256; ++c) {
    before[c] = sum;
    sum += counts[c];
  }
  std::vector<std::uint32_t> lf(n);
  std::array<std::uint32_t, 256> seen{};
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint8_t c = last_column[i];
    lf[i] = before[c] + seen[c]++;
  }

  Bytes out(n);
  std::uint32_t row = primary;
  for (std::size_t k = n; k-- > 0;) {
    out[k] = last_column[row];
    row = lf[row];
  }
  return out;
}

}  // namespace acex::bwt
