// Parallel prefix sums (scans): the classic two-pass blocked algorithm.
// Scans are the glue for pack/filter and CSR construction.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "parallel/parallel_for.hpp"
#include "support/assert.hpp"

#if defined(_OPENMP)
#include <omp.h>
#endif

namespace mpx {

/// In-place exclusive prefix sum over `data`; returns the total.
/// Two passes: per-block partial sums, then a serial block-offset scan,
/// then a parallel block rewrite. Work O(n), depth O(n/p + p).
template <typename T>
T exclusive_scan_inplace(std::span<T> data) {
  const std::size_t n = data.size();
  if (n == 0) return T{};
  if (n < kSerialGrain) {
    T acc{};
    for (std::size_t i = 0; i < n; ++i) {
      const T value = data[i];
      data[i] = acc;
      acc += value;
    }
    return acc;
  }
#if defined(_OPENMP)
  const std::size_t block = 1 << 14;
  const std::size_t num_blocks = (n + block - 1) / block;
  std::vector<T> block_sums(num_blocks);
#pragma omp parallel for schedule(static)
  for (std::int64_t b = 0; b < static_cast<std::int64_t>(num_blocks); ++b) {
    const std::size_t lo = static_cast<std::size_t>(b) * block;
    const std::size_t hi = std::min(lo + block, n);
    T acc{};
    for (std::size_t i = lo; i < hi; ++i) acc += data[i];
    block_sums[static_cast<std::size_t>(b)] = acc;
  }
  T total{};
  for (std::size_t b = 0; b < num_blocks; ++b) {
    const T s = block_sums[b];
    block_sums[b] = total;
    total += s;
  }
#pragma omp parallel for schedule(static)
  for (std::int64_t b = 0; b < static_cast<std::int64_t>(num_blocks); ++b) {
    const std::size_t lo = static_cast<std::size_t>(b) * block;
    const std::size_t hi = std::min(lo + block, n);
    T acc = block_sums[static_cast<std::size_t>(b)];
    for (std::size_t i = lo; i < hi; ++i) {
      const T value = data[i];
      data[i] = acc;
      acc += value;
    }
  }
  return total;
#else
  T acc{};
  for (std::size_t i = 0; i < n; ++i) {
    const T value = data[i];
    data[i] = acc;
    acc += value;
  }
  return acc;
#endif
}

/// Exclusive prefix sum of `input` into a fresh vector one element longer;
/// the final element holds the total (CSR row-offset shape).
template <typename T>
[[nodiscard]] std::vector<T> offsets_from_counts(std::span<const T> input) {
  std::vector<T> out(input.size() + 1);
  std::copy(input.begin(), input.end(), out.begin());
  out.back() = T{};
  const T total = exclusive_scan_inplace(std::span<T>(out.data(), input.size()));
  out.back() = total;
  return out;
}

}  // namespace mpx
