// Stable, contention-free parallel counting sort: the ordering pass behind
// the shift rank (parallel/bucket_rank.hpp) and the activation schedule of
// the delayed multi-source BFS (bfs/multi_source_bfs_impl.hpp).
//
// The items {0, ..., n-1} are split into fixed-size blocks of
// kCountingSortBlock items. Each block counts its items into its own
// histogram row; one exclusive scan in (bucket, block) order turns the rows
// into per-block write cursors; each block then scatters its items, in
// ascending index order, through its own cursors. No counter is ever
// touched by two threads, so there are no atomics, and the output is
// stable: inside a bucket, items appear in ascending index order. The block
// size is a constant rather than a function of the thread count, so the
// output is identical at every thread count.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "parallel/parallel_for.hpp"
#include "support/assert.hpp"

namespace mpx {

/// Items per counting block. Large enough that a block's count and scatter
/// amortize the fork and its histogram row; small enough that the 9M-vertex
/// reference grid splits into ~140 blocks and balances over any thread
/// count.
inline constexpr std::size_t kCountingSortBlock = std::size_t{1} << 16;

/// Group the records of items {0, ..., n-1} by bucket into `out`, stably.
///  * record_of(i) returns item i's record (i is passed as std::uint32_t);
///    it is called twice per item (count, scatter) and must be pure.
///  * bucket_of(record) returns its bucket, < num_buckets.
///  * out.size() == n; on return out holds the records ordered by
///    (bucket, index).
///  * bucket_ends.size() == num_buckets; on return bucket_ends[b] is the
///    end offset of bucket b in `out` (its start is bucket_ends[b - 1],
///    or 0).
///  * block_counts is reusable scratch for the per-block histograms
///    (ceil(n / kCountingSortBlock) x num_buckets counters), grown as
///    needed and never shrunk, so warm calls allocate nothing.
/// Work O(n + blocks x num_buckets); the count and scatter run in parallel
/// over blocks, the scan is a serial pass over the histograms.
template <typename Record, typename RecordFn, typename BucketFn>
void stable_counting_sort(std::size_t n, std::size_t num_buckets,
                          RecordFn&& record_of, BucketFn&& bucket_of,
                          std::span<Record> out,
                          std::span<std::uint32_t> bucket_ends,
                          std::vector<std::uint32_t>& block_counts) {
  MPX_EXPECTS(num_buckets > 0);
  MPX_EXPECTS(out.size() == n && bucket_ends.size() == num_buckets);
  MPX_EXPECTS(n <= std::numeric_limits<std::uint32_t>::max());
  std::fill(bucket_ends.begin(), bucket_ends.end(), 0u);
  if (n == 0) return;
  const std::size_t num_blocks =
      (n + kCountingSortBlock - 1) / kCountingSortBlock;
  if (block_counts.size() < num_blocks * num_buckets) {
    block_counts.resize(num_blocks * num_buckets);
  }
  const auto row = [&](std::size_t block) {
    return block_counts.data() + block * num_buckets;
  };
  const auto for_each_item = [n](std::size_t block, auto&& f) {
    const std::size_t lo = block * kCountingSortBlock;
    const std::size_t hi = std::min(lo + kCountingSortBlock, n);
    for (std::size_t i = lo; i < hi; ++i) f(static_cast<std::uint32_t>(i));
  };

  // 1. Count: every block into its own histogram row.
  parallel_for_dynamic(std::size_t{0}, num_blocks, [&](std::size_t block) {
    std::uint32_t* const counts = row(block);
    std::fill_n(counts, num_buckets, 0u);
    for_each_item(block, [&](std::uint32_t i) {
      ++counts[bucket_of(record_of(i))];
    });
  });

  // 2. Exclusive scan in (bucket, block) order, as two row-contiguous
  // passes: bucket totals become bucket starts, then each row in block
  // order takes the running start of every bucket as its cursor and
  // advances it. Afterwards bucket_ends[b] is bucket b's end.
  for (std::size_t block = 0; block < num_blocks; ++block) {
    const std::uint32_t* const counts = row(block);
    for (std::size_t b = 0; b < num_buckets; ++b) bucket_ends[b] += counts[b];
  }
  std::uint32_t start = 0;
  for (std::size_t b = 0; b < num_buckets; ++b) {
    const std::uint32_t total = bucket_ends[b];
    bucket_ends[b] = start;
    start += total;
  }
  for (std::size_t block = 0; block < num_blocks; ++block) {
    std::uint32_t* const counts = row(block);
    for (std::size_t b = 0; b < num_buckets; ++b) {
      const std::uint32_t count = counts[b];
      counts[b] = bucket_ends[b];
      bucket_ends[b] += count;
    }
  }

  // 3. Scatter: every block through its own cursors, in index order.
  parallel_for_dynamic(std::size_t{0}, num_blocks, [&](std::size_t block) {
    std::uint32_t* const cursor = row(block);
    for_each_item(block, [&](std::uint32_t i) {
      const Record record = record_of(i);
      out[cursor[bucket_of(record)]++] = record;
    });
  });
}

}  // namespace mpx
