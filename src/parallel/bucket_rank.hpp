// Distribution-aware bucketed ordering: the shift-phase sort killer.
//
// parallel_sort is a general primitive: it assumes nothing about its keys
// and pays O(n log n) comparisons, each a data-dependent branch over two
// random loads. The shift phase never needs that generality — its keys
// have a known, near-uniform distribution (frac(delta_max - delta) for
// exponential shifts, 64-bit counter hashes for random permutations), so a
// stable counting pass over a monotone bucket map (parallel/counting_sort.hpp)
// places every key to within a small bucket in O(n) work, and a per-bucket
// finishing pass over contiguous (key, id) records, run in parallel across
// buckets, finishes the order exactly.
//
// The produced order is bitwise-identical to sorting by (key, id): the
// bucket map is monotone (key1 < key2 implies bucket(key1) <= bucket(key2)
// and equal keys share a bucket), so the concatenation of
// internally-sorted buckets *is* the globally sorted sequence, with ties
// broken by id inside each bucket exactly as the comparator sort did. A
// degenerate key distribution (everything in one bucket) only degrades to
// the comparison sort it replaced, never to a wrong order.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "parallel/counting_sort.hpp"
#include "parallel/parallel_for.hpp"
#include "support/assert.hpp"

#if defined(_OPENMP)
#include <omp.h>
#endif

namespace mpx {

/// One scatter record: the sort key and the item id it belongs to. Keeping
/// the key next to the id makes the per-bucket finishing sort operate on
/// contiguous memory instead of chasing a random index per comparison.
template <typename Key>
struct KeyedItem {
  Key key;
  std::uint32_t id;
};

/// Reusable scratch for bucketed_sort_ids, sized on first use and stable
/// afterwards: warm calls at the same n (and data) allocate nothing.
template <typename Key>
struct BucketSortScratch {
  /// Scatter destination; holds the sorted (key, id) records on return.
  std::vector<KeyedItem<Key>> items;
  /// After the call, bucket_ends[b] is the end offset of bucket b in
  /// `items` (its start is bucket_ends[b - 1], or 0).
  std::vector<std::uint32_t> bucket_ends;
  /// Per-block histograms of the counting pass (stable_counting_sort).
  std::vector<std::uint32_t> block_counts;
  /// Per-thread scratch for the second-level segment refinement: a copy
  /// buffer (one segment) and sub-bucket counters, both cache-sized. Every
  /// thread's entry is sized up front for the call's largest bucket, since
  /// which thread refines which bucket changes from call to call.
  struct SegmentScratch {
    std::vector<KeyedItem<Key>> buf;
    std::vector<std::uint32_t> counts;
  };
  std::vector<SegmentScratch> segment_scratch;
};

/// Bucket count for n items: a power of two, at most 1024. The cap is
/// what makes the scatter fast: a block's scatter keeps one
/// actively-written cache line per bucket, so at <= 512-1024 buckets its
/// write cursors sit in L1 and the scatter degrades from n random misses
/// to near-streaming stores (and the per-block histograms stay small).
/// Measured on 9M doubles, total bucketed time is 0.81s at 256-512
/// buckets, 1.04s at 8192, and 2-3x worse at the ~n/4 bucket count of
/// this header's first cut (the counter array alone outgrew L2 and every
/// touch missed). Oversized segments are cheap by
/// comparison — refine_segment splits them again in-cache. Power of two
/// so 64-bit keys can bucket with a plain shift.
[[nodiscard]] inline std::size_t bucket_count_for(std::size_t n) {
  std::size_t buckets = 256;
  while (buckets * 32768 < n && buckets < (std::size_t{1} << 10)) {
    buckets <<= 1;
  }
  return buckets;
}

namespace detail {

/// Ascending insertion sort on the total (key, id) order — the terminal
/// sorter for runs small enough that quadratic beats everything.
template <typename Key>
void insertion_sort_items(KeyedItem<Key>* first, KeyedItem<Key>* last) {
  const auto less = [](const KeyedItem<Key>& a, const KeyedItem<Key>& b) {
    return a.key != b.key ? a.key < b.key : a.id < b.id;
  };
  for (KeyedItem<Key>* it = first + 1; it < last; ++it) {
    const KeyedItem<Key> value = *it;
    KeyedItem<Key>* hole = it;
    while (hole != first && less(value, *(hole - 1))) {
      *hole = *(hole - 1);
      --hole;
    }
    *hole = value;
  }
}

/// Sub-bucket count refine_segment uses for a segment of `len` items:
/// ~len/4, a power of two in [64, 4096]. Monotone in len, so scratch sized
/// for the largest segment fits every smaller one.
[[nodiscard]] inline std::size_t sub_bucket_count(std::size_t len) {
  std::size_t sub_buckets = 64;
  while (sub_buckets * 4 < len && sub_buckets < 4096) sub_buckets <<= 1;
  return sub_buckets;
}

/// Segments at most this long are finished by insertion sort alone.
inline constexpr std::size_t kInsertionSortMax = 48;

/// Sort one bucket's segment [first, first + len) by (key, id) with a
/// second-level counting pass instead of a comparison sort: map each key
/// affinely from the segment's own [min, max] key range onto ~len/4
/// sub-buckets (monotone, so sub-bucket concatenation preserves the key
/// order), stable-scatter through `seg.buf`, insertion-sort the tiny
/// sub-buckets, copy back. The segment and both scratch arrays are
/// cache-sized, so unlike a comparison sort there is no data-dependent
/// branch per element — this is where the bucketed rank's speedup over
/// parallel_sort actually comes from. Degenerate key ranges (all keys in
/// a few sub-buckets) only push work back into the per-sub-bucket sorts,
/// never produce a wrong order.
template <typename Key>
void refine_segment(KeyedItem<Key>* first, std::size_t len,
                    typename BucketSortScratch<Key>::SegmentScratch& seg) {
  Key min_key = first[0].key;
  Key max_key = first[0].key;
  for (std::size_t i = 1; i < len; ++i) {
    min_key = std::min(min_key, first[i].key);
    max_key = std::max(max_key, first[i].key);
  }
  if (!(min_key < max_key)) {
    // All keys equal: the order is by id alone; a comparison sort on the
    // predictable id-only branch is fine.
    std::sort(first, first + len,
              [](const KeyedItem<Key>& a, const KeyedItem<Key>& b) {
                return a.id < b.id;
              });
    return;
  }
  const std::size_t sub_buckets = sub_bucket_count(len);
  // Affine monotone map of [min, max] onto [0, sub_buckets): every
  // floating-point step (subtract min, multiply a positive scale,
  // truncate) is monotone under rounding, and the clamp catches the
  // max-key product landing on sub_buckets exactly.
  const double scale = static_cast<double>(sub_buckets) /
                       static_cast<double>(max_key - min_key);
  const auto sub_of = [&](Key key) {
    return std::min(
        static_cast<std::size_t>(static_cast<double>(key - min_key) * scale),
        sub_buckets - 1);
  };
  MPX_ASSERT(seg.counts.size() > sub_buckets && seg.buf.size() >= len);
  std::fill_n(seg.counts.begin(), sub_buckets + 1, 0u);
  for (std::size_t i = 0; i < len; ++i) ++seg.counts[sub_of(first[i].key) + 1];
  for (std::size_t s = 1; s <= sub_buckets; ++s) {
    seg.counts[s] += seg.counts[s - 1];
  }
  for (std::size_t i = 0; i < len; ++i) {
    seg.buf[seg.counts[sub_of(first[i].key)]++] = first[i];
  }
  // counts[s] is now sub-bucket s's end offset; its start is counts[s-1].
  for (std::size_t s = 0; s < sub_buckets; ++s) {
    const std::uint32_t lo = s == 0 ? 0 : seg.counts[s - 1];
    const std::uint32_t hi = seg.counts[s];
    if (hi - lo < 2) continue;
    if (hi - lo <= kInsertionSortMax) {
      insertion_sort_items(seg.buf.data() + lo, seg.buf.data() + hi);
    } else {
      std::sort(seg.buf.data() + lo, seg.buf.data() + hi,
                [](const KeyedItem<Key>& a, const KeyedItem<Key>& b) {
                  return a.key != b.key ? a.key < b.key : a.id < b.id;
                });
    }
  }
  std::copy(seg.buf.begin(), seg.buf.begin() + static_cast<std::ptrdiff_t>(len),
            first);
}

}  // namespace detail

/// Sort the implicit items {0, ..., n-1} ascending by (key_of(i), i) into
/// `scratch.items`. Requirements:
///  * bucket_of(key) < num_buckets for every key key_of ever returns;
///  * bucket_of is monotone in the key order: key1 < key2 implies
///    bucket_of(key1) <= bucket_of(key2) (equal keys, equal bucket).
/// key_of is invoked twice per item (count + scatter) and must be a pure
/// function of its argument. The stable counting pass leaves every bucket
/// in ascending id order; the finishing pass then sorts each bucket on the
/// total (key, id) order, in parallel across buckets. Deterministic for
/// any thread count: no step depends on the schedule.
template <typename Key, typename KeyFn, typename BucketFn>
void bucketed_sort_ids(std::size_t n, std::size_t num_buckets, KeyFn&& key_of,
                       BucketFn&& bucket_of, BucketSortScratch<Key>& scratch) {
  scratch.items.resize(n);
  scratch.bucket_ends.resize(num_buckets);
  stable_counting_sort<KeyedItem<Key>>(
      n, num_buckets,
      [&](std::uint32_t i) { return KeyedItem<Key>{key_of(i), i}; },
      [&](const KeyedItem<Key>& item) {
        return static_cast<std::size_t>(bucket_of(item.key));
      },
      std::span<KeyedItem<Key>>(scratch.items),
      std::span<std::uint32_t>(scratch.bucket_ends), scratch.block_counts);

  // Size every thread's segment scratch for the largest bucket before the
  // finishing pass forks, so no thread grows its scratch inside the loop.
  std::size_t max_len = scratch.bucket_ends[0];
  for (std::size_t b = 1; b < num_buckets; ++b) {
    max_len = std::max<std::size_t>(
        max_len, scratch.bucket_ends[b] - scratch.bucket_ends[b - 1]);
  }
  if (max_len < 2) return;  // every bucket is already sorted
#if defined(_OPENMP)
  const std::size_t finish_threads =
      static_cast<std::size_t>(omp_get_max_threads());
#else
  const std::size_t finish_threads = 1;
#endif
  if (scratch.segment_scratch.size() < finish_threads) {
    scratch.segment_scratch.resize(finish_threads);
  }
  if (max_len > detail::kInsertionSortMax) {
    const std::size_t counts = detail::sub_bucket_count(max_len) + 1;
    for (auto& seg : scratch.segment_scratch) {
      if (seg.buf.size() < max_len) seg.buf.resize(max_len);
      if (seg.counts.size() < counts) seg.counts.resize(counts);
    }
  }

  parallel_for_dynamic(std::size_t{0}, num_buckets, [&](std::size_t b) {
    const std::uint32_t lo = b == 0 ? 0 : scratch.bucket_ends[b - 1];
    const std::uint32_t hi = scratch.bucket_ends[b];
    if (hi - lo < 2) return;
    KeyedItem<Key>* const first = scratch.items.data() + lo;
    if (hi - lo <= detail::kInsertionSortMax) {
      detail::insertion_sort_items(first, first + (hi - lo));
      return;
    }
#if defined(_OPENMP)
    // omp_get_thread_num() is 0 outside a parallel region, so this also
    // covers the serial path of parallel_for_dynamic.
    auto& seg = scratch.segment_scratch[static_cast<std::size_t>(
        omp_get_thread_num())];
#else
    auto& seg = scratch.segment_scratch[0];
#endif
    detail::refine_segment(first, hi - lo, seg);
  });
}

}  // namespace mpx
