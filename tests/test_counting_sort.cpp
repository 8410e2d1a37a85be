// Tests for the stable per-block counting sort (parallel/counting_sort.hpp)
// and the two orderings built on it: the bucketed (key, id) rank
// (parallel/bucket_rank.hpp) and the delayed BFS's activation schedule
// (detail::build_buckets). The sort must equal std::stable_sort by bucket,
// bit for bit, at every thread count, including around the block size.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <numeric>
#include <string>
#include <vector>

#include "bfs/multi_source_bfs_impl.hpp"
#include "parallel/bucket_rank.hpp"
#include "parallel/counting_sort.hpp"
#include "parallel/thread_env.hpp"
#include "support/random.hpp"

namespace mpx {
namespace {

constexpr int kThreadCounts[] = {1, 2, 4, 8};

struct Sorted {
  std::vector<std::uint32_t> ids;
  std::vector<std::uint32_t> ends;
};

/// Counting-sort the ids {0, ..., n-1} by bucket[id].
Sorted counting_sort(const std::vector<std::uint32_t>& bucket,
                     std::size_t num_buckets,
                     std::vector<std::uint32_t>& block_counts) {
  Sorted out;
  out.ids.resize(bucket.size());
  out.ends.resize(num_buckets);
  stable_counting_sort<std::uint32_t>(
      bucket.size(), num_buckets, [](std::uint32_t i) { return i; },
      [&](std::uint32_t id) { return static_cast<std::size_t>(bucket[id]); },
      std::span<std::uint32_t>(out.ids), std::span<std::uint32_t>(out.ends),
      block_counts);
  return out;
}

Sorted counting_sort(const std::vector<std::uint32_t>& bucket,
                     std::size_t num_buckets) {
  std::vector<std::uint32_t> block_counts;
  return counting_sort(bucket, num_buckets, block_counts);
}

/// Reference: std::stable_sort of the ids by bucket, plus bucket ends.
Sorted reference_sort(const std::vector<std::uint32_t>& bucket,
                      std::size_t num_buckets) {
  Sorted ref;
  ref.ids.resize(bucket.size());
  std::iota(ref.ids.begin(), ref.ids.end(), 0u);
  std::stable_sort(ref.ids.begin(), ref.ids.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return bucket[a] < bucket[b];
                   });
  ref.ends.assign(num_buckets, 0);
  for (const std::uint32_t b : bucket) ++ref.ends[b];
  for (std::size_t b = 1; b < num_buckets; ++b) ref.ends[b] += ref.ends[b - 1];
  return ref;
}

std::vector<std::uint32_t> random_buckets(std::size_t n,
                                          std::size_t num_buckets,
                                          std::uint64_t seed) {
  Xoshiro256pp rng(seed);
  std::vector<std::uint32_t> bucket(n);
  for (auto& b : bucket) {
    b = static_cast<std::uint32_t>(rng.next_below(num_buckets));
  }
  return bucket;
}

void expect_matches_reference(const std::vector<std::uint32_t>& bucket,
                              std::size_t num_buckets) {
  const Sorted ref = reference_sort(bucket, num_buckets);
  const Sorted got = counting_sort(bucket, num_buckets);
  EXPECT_EQ(got.ids, ref.ids);
  EXPECT_EQ(got.ends, ref.ends);
}

TEST(CountingSort, MatchesStableSortByBucket) {
  ScopedNumThreads guard(4);
  constexpr std::size_t kBlock = kCountingSortBlock;
  for (const std::size_t n :
       {std::size_t{2}, std::size_t{1000}, kBlock - 1, kBlock, kBlock + 1,
        3 * kBlock, 3 * kBlock + 12345}) {
    for (const std::size_t num_buckets :
         {std::size_t{1}, std::size_t{7}, std::size_t{256},
          std::size_t{1024}}) {
      SCOPED_TRACE("n=" + std::to_string(n) +
                   " buckets=" + std::to_string(num_buckets));
      expect_matches_reference(random_buckets(n, num_buckets, n + num_buckets),
                               num_buckets);
    }
  }
}

TEST(CountingSort, IdenticalAtEveryThreadCount) {
  const std::size_t n = 5 * kCountingSortBlock + 777;
  const std::vector<std::uint32_t> bucket = random_buckets(n, 512, 41);
  const Sorted ref = reference_sort(bucket, 512);
  for (const int threads : kThreadCounts) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ScopedNumThreads guard(threads);
    const Sorted got = counting_sort(bucket, 512);
    EXPECT_EQ(got.ids, ref.ids);
    EXPECT_EQ(got.ends, ref.ends);
  }
}

TEST(CountingSort, EmptyAndSingleItem) {
  ScopedNumThreads guard(4);
  const Sorted empty = counting_sort({}, 4);
  EXPECT_TRUE(empty.ids.empty());
  EXPECT_EQ(empty.ends, std::vector<std::uint32_t>(4, 0));
  const Sorted one = counting_sort({2}, 4);
  EXPECT_EQ(one.ids, std::vector<std::uint32_t>{0});
  EXPECT_EQ(one.ends, (std::vector<std::uint32_t>{0, 0, 1, 1}));
}

TEST(CountingSort, DegenerateBucketDistributions) {
  ScopedNumThreads guard(4);
  const std::size_t n = 2 * kCountingSortBlock + 99;
  // Every key in one middle bucket, then every key in the last bucket.
  expect_matches_reference(std::vector<std::uint32_t>(n, 3), 8);
  expect_matches_reference(std::vector<std::uint32_t>(n, 7), 8);
  // Below one block, not a multiple of anything, every key in bucket 0.
  expect_matches_reference(std::vector<std::uint32_t>(999, 0), 8);
  // More buckets than items, in one block and across blocks.
  expect_matches_reference(random_buckets(10, 100, 5), 100);
  expect_matches_reference(
      random_buckets(kCountingSortBlock + 5, 4 * kCountingSortBlock, 6),
      4 * kCountingSortBlock);
}

TEST(CountingSort, WarmCallsReuseTheHistograms) {
  ScopedNumThreads guard(4);
  const std::vector<std::uint32_t> bucket =
      random_buckets(3 * kCountingSortBlock, 256, 9);
  std::vector<std::uint32_t> block_counts;
  const Sorted cold = counting_sort(bucket, 256, block_counts);
  const std::uint32_t* const histograms = block_counts.data();
  const Sorted warm = counting_sort(bucket, 256, block_counts);
  EXPECT_EQ(block_counts.data(), histograms);
  EXPECT_EQ(warm.ids, cold.ids);
  EXPECT_EQ(warm.ends, cold.ends);
}

TEST(CountingSort, BucketedSortIdsMatchesKeyIdSort) {
  // Random, all-equal and all-in-the-last-bucket keys: the rank equals the
  // (key, id) comparator sort at every thread count.
  const std::size_t n = 3 * kCountingSortBlock + 17;
  const std::size_t buckets = bucket_count_for(n);
  Xoshiro256pp rng(17);
  std::vector<std::vector<double>> key_sets(3, std::vector<double>(n));
  for (double& k : key_sets[0]) {
    k = static_cast<double>(rng.next_below(5000)) / 5000.0;
  }
  std::fill(key_sets[1].begin(), key_sets[1].end(), 0.5);
  for (double& k : key_sets[2]) {
    k = 0.9999 + static_cast<double>(rng.next_below(64)) * 1e-6;
  }
  for (const std::vector<double>& keys : key_sets) {
    std::vector<std::uint32_t> expected(n);
    std::iota(expected.begin(), expected.end(), 0u);
    std::sort(expected.begin(), expected.end(),
              [&](std::uint32_t a, std::uint32_t b) {
                return keys[a] != keys[b] ? keys[a] < keys[b] : a < b;
              });
    for (const int threads : kThreadCounts) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      ScopedNumThreads guard(threads);
      BucketSortScratch<double> scratch;
      bucketed_sort_ids<double>(
          n, buckets, [&](std::uint32_t i) { return keys[i]; },
          [&](double key) {
            return std::min(
                static_cast<std::size_t>(key * static_cast<double>(buckets)),
                buckets - 1);
          },
          scratch);
      std::vector<std::uint32_t> got(n);
      for (std::size_t i = 0; i < n; ++i) got[i] = scratch.items[i].id;
      ASSERT_EQ(got, expected);
    }
  }
}

TEST(CountingSort, BucketedSortIdsSizesEveryThreadScratchUpFront) {
  // Which thread refines which bucket changes from call to call, so every
  // thread's segment scratch must already fit the largest bucket when the
  // finishing pass forks; otherwise a warm call can allocate.
  ScopedNumThreads guard(4);
  const std::size_t n = 60000;
  const std::size_t buckets = bucket_count_for(n);
  BucketSortScratch<std::uint64_t> scratch;
  const int shift = 64 - std::countr_zero(buckets);
  bucketed_sort_ids<std::uint64_t>(
      n, buckets, [](std::uint32_t i) { return hash_stream(3, i); },
      [&](std::uint64_t key) { return static_cast<std::size_t>(key >> shift); },
      scratch);
  std::size_t max_len = scratch.bucket_ends[0];
  for (std::size_t b = 1; b < buckets; ++b) {
    max_len = std::max<std::size_t>(
        max_len, scratch.bucket_ends[b] - scratch.bucket_ends[b - 1]);
  }
  ASSERT_GT(max_len, detail::kInsertionSortMax);
  ASSERT_GE(scratch.segment_scratch.size(), 4u);
  for (const auto& seg : scratch.segment_scratch) {
    EXPECT_GE(seg.buf.size(), max_len);
    EXPECT_GT(seg.counts.size(), detail::sub_bucket_count(max_len));
  }
}

/// The activation schedule as the retired serial three-pass counting sort
/// built it: centers by round, ascending id inside a round, kNoStart
/// vertices left out; offsets[t]..offsets[t + 1] is round t.
struct ReferenceSchedule {
  std::vector<vertex_t> centers;
  std::vector<std::uint32_t> offsets;
  std::uint32_t max_round = 0;
};

ReferenceSchedule reference_schedule(const std::vector<std::uint32_t>& start) {
  ReferenceSchedule ref;
  for (const std::uint32_t s : start) {
    if (s != kNoStart) ref.max_round = std::max(ref.max_round, s);
  }
  ref.offsets.assign(static_cast<std::size_t>(ref.max_round) + 2, 0);
  for (const std::uint32_t s : start) {
    if (s != kNoStart) ++ref.offsets[s + 1];
  }
  for (std::size_t t = 1; t < ref.offsets.size(); ++t) {
    ref.offsets[t] += ref.offsets[t - 1];
  }
  for (std::uint32_t t = 0; t <= ref.max_round; ++t) {
    for (vertex_t v = 0; v < start.size(); ++v) {
      if (start[v] == t) ref.centers.push_back(v);
    }
  }
  return ref;
}

void expect_schedule_matches(const std::vector<std::uint32_t>& start) {
  const ReferenceSchedule ref = reference_schedule(start);
  for (const int threads : kThreadCounts) {
    SCOPED_TRACE("n=" + std::to_string(start.size()) +
                 " threads=" + std::to_string(threads));
    ScopedNumThreads guard(threads);
    MultiSourceBfsWorkspace ws;
    const detail::ActivationBuckets b = detail::build_buckets(start, ws);
    EXPECT_EQ(b.max_round, ref.max_round);
    EXPECT_EQ(std::vector<vertex_t>(b.centers.begin(), b.centers.end()),
              ref.centers);
    EXPECT_EQ(std::vector<std::uint32_t>(b.offsets.begin(), b.offsets.end()),
              ref.offsets);
    for (std::uint32_t t = 0; t <= ref.max_round; ++t) {
      const std::span<const vertex_t> got = b.bucket(t);
      ASSERT_TRUE(std::equal(got.begin(), got.end(),
                             ref.centers.begin() + ref.offsets[t],
                             ref.centers.begin() + ref.offsets[t + 1]));
    }
  }
}

TEST(CountingSort, BuildBucketsMatchesSerialScheduleWithNoStart) {
  Xoshiro256pp rng(23);
  std::vector<std::uint32_t> start(2 * kCountingSortBlock + 4321);
  for (std::uint32_t& s : start) {
    s = rng.next_below(10) == 0
            ? kNoStart
            : static_cast<std::uint32_t>(rng.next_below(60));
  }
  expect_schedule_matches(start);
  // The last vertices never start, so the dropped bucket sits at the end
  // of the centers array too.
  std::fill(start.end() - 1000, start.end(), kNoStart);
  expect_schedule_matches(start);
  expect_schedule_matches({});
  expect_schedule_matches(std::vector<std::uint32_t>(100, kNoStart));
  expect_schedule_matches({kNoStart, 0, kNoStart, 3, 0});
}

}  // namespace
}  // namespace mpx
