// Experiment E14 — google-benchmark microbenchmarks of the parallel
// primitives layer (scan / reduce / pack / sort / counting sort / bucketed
// rank / shift generation).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <numeric>
#include <vector>

#include "core/shifts.hpp"
#include "parallel/bucket_rank.hpp"
#include "parallel/counting_sort.hpp"
#include "parallel/pack.hpp"
#include "parallel/reduce.hpp"
#include "parallel/scan.hpp"
#include "parallel/sort.hpp"
#include "parallel/thread_env.hpp"
#include "support/random.hpp"

namespace {

std::vector<std::uint64_t> random_data(std::size_t n) {
  std::vector<std::uint64_t> data(n);
  for (std::size_t i = 0; i < n; ++i) data[i] = mpx::hash_stream(3, i);
  return data;
}

void BM_ExclusiveScan(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const std::vector<std::uint64_t> data = random_data(n);
  std::vector<std::uint64_t> work(n);
  for (auto _ : state) {
    std::copy(data.begin(), data.end(), work.begin());
    benchmark::DoNotOptimize(
        mpx::exclusive_scan_inplace(std::span<std::uint64_t>(work)));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}

void BM_ParallelSum(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const std::vector<std::uint64_t> data = random_data(n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(mpx::parallel_sum<std::uint64_t>(
        std::size_t{0}, n, [&](std::size_t i) { return data[i]; }));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}

void BM_PackIndices(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const std::vector<std::uint64_t> data = random_data(n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        mpx::pack_indices(n, [&](std::size_t i) { return data[i] % 3 == 0; }));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}

void BM_ParallelSort(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const std::vector<std::uint64_t> data = random_data(n);
  std::vector<std::uint64_t> work(n);
  for (auto _ : state) {
    std::copy(data.begin(), data.end(), work.begin());
    mpx::parallel_sort(std::span<std::uint64_t>(work));
    benchmark::DoNotOptimize(work.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}

void BM_GenerateShifts(benchmark::State& state) {
  const mpx::vertex_t n = static_cast<mpx::vertex_t>(state.range(0));
  mpx::PartitionOptions opt;
  opt.beta = 0.05;
  opt.seed = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(mpx::generate_shifts(n, opt));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}

void BM_ParallelPermutation(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(mpx::parallel_random_permutation(n, 5));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}

// The shift rank's two layers, swept over n and the thread count (args:
// n, threads). Keys are uniform in [0, 1), the shape of the fractional
// shift keys; scratch is reused across iterations, as the workspace does.
std::vector<double> unit_keys(std::size_t n) {
  std::vector<double> keys(n);
  for (std::size_t i = 0; i < n; ++i) {
    keys[i] = static_cast<double>(mpx::hash_stream(7, i) >> 11) * 0x1.0p-53;
  }
  return keys;
}

void BM_CountingSort(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const mpx::ScopedNumThreads threads(static_cast<int>(state.range(1)));
  const std::vector<double> keys = unit_keys(n);
  const std::size_t buckets = mpx::bucket_count_for(n);
  const double scale = static_cast<double>(buckets);
  std::vector<std::uint32_t> out(n);
  std::vector<std::uint32_t> ends(buckets);
  std::vector<std::uint32_t> block_counts;
  for (auto _ : state) {
    mpx::stable_counting_sort<std::uint32_t>(
        n, buckets, [](std::uint32_t i) { return i; },
        [&](std::uint32_t i) {
          return std::min(static_cast<std::size_t>(keys[i] * scale),
                          buckets - 1);
        },
        std::span<std::uint32_t>(out), std::span<std::uint32_t>(ends),
        block_counts);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}

void BM_BucketedRank(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const mpx::ScopedNumThreads threads(static_cast<int>(state.range(1)));
  const std::vector<double> keys = unit_keys(n);
  const std::size_t buckets = mpx::bucket_count_for(n);
  const double scale = static_cast<double>(buckets);
  mpx::BucketSortScratch<double> scratch;
  for (auto _ : state) {
    mpx::bucketed_sort_ids<double>(
        n, buckets, [&](std::uint32_t i) { return keys[i]; },
        [&](double key) {
          return std::min(static_cast<std::size_t>(key * scale), buckets - 1);
        },
        scratch);
    benchmark::DoNotOptimize(scratch.items.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}

BENCHMARK(BM_CountingSort)
    ->ArgsProduct({{1, 1 << 10, 1 << 16, 1 << 20, 9000000}, {1, 2, 4}})
    ->UseRealTime();
BENCHMARK(BM_BucketedRank)
    ->ArgsProduct({{1, 1 << 10, 1 << 16, 1 << 20, 9000000}, {1, 2, 4}})
    ->UseRealTime();
BENCHMARK(BM_ExclusiveScan)->Arg(1 << 16)->Arg(1 << 22);
BENCHMARK(BM_ParallelSum)->Arg(1 << 16)->Arg(1 << 22);
BENCHMARK(BM_PackIndices)->Arg(1 << 16)->Arg(1 << 22);
BENCHMARK(BM_ParallelSort)->Arg(1 << 16)->Arg(1 << 20);
BENCHMARK(BM_GenerateShifts)->Arg(1 << 16)->Arg(1 << 20);
BENCHMARK(BM_ParallelPermutation)->Arg(1 << 16)->Arg(1 << 20);

}  // namespace

BENCHMARK_MAIN();
