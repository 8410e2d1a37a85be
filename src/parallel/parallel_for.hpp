// parallel_for: the basic data-parallel loop, expressed once so every
// subsystem shares the same grain-size policy. Light per-item loops stay
// serial below a threshold where forking costs more than the loop body;
// heavy per-item loops (parallel_for_dynamic) fork from two items on.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>

#if defined(_OPENMP)
#include <omp.h>
#endif

namespace mpx {

/// Below this trip count parallel_for runs serially; OpenMP fork/join
/// overhead (~microseconds) dwarfs tiny loops of light items.
inline constexpr std::size_t kSerialGrain = 2048;

/// Apply `f(i)` for every i in [begin, end), in parallel.
/// `f` must be safe to invoke concurrently for distinct i.
template <typename Index, typename Func>
void parallel_for(Index begin, Index end, Func&& f) {
  if (begin >= end) return;
  const std::size_t trip = static_cast<std::size_t>(end - begin);
  if (trip < kSerialGrain) {
    for (Index i = begin; i < end; ++i) f(i);
    return;
  }
#if defined(_OPENMP)
#pragma omp parallel for schedule(static)
  for (std::int64_t i = static_cast<std::int64_t>(begin);
       i < static_cast<std::int64_t>(end); ++i) {
    f(static_cast<Index>(i));
  }
#else
  for (Index i = begin; i < end; ++i) f(i);
#endif
}

/// Dynamic-schedule variant for heavy, irregular per-item work: one
/// Dijkstra per cluster, one diameter per cluster, one counting block or
/// one rank bucket per item. Unlike parallel_for it forks from 2 items on,
/// because every item is worth far more than a fork; the chunk is sized so
/// every thread gets several chunks (at most 256 items each).
template <typename Index, typename Func>
void parallel_for_dynamic(Index begin, Index end, Func&& f) {
  if (begin >= end) return;
#if defined(_OPENMP)
  const std::size_t trip = static_cast<std::size_t>(end - begin);
  const std::size_t threads = static_cast<std::size_t>(omp_get_max_threads());
  if (trip >= 2 && threads > 1) {
    const std::size_t chunk =
        std::clamp(trip / (8 * threads), std::size_t{1}, std::size_t{256});
#pragma omp parallel for schedule(dynamic, chunk)
    for (std::int64_t i = static_cast<std::int64_t>(begin);
         i < static_cast<std::int64_t>(end); ++i) {
      f(static_cast<Index>(i));
    }
    return;
  }
#endif
  for (Index i = begin; i < end; ++i) f(i);
}

}  // namespace mpx
