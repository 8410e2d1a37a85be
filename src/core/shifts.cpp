#include "core/shifts.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "parallel/bucket_rank.hpp"
#include "parallel/parallel_for.hpp"
#include "parallel/reduce.hpp"
#include "support/assert.hpp"
#include "support/random.hpp"
#include "support/timer.hpp"

namespace mpx {
namespace {

/// Ranks = ascending order of frac(delta_max - delta_u), ties by id — the
/// exact order the retired comparator sort produced, built by a bucketed
/// rank instead: frac keys are near-uniform in [0, 1) for exponential
/// shifts, so floor(frac * B) is a monotone bucket map that localizes the
/// sort to B equal-sized buckets (parallel/bucket_rank.hpp proves the
/// bitwise-identity argument; tests/test_shift_rank_identity.cpp checks it
/// against the old sort across every distribution, tie-break, and thread
/// count).
void fractional_ranks(const std::vector<double>& delta, double delta_max,
                      std::vector<std::uint32_t>& rank,
                      ShiftWorkspace& scratch) {
  const std::size_t n = delta.size();
  rank.resize(n);
  if (n == 0) return;
  const std::size_t buckets = bucket_count_for(n);
  const double scale = static_cast<double>(buckets);
  bucketed_sort_ids<double>(
      n, buckets,
      [&](std::uint32_t u) {
        const double start = delta_max - delta[u];
        return start - std::floor(start);
      },
      // frac < 1 puts frac * B below B mathematically, but the product can
      // round up to exactly B for frac within one ulp of 1 — clamp.
      [&](double key) {
        return std::min(static_cast<std::size_t>(key * scale), buckets - 1);
      },
      scratch.rank_scratch);
  const std::vector<KeyedItem<double>>& items = scratch.rank_scratch.items;
  parallel_for(std::size_t{0}, n, [&](std::size_t i) {
    rank[items[i].id] = static_cast<std::uint32_t>(i);
  });
}

/// delta -> (delta_max, start_round). `known_max` is the basis-derived
/// maximum when the caller already has it (batch runs); it must equal the
/// reduction bitwise — see ShiftBasis::base_max.
void finish_start_rounds(vertex_t n, Shifts& s, const double* known_max) {
  s.delta_max = known_max != nullptr
                    ? *known_max
                    : parallel_max(vertex_t{0}, n, 0.0,
                                   [&](vertex_t u) { return s.delta[u]; });

  s.start_round.resize(n);
  parallel_for(vertex_t{0}, n, [&](vertex_t u) {
    const double start = s.delta_max - s.delta[u];
    MPX_ASSERT(start >= 0.0);
    s.start_round[u] = static_cast<std::uint32_t>(std::floor(start));
  });
}

/// The tie-break rank construction of `opt.tie_break`.
void build_ranks(vertex_t n, const PartitionOptions& opt, Shifts& s,
                 ShiftWorkspace& scratch) {
  switch (opt.tie_break) {
    case TieBreak::kFractionalShift:
      fractional_ranks(s.delta, s.delta_max, s.rank, scratch);
      break;
    case TieBreak::kRandomPermutation: {
      // rank[v] = position of v in a random permutation independent of the
      // shift values (keyed off a decorrelated stream of the same seed).
      // parallel_random_permutation ranks its uniform 64-bit hash keys
      // through the same bucketed pass the fractional path uses.
      const std::vector<std::uint32_t> perm = parallel_random_permutation(
          n, hash_stream(opt.seed, 0x7065726d75746174ULL));
      s.rank.resize(n);
      parallel_for(std::size_t{0}, s.rank.size(), [&](std::size_t i) {
        s.rank[perm[i]] = static_cast<std::uint32_t>(i);
      });
      break;
    }
    case TieBreak::kLexicographic:
      s.rank.resize(n);
      std::iota(s.rank.begin(), s.rank.end(), 0u);
      break;
  }
}

/// The delta -> (delta_max, start_round, rank) finishing pass shared by the
/// direct and basis-derived generation paths. `timer` has been running
/// since the caller started drawing; the draw/rank split lands in the
/// workspace for the decomposer's telemetry.
void finish_shifts(vertex_t n, const PartitionOptions& opt, Shifts& s,
                   ShiftWorkspace& scratch, const WallTimer& timer,
                   const double* known_max) {
  finish_start_rounds(n, s, known_max);
  scratch.last_draw_seconds = timer.seconds();
  build_ranks(n, opt, s, scratch);
  scratch.last_rank_seconds = timer.seconds() - scratch.last_draw_seconds;
}

}  // namespace

void generate_shifts(vertex_t n, const PartitionOptions& opt, Shifts& out,
                     ShiftWorkspace* scratch) {
  MPX_EXPECTS(opt.beta > 0.0 && opt.beta <= 1.0);
  ShiftWorkspace local;
  ShiftWorkspace& ws = scratch != nullptr ? *scratch : local;
  const WallTimer timer;
  out.delta.resize(n);
  switch (opt.distribution) {
    case ShiftDistribution::kExponential:
      parallel_for(vertex_t{0}, n, [&](vertex_t u) {
        out.delta[u] = exponential_shift(opt.seed, u, opt.beta);
      });
      break;
    case ShiftDistribution::kPermutationQuantile: {
      // Vertex at position p of a random permutation gets the
      // ((p + 1/2)/n)-quantile of Exp(beta): the sorted shift profile is
      // deterministic; only the permutation is random (Section 5).
      const std::vector<std::uint32_t> perm = parallel_random_permutation(
          n, hash_stream(opt.seed, 0x7175616e74696c65ULL));
      parallel_for(std::size_t{0}, out.delta.size(), [&](std::size_t p) {
        const double quantile =
            (static_cast<double>(p) + 0.5) / static_cast<double>(n);
        out.delta[perm[p]] = exponential_from_uniform(quantile, opt.beta);
      });
      break;
    }
    case ShiftDistribution::kUniform: {
      // Locally-uniform shifts in the style of [9]; range ln(n)/beta keeps
      // the same diameter scale as the exponential's w.h.p. maximum.
      const double range =
          std::log(static_cast<double>(n) + 1.0) / opt.beta;
      parallel_for(vertex_t{0}, n, [&](vertex_t u) {
        out.delta[u] = range * uniform_shift(opt.seed, u);
      });
      break;
    }
  }
  finish_shifts(n, opt, out, ws, timer, nullptr);
}

Shifts generate_shifts(vertex_t n, const PartitionOptions& opt) {
  Shifts s;
  generate_shifts(n, opt, s);
  return s;
}

ShiftBasis make_shift_basis(vertex_t n, const PartitionOptions& opt) {
  ShiftBasis basis;
  basis.distribution = opt.distribution;
  basis.seed = opt.seed;
  basis.n = n;
  basis.base.resize(n);
  switch (opt.distribution) {
    case ShiftDistribution::kExponential:
      // The unit-rate exponential -ln(1 - u_v); the direct draw divides
      // this exact value by beta (exponential_from_uniform), so the
      // per-beta scaling in shifts_from_basis is bitwise-faithful.
      parallel_for(vertex_t{0}, n, [&](vertex_t u) {
        basis.base[u] =
            -std::log1p(-uniform_double(hash_stream(opt.seed, u)));
      });
      break;
    case ShiftDistribution::kPermutationQuantile: {
      const std::vector<std::uint32_t> perm = parallel_random_permutation(
          n, hash_stream(opt.seed, 0x7175616e74696c65ULL));
      parallel_for(std::size_t{0}, basis.base.size(), [&](std::size_t p) {
        const double quantile =
            (static_cast<double>(p) + 0.5) / static_cast<double>(n);
        basis.base[perm[p]] = -std::log1p(-quantile);
      });
      break;
    }
    case ShiftDistribution::kUniform:
      parallel_for(vertex_t{0}, n, [&](vertex_t u) {
        basis.base[u] = uniform_shift(opt.seed, u);
      });
      break;
  }
  basis.base_max = parallel_max(vertex_t{0}, n, 0.0,
                                [&](vertex_t u) { return basis.base[u]; });
  return basis;
}

void shifts_from_basis(const ShiftBasis& basis, const PartitionOptions& opt,
                       Shifts& out, ShiftWorkspace* scratch) {
  MPX_EXPECTS(opt.beta > 0.0 && opt.beta <= 1.0);
  MPX_EXPECTS(basis.distribution == opt.distribution);
  MPX_EXPECTS(basis.seed == opt.seed);
  const vertex_t n = basis.n;
  MPX_EXPECTS(basis.base.size() == n);
  ShiftWorkspace local;
  ShiftWorkspace& ws = scratch != nullptr ? *scratch : local;
  const WallTimer timer;
  out.delta.resize(n);
  // The per-beta scaling is monotone, so the scaled base_max IS the
  // delta_max a fresh reduction would find (same argmax vertex, same
  // rounding) — each beta of a batch skips that O(n) pass.
  double derived_max = 0.0;
  switch (opt.distribution) {
    case ShiftDistribution::kExponential:
    case ShiftDistribution::kPermutationQuantile:
      parallel_for(vertex_t{0}, n, [&](vertex_t u) {
        out.delta[u] = basis.base[u] / opt.beta;
      });
      derived_max = basis.base_max / opt.beta;
      break;
    case ShiftDistribution::kUniform: {
      const double range =
          std::log(static_cast<double>(n) + 1.0) / opt.beta;
      parallel_for(vertex_t{0}, n, [&](vertex_t u) {
        out.delta[u] = range * basis.base[u];
      });
      derived_max = range * basis.base_max;
      break;
    }
  }
  finish_shifts(n, opt, out, ws, timer, n > 0 ? &derived_max : nullptr);
}

}  // namespace mpx
