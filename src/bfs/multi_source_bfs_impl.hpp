// Graph-generic implementation of the delayed multi-source BFS (the
// machinery that used to live in multi_source_bfs.cpp's anonymous
// namespace). Templated on the graph type so the same claim semantics run
// over an in-memory CsrGraph and an out-of-core storage::PagedGraph; the
// engine-facing entry points stay in multi_source_bfs.hpp (CsrGraph) and
// core/decomposer.cpp (paged). DialBucketVisitor, the integer-weighted
// form behind "mpx-bucketed", lives here too. Determinism is unchanged:
// every cross-thread race is an atomic min over a packed (rank, center)
// word, so owner/settle arrays are byte-identical across thread counts and
// graph backends that decode identical adjacency.
#pragma once

#include <algorithm>
#include <limits>
#include <span>
#include <vector>

#include "bfs/multi_source_bfs.hpp"
#include "bfs/traversal.hpp"
#include "parallel/atomics.hpp"
#include "parallel/counting_sort.hpp"
#include "parallel/reduce.hpp"
#include "parallel/thread_env.hpp"
#include "support/assert.hpp"
#include "support/types.hpp"

namespace mpx::detail {

inline constexpr std::uint64_t kMsBfsUnclaimed =
    std::numeric_limits<std::uint64_t>::max();

/// Priority word: smaller rank wins; the low half carries the center id so
/// the winner can be recovered from the word alone.
constexpr std::uint64_t msbfs_priority_word(std::uint32_t rank,
                                            vertex_t center) noexcept {
  return (static_cast<std::uint64_t>(rank) << 32) |
         static_cast<std::uint64_t>(center);
}

/// Center id packed in the low half of a priority word.
constexpr vertex_t msbfs_center_of(std::uint64_t word) noexcept {
  return static_cast<vertex_t>(word & 0xffffffffULL);
}

/// Activation schedule: centers grouped by start round, as one flat array
/// plus offsets (a stable counting sort on start_round, so each round's
/// centers are in ascending id order). Views the storage held by a
/// MultiSourceBfsWorkspace so repeated runs reuse it.
struct ActivationBuckets {
  std::span<const vertex_t> centers;       // grouped by round
  std::span<const std::uint32_t> offsets;  // offsets[t]..offsets[t+1]
  std::uint32_t max_round = 0;

  [[nodiscard]] std::span<const vertex_t> bucket(std::uint32_t t) const {
    if (t > max_round) return {};
    return {centers.data() + offsets[t], offsets[t + 1] - offsets[t]};
  }
};

/// Rounds 0..max_round are buckets 0..max_round; kNoStart vertices go to
/// one trailing bucket, which the schedule then drops.
inline ActivationBuckets build_buckets(
    std::span<const std::uint32_t> start_round, MultiSourceBfsWorkspace& ws) {
  const std::size_t n = start_round.size();
  ActivationBuckets b;
  b.max_round = parallel_max(std::size_t{0}, n, std::uint32_t{0},
                             [&](std::size_t v) {
                               return start_round[v] == kNoStart
                                          ? 0u
                                          : start_round[v];
                             });
  const std::size_t no_start = static_cast<std::size_t>(b.max_round) + 1;
  ws.bucket_centers.resize(n);
  ws.bucket_offsets.resize(no_start + 2);
  ws.bucket_offsets[0] = 0;
  stable_counting_sort<vertex_t>(
      n, no_start + 1, [](std::uint32_t v) { return static_cast<vertex_t>(v); },
      [&](vertex_t v) {
        return start_round[v] == kNoStart
                   ? no_start
                   : static_cast<std::size_t>(start_round[v]);
      },
      std::span<vertex_t>(ws.bucket_centers),
      std::span<std::uint32_t>(ws.bucket_offsets).subspan(1),
      ws.bucket_counts);
  b.centers = {ws.bucket_centers.data(), ws.bucket_offsets[no_start]};
  b.offsets = {ws.bucket_offsets.data(), no_start + 1};
  return b;
}

/// The claim semantics of Algorithm 1 for the traversal engine: a 64-bit
/// (rank, center) priority word per vertex, lowered by atomic min from the
/// push path and by a local min from the pull path. Every vertex offered a
/// claim in round t settles in round t, so claim words never carry state
/// across rounds for unsettled vertices — which is exactly why push and
/// pull resolve identical winners.
///
/// Each expand()/pull() iterates exactly one neighbors() span at a time
/// per calling thread, which is the span-lifetime contract PagedGraph
/// guarantees (storage/paged_graph.hpp "Span lifetime").
template <typename Graph>
struct DelayedBfsVisitor {
  const Graph& g;
  std::span<const std::uint32_t> rank;
  ActivationBuckets buckets;
  MultiSourceBfsResult& result;
  std::vector<std::uint64_t>& claim;  // workspace-owned, reset per run

  DelayedBfsVisitor(const Graph& graph,
                    std::span<const std::uint32_t> start_round,
                    std::span<const std::uint32_t> rank_in,
                    MultiSourceBfsResult& out, MultiSourceBfsWorkspace& ws)
      : g(graph),
        rank(rank_in),
        buckets(build_buckets(start_round, ws)),
        result(out),
        claim(ws.claim) {
    claim.assign(g.num_vertices(), kMsBfsUnclaimed);
  }

  [[nodiscard]] std::span<const vertex_t> activations(std::uint32_t t) const {
    return buckets.bucket(t);
  }

  [[nodiscard]] bool activations_done(std::uint32_t t) const {
    return buckets.centers.empty() || t > buckets.max_round;
  }

  [[nodiscard]] bool settled(vertex_t v) const {
    return atomic_load(result.settle_round[v]) != kInfDist;
  }

  bool offer_self(vertex_t c) {
    if (settled(c)) return false;
    atomic_fetch_min(claim[c], msbfs_priority_word(rank[c], c));
    return true;
  }

  template <typename Emit>
  void expand(vertex_t u, Emit&& emit) {
    const vertex_t c = result.owner[u];
    const std::uint64_t word = msbfs_priority_word(rank[c], c);
    for (const vertex_t v : g.neighbors(u)) {
      if (settled(v)) continue;
      atomic_fetch_min(claim[v], word);
      emit(v);
    }
  }

  bool pull(vertex_t v, std::uint32_t t) {
    // Start from any self-activation claim recorded this round, then take
    // the min over neighbors settled last round. Only this iteration
    // touches v, so the final word is written without atomics.
    std::uint64_t word = claim[v];
    const std::uint32_t prev = t - 1;
    for (const vertex_t u : g.neighbors(v)) {
      if (atomic_load(result.settle_round[u]) == prev) {
        const vertex_t c = result.owner[u];
        word = std::min(word, msbfs_priority_word(rank[c], c));
      }
    }
    if (word == kMsBfsUnclaimed) return false;
    result.owner[v] = msbfs_center_of(word);
    atomic_store(result.settle_round[v], t);
    return true;
  }

  void settle(vertex_t v, std::uint32_t t) {
    result.settle_round[v] = t;
    result.owner[v] = msbfs_center_of(claim[v]);
  }
};

/// The weighted form of DelayedBfsVisitor behind "mpx-bucketed": Dial's
/// bucket queue run as engine rounds, for positive integer arc lengths (a
/// constructive answer to Section 6's remark that the weighted depth is
/// "harder to control"). A search that settles u at round s claims its
/// neighbor v at round s + w(u, v); unit arcs claim in expand() exactly as
/// DelayedBfsVisitor does, longer ones are held back and applied by
/// activations() at their arrival round, before that round's expansions.
/// Every claim applied in round t thus lands on a vertex that settles in
/// round t, the engine's invariant, and the output equals the sequential
/// shifted Dijkstra (weighted_partition): integer arrival rounds, with the
/// (rank, center) word as the total order on ties.
///
/// Push only: a pull round would skip the expansions that hold long arcs
/// back, so WeightedCsrGraph opts out of pull (kGraphSupportsPull).
/// Preconditions: every arc length is an integer >= 1, and no arrival
/// round (max start round + max length) reaches kInfDist.
struct DialBucketVisitor {
  /// A claim travelling along an arc longer than one round.
  struct HeldClaim {
    vertex_t v;
    std::uint32_t round;  ///< arrival (= settle) round
    std::uint64_t word;
  };
  /// Held claims arriving at one round, as parallel target/word arrays.
  struct RoundClaims {
    std::vector<vertex_t> targets;
    std::vector<std::uint64_t> words;
  };

  const WeightedCsrGraph& g;
  std::span<const std::uint32_t> start_round;
  std::span<const std::uint32_t> rank;
  ActivationBuckets buckets;
  MultiSourceBfsResult& result;
  std::vector<std::uint64_t>& claim;  // workspace-owned, reset per run
  /// This round's held claims, one buffer per thread (expand() runs
  /// inside the engine's parallel loop); bucketed by the next round.
  std::vector<std::vector<HeldClaim>> staged;
  std::vector<RoundClaims> held;  // by arrival round, grown on demand
  std::vector<vertex_t> arrivals;  // activations() of the current round
  std::uint32_t round = 0;

  DialBucketVisitor(const WeightedCsrGraph& graph,
                    std::span<const std::uint32_t> start_round_in,
                    std::span<const std::uint32_t> rank_in,
                    MultiSourceBfsResult& out, MultiSourceBfsWorkspace& ws)
      : g(graph),
        start_round(start_round_in),
        rank(rank_in),
        buckets(build_buckets(start_round_in, ws)),
        result(out),
        claim(ws.claim),
        staged(static_cast<std::size_t>(std::max(1, num_threads()))) {
    claim.assign(g.num_vertices(), kMsBfsUnclaimed);
  }

  std::span<const vertex_t> activations(std::uint32_t t) {
    round = t;
    // Bucket the claims held back by last round's expansions (serial:
    // rounds collide across threads; O(1) per claim).
    for (std::vector<HeldClaim>& local : staged) {
      for (const HeldClaim& c : local) {
        if (held.size() <= c.round) held.resize(c.round + std::size_t{1});
        held[c.round].targets.push_back(c.v);
        held[c.round].words.push_back(c.word);
      }
      local.clear();
    }
    if (t >= held.size() || held[t].targets.empty()) return buckets.bucket(t);

    RoundClaims due = std::move(held[t]);  // releases the bucket
    parallel_for(std::size_t{0}, due.targets.size(), [&](std::size_t i) {
      const vertex_t v = due.targets[i];
      if (!settled(v)) atomic_fetch_min(claim[v], due.words[i]);
    });
    // Settled targets and duplicates stay in: offer_self() rejects the
    // former, the engine dedups the latter.
    arrivals = std::move(due.targets);
    const std::span<const vertex_t> starting = buckets.bucket(t);
    arrivals.insert(arrivals.end(), starting.begin(), starting.end());
    return arrivals;
  }

  [[nodiscard]] bool activations_done(std::uint32_t t) const {
    return (buckets.centers.empty() || t > buckets.max_round) &&
           t >= held.size();
  }

  [[nodiscard]] bool settled(vertex_t v) const {
    return atomic_load(result.settle_round[v]) != kInfDist;
  }

  /// Round-t arrivals already carry their claim (applied in
  /// activations()); only the centers starting now add their own word.
  bool offer_self(vertex_t v) {
    if (settled(v)) return false;
    if (start_round[v] == round) {
      atomic_fetch_min(claim[v], msbfs_priority_word(rank[v], v));
    }
    return true;
  }

  template <typename Emit>
  void expand(vertex_t u, Emit&& emit) {
    const vertex_t c = result.owner[u];
    const std::uint64_t word = msbfs_priority_word(rank[c], c);
    const std::uint32_t settled_at = result.settle_round[u];
#if defined(_OPENMP)
    // omp_get_thread_num() is 0 outside a parallel region, so this also
    // covers the engine's serial small rounds.
    std::vector<HeldClaim>& hold =
        staged[static_cast<std::size_t>(omp_get_thread_num())];
#else
    std::vector<HeldClaim>& hold = staged[0];
#endif
    const std::span<const vertex_t> nbrs = g.neighbors(u);
    const std::span<const double> lengths = g.arc_weights(u);
    for (std::size_t a = 0; a < nbrs.size(); ++a) {
      const vertex_t v = nbrs[a];
      if (settled(v)) continue;
      if (lengths[a] == 1.0) {
        atomic_fetch_min(claim[v], word);
        emit(v);
      } else {
        hold.push_back(
            {v, settled_at + static_cast<std::uint32_t>(lengths[a]), word});
      }
    }
  }

  void settle(vertex_t v, std::uint32_t t) {
    result.settle_round[v] = t;
    result.owner[v] = msbfs_center_of(claim[v]);
  }
};

/// Graph-generic body of delayed_multi_source_bfs (see the CsrGraph entry
/// point in multi_source_bfs.hpp for semantics and preconditions).
template <typename Graph>
[[nodiscard]] MultiSourceBfsResult delayed_multi_source_bfs_impl(
    const Graph& g, std::span<const std::uint32_t> start_round,
    std::span<const std::uint32_t> rank, std::uint32_t max_rounds,
    TraversalEngine engine, MultiSourceBfsWorkspace* workspace) {
  const vertex_t n = g.num_vertices();
  MPX_EXPECTS(start_round.size() == n);
  MPX_EXPECTS(rank.size() == n);

  MultiSourceBfsWorkspace local;
  MultiSourceBfsWorkspace& ws = workspace != nullptr ? *workspace : local;

  MultiSourceBfsResult result;
  result.owner.assign(n, kInvalidVertex);
  result.settle_round.assign(n, kInfDist);

  DelayedBfsVisitor<Graph> vis(g, start_round, rank, result, ws);
  TraversalParams params;
  params.engine = engine;
  params.max_rounds = max_rounds;
  // Priority-word pulls must scan every neighbor (no early exit as in
  // plain BFS), so bottom-up pays only where offers concentrate on
  // high-degree vertices: a settled hub is then claimed by one scan
  // instead of issuing thousands of atomic offers. Gate on degree skew —
  // near-regular meshes never profit from pulling, skewed graphs do
  // (measured: auto ~1.5x push on rmat(20), parity on grid2d(3000)).
  // Degrees come from the resident offsets on every backend, so the gate
  // itself costs no block I/O on paged graphs (where pull is disabled
  // anyway — see kGraphSupportsPull).
  if (engine == TraversalEngine::kAuto && n > 0) {
    const vertex_t max_degree = parallel_max<vertex_t>(
        vertex_t{0}, n, vertex_t{0}, [&](vertex_t v) { return g.degree(v); });
    const double avg_degree =
        static_cast<double>(g.num_arcs()) / static_cast<double>(n);
    const bool skewed =
        avg_degree > 0.0 && static_cast<double>(max_degree) >= 8.0 * avg_degree;
    params.alpha_div = skewed ? 4 : 1;
  }
  const TraversalStats stats = run_traversal(g, vis, params, &ws.traversal);

  result.rounds = stats.rounds;
  result.pull_rounds = stats.pull_rounds;
  result.arcs_scanned = stats.arcs_scanned;
  return result;
}

}  // namespace mpx::detail
