// The shared traversal engine: one direction-optimizing, level-synchronous
// round loop behind every search in the library (delayed multi-source BFS,
// its Dial-bucketed weighted form behind "mpx-bucketed", parallel BFS, the
// baselines).
//
// Each round the engine either
//   * pushes — frontier vertices offer claims to their neighbors
//     (top-down; work proportional to the frontier's out-degree, claims
//     resolved by atomic operations), or
//   * pulls  — every still-unsettled vertex scans its own neighbors for
//     frontier members and resolves its claim locally, writing the result
//     without atomics (bottom-up; work proportional to the unsettled
//     volume, with candidate bits written a whole bitmap word at a time).
// The auto engine switches with the classic Beamer et al. heuristic: pull
// while the frontier's out-degree exceeds a fraction of the unexplored
// arcs (or the frontier itself a fraction of the vertices), push
// otherwise. Rounds far below the fork/join break-even run serially, which
// high-diameter graphs (hundreds of tiny rounds) depend on.
//
// Candidates are collected in a Frontier bitmap and compacted with a
// summary-blocked pack — there are no per-thread buffers and no serial
// stitching step, so every per-round phase is parallel.
//
// The engine choice never changes the result: push and pull compute the
// same claim minimum for every vertex, so owner/settle arrays are
// byte-identical across kPush, kPull, and kAuto (asserted by
// tests/test_frontier.cpp on every fixture family).
//
// A visitor supplies the problem-specific claim semantics:
//
//   struct Visitor {
//     // Vertices that self-activate at round t (sorted grouping is not
//     // required; the engine dedups). Called once per round, in round
//     // order, before any other call of that round, so a visitor may also
//     // apply round-t claims it held back in earlier rounds here.
//     std::span<const vertex_t> activations(std::uint32_t t);
//     // True when no activation will occur at any round >= t.
//     bool activations_done(std::uint32_t t) const;
//     // True once v has been permanently settled.
//     bool settled(vertex_t v) const;
//     // Record v's self-activation claim; false if v is already settled.
//     bool offer_self(vertex_t v);
//     // Push: scan u's neighbors, record claims, emit(v) every unsettled
//     // neighbor (duplicates allowed; the engine dedups).
//     template <typename Emit> void expand(vertex_t u, Emit&& emit);
//     // Pull: resolve v's claim from its neighbors settled at round t-1
//     // plus any recorded self-activation claim; settle v inline and
//     // return true iff v settled. Only called with t >= 1 and v
//     // unsettled; v is owned exclusively by the calling iteration.
//     // Not needed on graphs that opt out of pull (kGraphSupportsPull).
//     bool pull(vertex_t v, std::uint32_t t);
//     // Finalize a push-round candidate at round t (exclusive access).
//     void settle(vertex_t v, std::uint32_t t);
//   };
#pragma once

#include <atomic>
#include <bit>
#include <cstdint>
#include <span>
#include <string_view>

#include "bfs/frontier.hpp"
#include "graph/csr_graph.hpp"
#include "parallel/parallel_for.hpp"
#include "parallel/reduce.hpp"
#include "support/types.hpp"

#if defined(_OPENMP)
#include <omp.h>
#endif

namespace mpx {

/// Which per-round direction the traversal uses.
enum class TraversalEngine {
  kAuto,  ///< direction-optimizing: heuristic push/pull per round (default)
  kPush,  ///< always top-down (the classic sparse-frontier path)
  kPull,  ///< always bottom-up full sweeps (reference / dense workloads)
};

/// Whether a graph type supports the bottom-up (pull) direction.
///
/// Defaults to true; a graph opts out by declaring
/// `static constexpr bool kSupportsPullTraversal = false;`. Two do:
///  * storage::PagedGraph — a pull round re-scans the adjacency of every
///    unsettled vertex, which under a bounded block-cache budget
///    re-decodes most of the file per sweep;
///  * WeightedCsrGraph — its search (Dial rounds, DialBucketVisitor in
///    bfs/multi_source_bfs_impl.hpp) holds an arc of length w > 1 back in
///    expand() for w - 1 rounds, and a pull round, which never expands,
///    would drop those claims.
/// On such graphs the engine runs kPull and kAuto as push, and the pull
/// path is not compiled, so their visitors need no pull(). For PagedGraph
/// the results are identical either way (see the engine-identity note
/// above); only the direction choice is constrained.
template <typename Graph>
inline constexpr bool kGraphSupportsPull = [] {
  if constexpr (requires { Graph::kSupportsPullTraversal; }) {
    return static_cast<bool>(Graph::kSupportsPullTraversal);
  } else {
    return true;
  }
}();

/// Human-readable engine name ("auto", "push", "pull").
[[nodiscard]] std::string_view traversal_engine_name(TraversalEngine engine);

/// Parse an engine name; returns false on unknown input.
bool parse_traversal_engine(std::string_view name, TraversalEngine& out);

struct TraversalParams {
  TraversalEngine engine = TraversalEngine::kAuto;
  /// Rounds at and beyond this index are not executed (kInfDist = run to
  /// quiescence).
  std::uint32_t max_rounds = kInfDist;
  /// Beamer alpha: switch to pull when frontier_degree * alpha_div >
  /// unexplored arcs. Searches whose pull resolution can stop at the first
  /// frontier neighbor (plain BFS) tolerate large values; claim semantics
  /// that must scan every neighbor (priority minima) want small ones.
  edge_t alpha_div = 15;
  /// Hysteresis: once pulling, keep pulling while frontier_size * beta_div
  /// exceeds the number of vertices.
  edge_t beta_div = 20;
};

struct TraversalStats {
  /// Rounds executed (activation rounds and the final empty expansion
  /// included — the depth proxy).
  std::uint32_t rounds = 0;
  /// How many of those rounds ran bottom-up.
  std::uint32_t pull_rounds = 0;
  /// Sum of deg(v) over expanded frontier vertices — the O(m) work proxy.
  /// Identical across engines: a pull round charges the degrees the push
  /// round it replaced would have scanned.
  edge_t arcs_scanned = 0;
};

namespace detail {

/// The set of not-yet-settled vertices, as a bitmap plus a one-bit-per-word
/// summary. Pull sweeps iterate only its members (skipping fully settled
/// regions a 4096-vertex block at a time), which turns the bottom-up round
/// cost from O(n) into O(unsettled volume).
class UnsettledSet {
 public:
  UnsettledSet() = default;
  explicit UnsettledSet(vertex_t n) { reset(n); }

  /// Re-initialize for a universe of n vertices (all unsettled). Reuses the
  /// existing word storage, so a workspace-held set allocates only when the
  /// graph grows.
  void reset(vertex_t n) {
    const std::size_t num_words =
        (static_cast<std::size_t>(n) + Frontier::kWordBits - 1) /
        Frontier::kWordBits;
    words_.assign(num_words, ~std::uint64_t{0});
    if (num_words > 0 && n % Frontier::kWordBits != 0) {
      words_.back() =
          ~std::uint64_t{0} >> (Frontier::kWordBits - n % Frontier::kWordBits);
    }
    summary_.assign((num_words + Frontier::kBlockWords - 1) /
                        Frontier::kBlockWords,
                    0);
    for (std::size_t w = 0; w < num_words; ++w) {
      if (words_[w] != 0) {
        summary_[w / Frontier::kBlockWords] |= std::uint64_t{1}
                                               << (w % Frontier::kBlockWords);
      }
    }
  }

  /// Thread-safe removal (push-side settle).
  void erase_atomic(vertex_t v) {
    const std::size_t w = v / Frontier::kWordBits;
    const std::uint64_t mask = std::uint64_t{1} << (v % Frontier::kWordBits);
    std::atomic_ref<std::uint64_t> word(words_[w]);
    const std::uint64_t before =
        word.fetch_and(~mask, std::memory_order_relaxed);
    if (before == mask) {  // this call emptied the word
      std::atomic_ref<std::uint64_t> s(summary_[w / Frontier::kBlockWords]);
      s.fetch_and(~(std::uint64_t{1} << (w % Frontier::kBlockWords)),
                  std::memory_order_relaxed);
    }
  }

  [[nodiscard]] std::size_t num_words() const { return words_.size(); }
  [[nodiscard]] std::size_t num_blocks() const { return summary_.size(); }
  [[nodiscard]] std::uint64_t summary_word(std::size_t b) const {
    return summary_[b];
  }
  [[nodiscard]] std::uint64_t word(std::size_t w) const { return words_[w]; }

  /// Exclusive-owner update of one word + its summary bit (pull-side).
  void remove_bits(std::size_t w, std::uint64_t bits) {
    words_[w] &= ~bits;
    if (words_[w] == 0) {
      summary_[w / Frontier::kBlockWords] &=
          ~(std::uint64_t{1} << (w % Frontier::kBlockWords));
    }
  }

 private:
  std::vector<std::uint64_t> words_;
  std::vector<std::uint64_t> summary_;
};

/// Pull sweep over the unsettled set: each task owns a 64-word block, so
/// candidate words, unsettled-word updates, and per-block counters all go
/// without atomics. Returns {settled count, settled degree sum} and marks
/// candidates in `next`.
template <typename Graph, typename Visitor>
std::pair<std::size_t, edge_t> pull_sweep(const Graph& g, Visitor& vis,
                                          std::uint32_t t,
                                          UnsettledSet& unsettled,
                                          Frontier& next) {
  const std::size_t num_blocks = unsettled.num_blocks();

  // One task per 64-word block. The trip count is tiny (n / 4096) but each
  // iteration is heavy, so this loop must fork regardless of the library's
  // usual serial-grain cutoff — hence the explicit pragma rather than
  // parallel_reduce. Integer sums are order-independent, so the result is
  // schedule-deterministic.
  const auto sweep_block = [&](std::size_t b, std::size_t& count,
                               edge_t& degree) {
    std::uint64_t block_bits = unsettled.summary_word(b);
    while (block_bits != 0) {
      const std::size_t w =
          b * Frontier::kBlockWords +
          static_cast<std::size_t>(std::countr_zero(block_bits));
      block_bits &= block_bits - 1;
      std::uint64_t candidates = unsettled.word(w);
      std::uint64_t settled_bits = 0;
      while (candidates != 0) {
        const vertex_t v = static_cast<vertex_t>(
            w * Frontier::kWordBits +
            static_cast<std::size_t>(std::countr_zero(candidates)));
        candidates &= candidates - 1;
        if (vis.pull(v, t)) {
          settled_bits |= std::uint64_t{1} << (v % Frontier::kWordBits);
          ++count;
          degree += static_cast<edge_t>(g.degree(v));
        }
      }
      if (settled_bits != 0) {
        unsettled.remove_bits(w, settled_bits);
        next.merge_word(w, settled_bits);
      }
    }
  };

  std::size_t total_count = 0;
  edge_t total_degree = 0;
#if defined(_OPENMP)
#pragma omp parallel
  {
    std::size_t count = 0;
    edge_t degree = 0;
#pragma omp for schedule(dynamic, 1) nowait
    for (std::int64_t b = 0; b < static_cast<std::int64_t>(num_blocks); ++b) {
      sweep_block(static_cast<std::size_t>(b), count, degree);
    }
#pragma omp critical(mpx_pull_sweep)
    {
      total_count += count;
      total_degree += degree;
    }
  }
#else
  for (std::size_t b = 0; b < num_blocks; ++b) {
    sweep_block(b, total_count, total_degree);
  }
#endif
  return {total_count, total_degree};
}

}  // namespace detail

/// Reusable traversal scratch: the two frontiers and the unsettled set.
/// Passing the same workspace to successive run_traversal() calls on graphs
/// of similar size re-initializes the buffers in place instead of
/// reallocating ~3 bitmap/list structures per run — the per-call overhead
/// that DecompositionWorkspace (core/decomposer.hpp) eliminates for
/// repeated same-graph decompositions. A workspace is not thread-safe;
/// share one per thread, never across concurrent runs.
struct TraversalWorkspace {
  Frontier cur;
  Frontier next;
  detail::UnsettledSet unsettled;
};

/// Run the round loop to quiescence (or params.max_rounds). The visitor
/// carries all per-vertex state; the engine owns frontiers, direction
/// choice, candidate compaction, and work accounting. `workspace`, when
/// non-null, supplies the frontier/unsettled scratch (reused across calls);
/// the result is identical with or without it.
///
/// `Graph` is any type exposing the CsrGraph read contract
/// (num_vertices/num_arcs/degree/neighbors); storage::PagedGraph serves
/// the same loop out-of-core. Graphs with kGraphSupportsPull == false run
/// every round top-down (kPull/kAuto degrade to push; see the trait).
template <typename Graph, typename Visitor>
TraversalStats run_traversal(const Graph& g, Visitor& vis,
                             const TraversalParams& params = {},
                             TraversalWorkspace* workspace = nullptr) {
  const vertex_t n = g.num_vertices();
  TraversalStats stats;
  TraversalWorkspace local;
  TraversalWorkspace& ws = workspace != nullptr ? *workspace : local;
  ws.cur.reset(n);
  ws.next.reset(n);
  ws.unsettled.reset(n);
  Frontier& cur = ws.cur;
  Frontier& next = ws.next;
  detail::UnsettledSet& unsettled = ws.unsettled;
  edge_t unexplored_arcs = g.num_arcs();
  edge_t frontier_degree = 0;   // out-degree of cur
  std::size_t frontier_size = 0;
  bool last_pull = false;

  std::uint32_t t = 0;
  while (true) {
    if (t >= params.max_rounds && params.max_rounds != kInfDist) break;
    const std::span<const vertex_t> bucket = vis.activations(t);
    if (frontier_size == 0 && vis.activations_done(t)) break;

    // Rounds far smaller than the fork/join break-even run serially; a
    // grid partition has hundreds of sparse rounds, and paying several
    // parallel regions per round would dominate the whole run.
    const bool small_round =
        bucket.size() + frontier_size < kSerialGrain / 4;

    bool use_pull = false;
    if constexpr (kGraphSupportsPull<Graph>) {
      if (t > 0) {  // pull reads "settled at t-1", meaningless at round 0
        switch (params.engine) {
          case TraversalEngine::kPush:
            break;
          case TraversalEngine::kPull:
            use_pull = true;
            break;
          case TraversalEngine::kAuto:
            // Beamer: enter bottom-up when the frontier's out-degree is a
            // large fraction of the unexplored arcs; hysteresis keeps
            // pulling while the frontier stays a large fraction of V.
            use_pull =
                !small_round &&
                (frontier_degree * params.alpha_div > unexplored_arcs ||
                 (last_pull && static_cast<edge_t>(frontier_size) *
                                       params.beta_div >
                                   static_cast<edge_t>(n)));
            break;
        }
      }
    }

    stats.arcs_scanned += frontier_degree;
    unexplored_arcs -= std::min(frontier_degree, unexplored_arcs);

    // Phase 1: activate the searches whose start round is t. In pull
    // rounds only the claims are recorded; the sweep collects candidates.
    if (!bucket.empty()) {
      if (use_pull) {
        parallel_for(std::size_t{0}, bucket.size(), [&](std::size_t i) {
          (void)vis.offer_self(bucket[i]);
        });
      } else if (small_round) {
        for (const vertex_t c : bucket) {
          if (vis.offer_self(c)) next.insert_serial(c);
        }
      } else {
        next.invalidate_sparse();
        parallel_for(std::size_t{0}, bucket.size(), [&](std::size_t i) {
          if (vis.offer_self(bucket[i])) next.insert_atomic(bucket[i]);
        });
      }
    }

    std::size_t next_size = 0;
    edge_t next_degree = 0;
    if (use_pull) {
      if constexpr (kGraphSupportsPull<Graph>) {
        ++stats.pull_rounds;
        // Phase 2+3 fused: unclaimed vertices resolve and settle locally.
        // The sweep fills next's bitmap, so its (empty) sparse form is
        // stale from here until the ensure_sparse() of a later push round.
        next.invalidate_sparse();
        const auto [count, degree] =
            detail::pull_sweep(g, vis, t, unsettled, next);
        next_size = count;
        next_degree = degree;
      }
    } else {
      // Phase 2: expand the searches that settled vertices last round.
      if (frontier_size > 0) {
        cur.ensure_sparse();  // no-op unless the last round pulled
        const std::span<const vertex_t> frontier = cur.vertices();
        if (small_round) {
          for (const vertex_t u : frontier) {
            vis.expand(u, [&](vertex_t v) { next.insert_serial(v); });
          }
        } else {
          next.invalidate_sparse();
#if defined(_OPENMP)
#pragma omp parallel for schedule(dynamic, 64)
          for (std::int64_t i = 0;
               i < static_cast<std::int64_t>(frontier.size()); ++i) {
            vis.expand(frontier[static_cast<std::size_t>(i)],
                       [&](vertex_t v) { next.insert_atomic(v); });
          }
#else
          for (const vertex_t u : frontier) {
            vis.expand(u, [&](vertex_t v) { next.insert_atomic(v); });
          }
#endif
        }
      }

      // Phase 3: settle this round's candidates — they form the next
      // frontier — folding the degree reduction into the same pass.
      next.ensure_sparse();
      const std::span<const vertex_t> candidates = next.vertices();
      next_size = candidates.size();
      next_degree = parallel_sum<edge_t>(
          std::size_t{0}, candidates.size(), [&](std::size_t i) {
            const vertex_t v = candidates[i];
            vis.settle(v, t);
            unsettled.erase_atomic(v);
            return static_cast<edge_t>(g.degree(v));
          });
    }

    cur.clear();
    std::swap(cur, next);
    frontier_size = next_size;
    frontier_degree = next_degree;
    last_pull = use_pull;
    ++t;
  }

  stats.rounds = t;
  return stats;
}

}  // namespace mpx
