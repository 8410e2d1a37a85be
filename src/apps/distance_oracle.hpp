// Approximate distance oracle from one low-diameter decomposition — the
// Cohen [13] connection: the (beta, W) clusterings behind the paper's
// predecessor [9] exist to make approximate shortest-path queries cheap.
//
// Build: partition with beta; every vertex knows its in-piece distance to
// its center (free from the BFS). Contract pieces to a center graph whose
// edge (C1, C2) weighs the cheapest realized path
// min over cut edges (u,v) of [d(u, c1) + 1 + d(v, c2)], then run
// all-pairs Dijkstra over the k centers (k is small for small beta).
//
// Query (O(1)): dist^(u, v) = d(u, c_u) + D[c_u][c_v] + d(v, c_v),
// with the same-piece shortcut d(u, c) + d(c, v).
//
// Guarantees: the estimate never underestimates (every term is a realized
// path), and overshoot is bounded by O(piece diameter) per hop of the
// center path — measured as multiplicative stretch in experiment E18.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "core/decomposition.hpp"
#include "core/options.hpp"
#include "graph/csr_graph.hpp"

namespace mpx {

namespace storage {
class PagedGraph;
}  // namespace storage

class DistanceOracle {
 public:
  /// Build from a graph and partition options (runs the partition through
  /// the decomposer facade). O(m + k^2 log k) work, O(k^2 + n) space.
  DistanceOracle(const CsrGraph& g, const PartitionOptions& opt);

  /// Build from an already-computed decomposition of g — the
  /// SharedResultStore path: one cached partition serves cluster and
  /// distance queries without re-running the algorithm (the store builds
  /// this oracle on an entry's first distance query).
  DistanceOracle(const CsrGraph& g, Decomposition dec);

  /// Same, over an out-of-core paged graph: the center-graph build streams
  /// each adjacency list once in ascending vertex order (the block-cache-
  /// friendly scan), so construction works within the cache budget.
  DistanceOracle(const storage::PagedGraph& g, Decomposition dec);

  /// Upper-bound estimate of dist(u, v); kInfDist across components.
  [[nodiscard]] std::uint32_t estimate(vertex_t u, vertex_t v) const;

  [[nodiscard]] cluster_t num_landmarks() const {
    return dec_.num_clusters();
  }
  [[nodiscard]] const Decomposition& decomposition() const { return dec_; }

  /// Bytes held by the center-to-center table (the space/accuracy dial).
  [[nodiscard]] std::size_t table_bytes() const {
    return center_dist_.size() * sizeof(std::uint32_t);
  }

 private:
  /// All-pairs Dijkstra over the contracted center graph (`adj[c]` =
  /// (neighbor cluster, weight) pairs) into center_dist_ — the one copy of
  /// the table build every graph-backend constructor shares.
  void build_tables(
      const std::vector<std::vector<std::pair<cluster_t, std::uint32_t>>>&
          adj);

  Decomposition dec_;
  std::vector<std::uint32_t> center_dist_;  // k x k row-major
  cluster_t k_ = 0;
};

/// Measured quality of the oracle on random connected pairs.
struct OracleQuality {
  double mean_stretch = 1.0;
  double max_stretch = 1.0;
  std::size_t underestimates = 0;  ///< must be 0 (estimates are paths)
  std::size_t pairs_measured = 0;
};
[[nodiscard]] OracleQuality measure_oracle(const CsrGraph& g,
                                           const DistanceOracle& oracle,
                                           std::size_t pairs,
                                           std::uint64_t seed);

}  // namespace mpx
