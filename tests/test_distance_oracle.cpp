// Tests for the decomposition-based approximate distance oracle.
#include <gtest/gtest.h>

#include "apps/distance_oracle.hpp"
#include "bfs/sequential_bfs.hpp"
#include "graph/generators.hpp"
#include "parallel/thread_env.hpp"

namespace mpx {
namespace {

using namespace mpx::generators;

PartitionOptions opts(double beta, std::uint64_t seed) {
  PartitionOptions o;
  o.beta = beta;
  o.seed = seed;
  return o;
}

TEST(DistanceOracle, NeverUnderestimates) {
  // Every estimate is a realized path, so it upper-bounds the true
  // distance. Check exhaustively on small graphs.
  const CsrGraph graphs[] = {grid2d(8, 8), cycle(40),
                             erdos_renyi(80, 240, 3), barbell(8)};
  for (const CsrGraph& g : graphs) {
    const DistanceOracle oracle(g, opts(0.2, 5));
    for (vertex_t u = 0; u < g.num_vertices(); ++u) {
      const auto exact = bfs_distances(g, u);
      for (vertex_t v = 0; v < g.num_vertices(); ++v) {
        if (exact[v] == kInfDist) continue;
        EXPECT_GE(oracle.estimate(u, v), exact[v]) << u << "->" << v;
      }
    }
  }
}

TEST(DistanceOracle, TablesIdenticalAtOneAndFourThreads) {
  // The all-pairs table build forks one Dijkstra per cluster; the table
  // must not depend on how many threads ran them. One vertex per cluster
  // reads every table entry through estimate().
  const CsrGraph g = grid2d(80, 80);
  const Decomposition dec = DistanceOracle(g, opts(0.5, 11)).decomposition();
  std::vector<vertex_t> rep(dec.num_clusters(), kInvalidVertex);
  for (vertex_t v = 0; v < g.num_vertices(); ++v) {
    if (rep[dec.cluster_of(v)] == kInvalidVertex) rep[dec.cluster_of(v)] = v;
  }
  ASSERT_GT(rep.size(), 64u);
  const auto table = [&](int threads) {
    ScopedNumThreads guard(threads);
    const DistanceOracle oracle(g, dec);
    std::vector<std::uint32_t> entries;
    entries.reserve(rep.size() * rep.size());
    for (const vertex_t u : rep) {
      for (const vertex_t v : rep) entries.push_back(oracle.estimate(u, v));
    }
    return entries;
  };
  EXPECT_EQ(table(1), table(4));
}

TEST(DistanceOracle, SelfDistanceIsZeroAndSymmetric) {
  const CsrGraph g = grid2d(10, 10);
  const DistanceOracle oracle(g, opts(0.2, 2));
  EXPECT_EQ(oracle.estimate(7, 7), 0u);
  for (vertex_t u = 0; u < 20; ++u) {
    for (vertex_t v = 0; v < 20; ++v) {
      EXPECT_EQ(oracle.estimate(u, v), oracle.estimate(v, u));
    }
  }
}

TEST(DistanceOracle, AdjacentPairEstimatesBoundedByPieceDiameters) {
  // For an edge (u, v): same piece => estimate <= 2r (through the center);
  // different pieces => estimate <= r + (r + 1 + r) + r = 4r + 1 (own
  // radii plus the cheapest center-graph edge).
  const CsrGraph g = grid2d(20, 20);
  const DistanceOracle oracle(g, opts(0.15, 7));
  std::uint32_t max_radius = 0;
  for (vertex_t v = 0; v < g.num_vertices(); ++v) {
    max_radius =
        std::max(max_radius, oracle.decomposition().dist_to_center(v));
  }
  for (vertex_t u = 0; u < g.num_vertices(); u += 13) {
    for (const vertex_t v : g.neighbors(u)) {
      EXPECT_LE(oracle.estimate(u, v), 4 * max_radius + 1);
    }
  }
}

TEST(DistanceOracle, CrossComponentIsInfinite) {
  const CsrGraph g = disjoint_copies(path(5), 2);
  const DistanceOracle oracle(g, opts(0.3, 1));
  EXPECT_EQ(oracle.estimate(0, 7), kInfDist);
  EXPECT_NE(oracle.estimate(0, 4), kInfDist);
}

TEST(DistanceOracle, QualityMeasurementsAreSane) {
  const CsrGraph g = grid2d(25, 25);
  const DistanceOracle oracle(g, opts(0.1, 9));
  const OracleQuality q = measure_oracle(g, oracle, 30, 4);
  EXPECT_GT(q.pairs_measured, 0u);
  EXPECT_EQ(q.underestimates, 0u);
  EXPECT_GE(q.mean_stretch, 1.0);
  EXPECT_LT(q.mean_stretch, 12.0);  // loose: pieces are shallow at beta=0.1
}

TEST(DistanceOracle, FinerBetaImprovesSpaceCoarserImprovesAccuracy) {
  // Smaller beta -> fewer landmarks (smaller table) but looser estimates;
  // larger beta -> more landmarks, tighter estimates.
  const CsrGraph g = grid2d(30, 30);
  const DistanceOracle coarse(g, opts(0.05, 3));
  const DistanceOracle fine(g, opts(0.4, 3));
  EXPECT_LT(coarse.num_landmarks(), fine.num_landmarks());
  EXPECT_LT(coarse.table_bytes(), fine.table_bytes());
  const OracleQuality qc = measure_oracle(g, coarse, 25, 8);
  const OracleQuality qf = measure_oracle(g, fine, 25, 8);
  EXPECT_LE(qf.mean_stretch, qc.mean_stretch + 0.5);
}

TEST(DistanceOracle, ExactOnSingletonPieces) {
  // beta = 1 makes nearly every vertex its own landmark; estimates through
  // the center graph then track true distances closely on a path.
  const CsrGraph g = path(30);
  const DistanceOracle oracle(g, opts(1.0, 6));
  const auto exact = bfs_distances(g, 0);
  for (vertex_t v = 1; v < 30; ++v) {
    EXPECT_LE(oracle.estimate(0, v), 3 * exact[v] + 4);
  }
}

}  // namespace
}  // namespace mpx
