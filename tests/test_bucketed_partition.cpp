// Tests for the parallel bucketed weighted partition ("mpx-bucketed": the
// delayed multi-source BFS in Dial rounds on the shared traversal engine):
// exact agreement with the sequential shifted Dijkstra on integer weights,
// plus its own structural guarantees.
#include <gtest/gtest.h>

#include <cmath>

#include "core/decomposer.hpp"
#include "core/partition.hpp"
#include "core/weighted_partition.hpp"
#include "graph/builder.hpp"
#include "graph/components.hpp"
#include "graph/generators.hpp"
#include "graph/subgraph.hpp"
#include "parallel/thread_env.hpp"
#include "tests/support/fixtures.hpp"
#include "tests/support/invariants.hpp"

namespace mpx {
namespace {

using namespace mpx::generators;

using mpx::testing::integer_weighted;

PartitionOptions opts(double beta, std::uint64_t seed) {
  PartitionOptions o;
  o.beta = beta;
  o.seed = seed;
  return o;
}

/// "mpx-bucketed" with the shifts generate_shifts(n, o) draws.
DecompositionResult bucketed(const WeightedCsrGraph& g,
                             const PartitionOptions& o) {
  return decompose(g, DecompositionRequest::from_options("mpx-bucketed", o));
}

TEST(BucketedPartition, MatchesSequentialDijkstraExactly) {
  // Same shifts, fractional tie-break: the bucketed parallel run and the
  // sequential priority-queue run must produce identical assignments.
  const CsrGraph topologies[] = {grid2d(12, 12), cycle(80),
                                 erdos_renyi(150, 400, 3), barbell(8),
                                 complete_binary_tree(63)};
  for (const CsrGraph& topo : topologies) {
    for (std::uint64_t seed = 0; seed < 3; ++seed) {
      const WeightedCsrGraph g = integer_weighted(topo, seed, 5);
      const PartitionOptions o = opts(0.2, seed + 100);
      const Shifts shifts = generate_shifts(g.num_vertices(), o);
      const WeightedDecomposition sequential =
          weighted_partition_with_shifts(g, shifts);
      const WeightedDecomposition par = bucketed(g, o).weighted_decomposition;
      ASSERT_EQ(par.centers, sequential.centers);
      ASSERT_EQ(par.assignment, sequential.assignment);
      ASSERT_TRUE(mpx::testing::check_weighted_decomposition_invariants(
          par, g, {.shifts = &shifts}));
      for (vertex_t v = 0; v < g.num_vertices(); ++v) {
        // The sequential reference accumulates real-valued keys, so its
        // integer distances carry ~1e-15 float noise; the bucketed run is
        // exact by construction.
        EXPECT_NEAR(par.dist_to_center[v],
                    sequential.dist_to_center[v], 1e-9);
      }
    }
  }
}

TEST(BucketedPartition, UnitWeightsMatchUnweightedPartition) {
  // With all weights 1 this is exactly Algorithm 1.
  const CsrGraph topo = grid2d(15, 15);
  const WeightedCsrGraph g = with_unit_weights(topo);
  const PartitionOptions o = opts(0.15, 9);
  const Shifts shifts = generate_shifts(topo.num_vertices(), o);
  const Decomposition unweighted = partition_with_shifts(topo, shifts);
  const WeightedDecomposition par = bucketed(g, o).weighted_decomposition;
  for (vertex_t v = 0; v < topo.num_vertices(); ++v) {
    EXPECT_EQ(par.centers[par.assignment[v]],
              unweighted.center(unweighted.cluster_of(v)));
    EXPECT_DOUBLE_EQ(par.dist_to_center[v],
                     static_cast<double>(unweighted.dist_to_center(v)));
  }
}

TEST(BucketedPartition, ClustersAreInternallyConnected) {
  const WeightedCsrGraph g = integer_weighted(erdos_renyi(200, 600, 7), 5, 4);
  const WeightedDecomposition dec =
      bucketed(g, opts(0.2, 6)).weighted_decomposition;
  for (cluster_t c = 0; c < dec.num_clusters(); ++c) {
    const Subgraph sub = extract_cluster(g.topology(), dec.assignment, c);
    EXPECT_TRUE(is_connected(sub.graph)) << "cluster " << c;
  }
  EXPECT_TRUE(mpx::testing::check_weighted_decomposition_invariants(
      dec, g, {.beta = 0.2}));
}

TEST(BucketedPartition, DeterministicAcrossThreadCounts) {
  const WeightedCsrGraph g = integer_weighted(rmat(9, 4.0, 3), 2, 8);
  std::vector<cluster_t> one;
  std::vector<cluster_t> many;
  {
    ScopedNumThreads guard(1);
    one = bucketed(g, opts(0.1, 4)).weighted_decomposition.assignment;
  }
  {
    ScopedNumThreads guard(max_threads());
    many = bucketed(g, opts(0.1, 4)).weighted_decomposition.assignment;
  }
  EXPECT_EQ(one, many);
}

TEST(BucketedPartition, RoundsTrackShiftPlusWeightedRadius) {
  const WeightedCsrGraph g = integer_weighted(grid2d(30, 30), 1, 3);
  PartitionOptions o = opts(0.1, 2);
  const Shifts shifts = generate_shifts(g.num_vertices(), o);
  const std::uint32_t rounds = bucketed(g, o).telemetry.rounds;
  // Every vertex settles by its own activation round, so the round count
  // is at most max start + max arc weight + 1.
  EXPECT_LE(rounds, static_cast<std::uint32_t>(shifts.delta_max) + 3 + 1);
  EXPECT_GE(rounds, 1u);
}

TEST(BucketedPartition, LargerWeightsSlowTheSweep) {
  const CsrGraph topo = grid2d(20, 20);
  const PartitionOptions o = opts(0.2, 3);
  const DecompositionResult light = bucketed(with_unit_weights(topo), o);
  // Scale all weights by 4: same shifts now cut off searches 4x sooner in
  // weighted distance, so rounds grow (denser bucketing).
  std::vector<WeightedEdge> heavy_edges;
  for (const Edge& e : edge_list(topo)) {
    heavy_edges.push_back({e.u, e.v, 4.0});
  }
  const WeightedCsrGraph heavy = build_undirected_weighted(
      topo.num_vertices(), std::span<const WeightedEdge>(heavy_edges));
  const DecompositionResult slow = bucketed(heavy, o);
  EXPECT_GE(slow.telemetry.rounds, light.telemetry.rounds);
  // More clusters too: a center's shift window covers 4x less territory.
  EXPECT_GE(slow.num_clusters(), light.num_clusters());
}

TEST(BucketedPartition, InvariantBatteryAcrossTopologies) {
  const CsrGraph topologies[] = {grid2d(14, 14), barbell(10),
                                 caterpillar(20, 3), rmat(8, 4.0, 5)};
  for (const CsrGraph& topo : topologies) {
    const WeightedCsrGraph g = integer_weighted(topo, 7, 6);
    PartitionOptions o = opts(0.2, 21);
    const Shifts shifts = generate_shifts(g.num_vertices(), o);
    EXPECT_TRUE(mpx::testing::check_weighted_decomposition_invariants(
        bucketed(g, o).weighted_decomposition, g,
        {.beta = 0.2, .shifts = &shifts}));
  }
}

TEST(BucketedPartition, SingleVertexAndEdgeless) {
  const std::vector<WeightedEdge> none;
  const WeightedCsrGraph one =
      build_undirected_weighted(1, std::span<const WeightedEdge>(none));
  EXPECT_EQ(bucketed(one, opts(0.5, 1)).num_clusters(), 1u);
  const WeightedCsrGraph five =
      build_undirected_weighted(5, std::span<const WeightedEdge>(none));
  EXPECT_EQ(bucketed(five, opts(0.5, 1)).num_clusters(), 5u);
}

}  // namespace
}  // namespace mpx
