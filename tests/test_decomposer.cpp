// Tests for the unified decomposer facade (core/decomposer.hpp): request
// validation, the algorithm registry, and the contract the serving layer
// rests on — facade and legacy entry points produce byte-identical
// owner/settle output for fixed seeds, across every fixture family and at
// 1/2/8 threads, with and without a reused workspace, and with shifts
// derived from a precomputed basis.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>

#include "baselines/ball_growing.hpp"
#include "baselines/bgkmpt.hpp"
#include "core/decomposer.hpp"
#include "core/partition.hpp"
#include "core/weighted_partition.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "parallel/thread_env.hpp"
#include "tests/support/fixtures.hpp"
#include "tests/support/invariants.hpp"

namespace mpx {
namespace {

constexpr int kThreadCounts[] = {1, 2, 8};

/// owner/settle arrays a legacy Decomposition implies.
std::pair<std::vector<vertex_t>, std::vector<std::uint32_t>> legacy_arrays(
    const Decomposition& dec) {
  std::vector<vertex_t> owner(dec.num_vertices());
  std::vector<std::uint32_t> settle(dec.num_vertices());
  for (vertex_t v = 0; v < dec.num_vertices(); ++v) {
    owner[v] = dec.center(dec.cluster_of(v));
    settle[v] = dec.dist_to_center(v);
  }
  return {std::move(owner), std::move(settle)};
}

TEST(Registry, ListsTheFiveAlgorithms) {
  const auto algorithms = registered_algorithms();
  ASSERT_EQ(algorithms.size(), 5u);
  EXPECT_EQ(algorithms.front().name, "mpx");
  for (const AlgorithmInfo& info : algorithms) {
    EXPECT_NE(find_algorithm(info.name), nullptr);
    EXPECT_FALSE(info.summary.empty());
  }
  EXPECT_TRUE(find_algorithm("mpx")->uses_shifts);
  EXPECT_FALSE(find_algorithm("mpx")->needs_weights);
  EXPECT_TRUE(find_algorithm("mpx-bucketed")->needs_weights);
  EXPECT_TRUE(find_algorithm("mpx-weighted")->needs_weights);
  EXPECT_FALSE(find_algorithm("ball-growing")->uses_shifts);
  EXPECT_EQ(find_algorithm("no-such-algorithm"), nullptr);
}

TEST(Validation, RejectsBetaOutsideUnitInterval) {
  const CsrGraph g = generators::path(4);
  for (const double beta :
       {0.0, -0.25, 1.0000001, 2.0, std::numeric_limits<double>::infinity(),
        -std::numeric_limits<double>::infinity()}) {
    SCOPED_TRACE("beta=" + std::to_string(beta));
    DecompositionRequest req;
    req.beta = beta;
    EXPECT_THROW((void)decompose(g, req), std::invalid_argument);
  }
  DecompositionRequest req;
  req.beta = 1.0;  // the closed upper end is legal
  EXPECT_NO_THROW((void)decompose(g, req));
}

TEST(Validation, RejectsNaNBeta) {
  const CsrGraph g = generators::path(4);
  DecompositionRequest req;
  req.beta = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW((void)decompose(g, req), std::invalid_argument);

  // The legacy entry points share the facade boundary check.
  PartitionOptions opt;
  opt.beta = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW((void)partition(g, opt), std::invalid_argument);
  const WeightedCsrGraph wg = with_unit_weights(g);
  EXPECT_THROW((void)weighted_partition(wg, opt), std::invalid_argument);
  BallGrowingOptions bopt;
  bopt.beta = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW((void)ball_growing_decomposition(g, bopt),
               std::invalid_argument);
  BgkmptOptions gopt;
  gopt.beta = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW((void)bgkmpt_decomposition(g, gopt), std::invalid_argument);
}

TEST(Validation, BucketedRejectsNonIntegerAndOverflowingWeights) {
  DecompositionRequest req;
  req.algorithm = "mpx-bucketed";
  req.beta = 0.4;
  req.seed = 7;
  // Weights 1.25 and 1.5: Dial rounds need integer lengths. The facade
  // throws (a serving process answers kInvalidRequest) instead of aborting.
  EXPECT_THROW((void)decompose(mpx::testing::grid3x3_weighted_reference(), req),
               std::invalid_argument);
  // An integer length whose arrival round would reach kInfDist.
  const WeightedEdge huge[] = {{0, 1, 4294967296.0}};
  EXPECT_THROW(
      (void)decompose(build_undirected_weighted(2, huge), req),
      std::invalid_argument);
  // The sequential shifted Dijkstra takes any positive weights.
  req.algorithm = "mpx-weighted";
  EXPECT_NO_THROW(
      (void)decompose(mpx::testing::grid3x3_weighted_reference(), req));
}

TEST(Validation, RejectsUnknownAlgorithm) {
  const CsrGraph g = generators::path(4);
  DecompositionRequest req;
  req.algorithm = "definitely-not-registered";
  try {
    (void)decompose(g, req);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    // The error names the registry so callers can self-correct.
    EXPECT_NE(std::string(e.what()).find("mpx-bucketed"), std::string::npos);
  }
}

TEST(Validation, WeightedAlgorithmsNeedWeights) {
  const CsrGraph g = generators::path(4);
  for (const char* algorithm : {"mpx-weighted", "mpx-bucketed"}) {
    SCOPED_TRACE(algorithm);
    DecompositionRequest req;
    req.algorithm = algorithm;
    EXPECT_THROW((void)decompose(g, req), std::invalid_argument);
  }
}

// The headline contract: for every fixture family and at every thread
// width, the facade's owner/settle arrays match the legacy entry point's
// byte for byte.
TEST(FacadeLegacyIdentity, MpxAcrossFixturesAndThreads) {
  for (const auto& [name, g] : mpx::testing::canonical_graphs()) {
    SCOPED_TRACE(name);
    DecompositionRequest req;
    req.beta = 0.2;
    req.seed = 2013;

    ScopedNumThreads baseline(1);
    const auto [ref_owner, ref_settle] =
        legacy_arrays(partition(g, req.partition_options()));

    for (const int threads : kThreadCounts) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      ScopedNumThreads guard(threads);
      const DecompositionResult result = decompose(g, req);
      EXPECT_EQ(result.owner, ref_owner);
      EXPECT_EQ(result.settle, ref_settle);
      EXPECT_TRUE(result.radii.empty());
      EXPECT_FALSE(result.weighted());
    }
  }
}

TEST(FacadeLegacyIdentity, BaselinesAcrossFixturesAndThreads) {
  for (const auto& [name, g] : mpx::testing::small_graphs()) {
    SCOPED_TRACE(name);
    // ball-growing: the facade maps (beta, seed) onto the seeded random
    // center order.
    {
      BallGrowingOptions legacy;
      legacy.beta = 0.3;
      legacy.order = BallOrder::kRandom;
      legacy.seed = 7;
      const auto [ref_owner, ref_settle] =
          legacy_arrays(ball_growing_decomposition(g, legacy));
      DecompositionRequest req;
      req.algorithm = "ball-growing";
      req.beta = 0.3;
      req.seed = 7;
      for (const int threads : kThreadCounts) {
        SCOPED_TRACE("ball-growing threads=" + std::to_string(threads));
        ScopedNumThreads guard(threads);
        const DecompositionResult result = decompose(g, req);
        EXPECT_EQ(result.owner, ref_owner);
        EXPECT_EQ(result.settle, ref_settle);
      }
    }
    // bgkmpt: defaults mirror BgkmptOptions defaults.
    {
      BgkmptOptions legacy;
      legacy.beta = 0.3;
      legacy.seed = 7;
      const auto [ref_owner, ref_settle] =
          legacy_arrays(bgkmpt_decomposition(g, legacy).decomposition);
      DecompositionRequest req;
      req.algorithm = "bgkmpt";
      req.beta = 0.3;
      req.seed = 7;
      for (const int threads : kThreadCounts) {
        SCOPED_TRACE("bgkmpt threads=" + std::to_string(threads));
        ScopedNumThreads guard(threads);
        const DecompositionResult result = decompose(g, req);
        EXPECT_EQ(result.owner, ref_owner);
        EXPECT_EQ(result.settle, ref_settle);
      }
    }
  }
}

TEST(FacadeLegacyIdentity, WeightedAlgorithmsAcrossFixturesAndThreads) {
  const WeightedCsrGraph reference = mpx::testing::grid3x3_weighted_reference();
  struct WeightedFixture {
    std::string name;
    WeightedCsrGraph graph;
    bool integer_weights;
  };
  std::vector<WeightedFixture> fixtures;
  fixtures.push_back({"grid3x3_weighted_reference", reference, false});
  for (const auto& [name, g] : mpx::testing::small_graphs()) {
    fixtures.push_back({name + "_unit", with_unit_weights(g), true});
    fixtures.push_back(
        {name + "_int", mpx::testing::integer_weighted(g, 3, 5), true});
  }
  // Large enough that some rounds leave the engine's serial small-round
  // path, so held-back claims are staged by several threads.
  fixtures.push_back(
      {"rmat13_int",
       mpx::testing::integer_weighted(generators::rmat(13, 8.0, 4), 9, 6),
       true});

  for (const WeightedFixture& fixture : fixtures) {
    SCOPED_TRACE(fixture.name);
    PartitionOptions opt;
    opt.beta = 0.4;
    opt.seed = 11;
    DecompositionRequest req = DecompositionRequest::from_options("", opt);

    {
      const WeightedDecomposition legacy =
          weighted_partition(fixture.graph, opt);
      req.algorithm = "mpx-weighted";
      for (const int threads : kThreadCounts) {
        SCOPED_TRACE("mpx-weighted threads=" + std::to_string(threads));
        ScopedNumThreads guard(threads);
        const DecompositionResult result = decompose(fixture.graph, req);
        EXPECT_TRUE(result.weighted());
        EXPECT_EQ(result.radii, legacy.dist_to_center);
        EXPECT_EQ(result.weighted_decomposition.assignment, legacy.assignment);
        EXPECT_EQ(result.weighted_decomposition.centers, legacy.centers);
        for (vertex_t v = 0; v < result.num_vertices(); ++v) {
          EXPECT_EQ(result.owner[v], legacy.centers[legacy.assignment[v]]);
        }
      }
    }
    if (fixture.integer_weights) {
      // The parallel Dial rounds against the sequential shifted Dijkstra
      // oracle: identical pieces; radii equal up to the oracle's float
      // sums.
      const WeightedDecomposition oracle =
          weighted_partition(fixture.graph, opt);
      req.algorithm = "mpx-bucketed";
      for (const int threads : kThreadCounts) {
        SCOPED_TRACE("mpx-bucketed threads=" + std::to_string(threads));
        ScopedNumThreads guard(threads);
        const DecompositionResult result = decompose(fixture.graph, req);
        EXPECT_TRUE(result.weighted());
        // Every vertex settles once and is expanded once.
        EXPECT_EQ(result.telemetry.arcs_scanned, fixture.graph.num_arcs());
        EXPECT_EQ(result.weighted_decomposition.assignment, oracle.assignment);
        EXPECT_EQ(result.weighted_decomposition.centers, oracle.centers);
        ASSERT_EQ(result.radii.size(), oracle.dist_to_center.size());
        for (vertex_t v = 0; v < result.num_vertices(); ++v) {
          EXPECT_EQ(result.owner[v], oracle.centers[oracle.assignment[v]]);
          EXPECT_NEAR(result.radii[v], oracle.dist_to_center[v], 1e-9);
          // Integer weights: settle rounds equal the weighted distances.
          EXPECT_EQ(static_cast<double>(result.settle[v]), result.radii[v]);
        }
      }
    }
  }
}

TEST(Workspace, ReuseIsByteIdenticalToColdCalls) {
  DecompositionWorkspace workspace;
  for (const auto& [name, g] : mpx::testing::canonical_graphs()) {
    SCOPED_TRACE(name);
    for (const std::uint64_t seed : {1ull, 2ull}) {
      for (const double beta : {0.5, 0.1}) {
        DecompositionRequest req;
        req.beta = beta;
        req.seed = seed;
        const DecompositionResult cold = decompose(g, req);
        const DecompositionResult warm = decompose(g, req, &workspace);
        EXPECT_EQ(warm.owner, cold.owner);
        EXPECT_EQ(warm.settle, cold.settle);
        EXPECT_EQ(warm.decomposition.num_clusters(),
                  cold.decomposition.num_clusters());
      }
    }
  }
  // The weighted path reuses the same workspace: "mpx-bucketed" on
  // integer-weighted fixtures, after the unweighted runs above.
  for (const auto& [name, g] : mpx::testing::small_graphs()) {
    SCOPED_TRACE(name + "_int");
    const WeightedCsrGraph wg = mpx::testing::integer_weighted(g, 3, 5);
    for (const std::uint64_t seed : {1ull, 2ull}) {
      for (const double beta : {0.5, 0.1}) {
        DecompositionRequest req;
        req.algorithm = "mpx-bucketed";
        req.beta = beta;
        req.seed = seed;
        const DecompositionResult cold = decompose(wg, req);
        const DecompositionResult warm = decompose(wg, req, &workspace);
        EXPECT_EQ(warm.owner, cold.owner);
        EXPECT_EQ(warm.settle, cold.settle);
        EXPECT_EQ(warm.radii, cold.radii);
        EXPECT_EQ(warm.weighted_decomposition.assignment,
                  cold.weighted_decomposition.assignment);
      }
    }
  }
}

TEST(Workspace, SurvivesShrinkingAndGrowingGraphs) {
  DecompositionWorkspace workspace;
  DecompositionRequest req;
  req.beta = 0.3;
  req.seed = 5;
  for (const vertex_t n : {2000u, 10u, 5000u, 1u, 300u}) {
    SCOPED_TRACE("n=" + std::to_string(n));
    const CsrGraph g = generators::grid2d(n / 10 + 1, 10);
    const DecompositionResult cold = decompose(g, req);
    const DecompositionResult warm = decompose(g, req, &workspace);
    EXPECT_EQ(warm.owner, cold.owner);
    EXPECT_EQ(warm.settle, cold.settle);
  }
}

TEST(ShiftBasis, DerivedShiftsMatchDirectGenerationBitwise) {
  const vertex_t n = 500;
  for (const ShiftDistribution distribution :
       {ShiftDistribution::kExponential, ShiftDistribution::kPermutationQuantile,
        ShiftDistribution::kUniform}) {
    SCOPED_TRACE(static_cast<int>(distribution));
    PartitionOptions opt;
    opt.seed = 99;
    opt.distribution = distribution;
    const ShiftBasis basis = make_shift_basis(n, opt);
    for (const double beta : {1.0, 0.37, 0.1, 0.01}) {
      SCOPED_TRACE("beta=" + std::to_string(beta));
      opt.beta = beta;
      const Shifts direct = generate_shifts(n, opt);
      Shifts derived;
      shifts_from_basis(basis, opt, derived);
      EXPECT_EQ(derived.delta, direct.delta);
      EXPECT_EQ(derived.delta_max, direct.delta_max);
      EXPECT_EQ(derived.start_round, direct.start_round);
      EXPECT_EQ(derived.rank, direct.rank);
    }
  }
}

TEST(ShiftBasis, DecomposeWithBasisMatchesWithout) {
  const CsrGraph g = generators::grid2d(40, 40);
  DecompositionRequest req;
  req.seed = 3;
  const ShiftBasis basis = make_shift_basis(g.num_vertices(),
                                            req.partition_options());
  DecompositionWorkspace workspace;
  for (const double beta : {0.5, 0.2, 0.05}) {
    req.beta = beta;
    const DecompositionResult direct = decompose(g, req);
    const DecompositionResult derived = decompose(g, req, &workspace, &basis);
    EXPECT_EQ(derived.owner, direct.owner);
    EXPECT_EQ(derived.settle, direct.settle);
  }
}

TEST(Telemetry, MpxFillsCountersAndTimings) {
  const CsrGraph g = generators::grid2d(60, 60);
  DecompositionRequest req;
  req.beta = 0.2;
  req.seed = 1;
  req.engine = TraversalEngine::kPush;
  const DecompositionResult result = decompose(g, req);
  const RunTelemetry& t = result.telemetry;
  EXPECT_EQ(t.algorithm, "mpx");
  EXPECT_EQ(t.engine, "push");
  EXPECT_EQ(t.phases, 1u);
  EXPECT_GT(t.rounds, 0u);
  EXPECT_GT(t.arcs_scanned, 0u);
  EXPECT_EQ(t.arcs_scanned, result.decomposition.arcs_scanned);
  EXPECT_GE(t.threads, 1);
  EXPECT_GE(t.total_seconds, 0.0);
  EXPECT_GE(t.total_seconds,
            t.shift_seconds);  // the phases nest inside the total
}

TEST(Telemetry, BgkmptReportsPhases) {
  const CsrGraph g = generators::grid2d(30, 30);
  DecompositionRequest req;
  req.algorithm = "bgkmpt";
  req.beta = 0.3;
  const DecompositionResult result = decompose(g, req);
  EXPECT_EQ(result.telemetry.algorithm, "bgkmpt");
  EXPECT_GE(result.telemetry.phases, 1u);
  EXPECT_GT(result.telemetry.rounds, 0u);
}

TEST(Facade, ResultsSatisfyDecompositionInvariants) {
  for (const auto& [name, g] : mpx::testing::small_graphs()) {
    SCOPED_TRACE(name);
    for (const char* algorithm : {"mpx", "ball-growing", "bgkmpt"}) {
      SCOPED_TRACE(algorithm);
      DecompositionRequest req;
      req.algorithm = algorithm;
      req.beta = 0.3;
      req.seed = 17;
      const DecompositionResult result = decompose(g, req);
      EXPECT_TRUE(mpx::testing::check_decomposition_invariants(
          result.decomposition, g, {.beta = 0.3}));
      // owner/settle agree with the compacted view.
      for (vertex_t v = 0; v < g.num_vertices(); ++v) {
        EXPECT_EQ(result.owner[v], result.center(result.cluster_of(v)));
        EXPECT_EQ(result.settle[v],
                  result.decomposition.dist_to_center(v));
      }
    }
  }
}

TEST(Facade, UnweightedAlgorithmsRunOnWeightedGraphs) {
  const WeightedCsrGraph wg = mpx::testing::grid3x3_weighted_reference();
  DecompositionRequest req;
  req.beta = 0.4;
  req.seed = 2;
  const DecompositionResult via_weighted = decompose(wg, req);
  const DecompositionResult via_topology = decompose(wg.topology(), req);
  EXPECT_EQ(via_weighted.owner, via_topology.owner);
  EXPECT_EQ(via_weighted.settle, via_topology.settle);
  EXPECT_FALSE(via_weighted.weighted());
}

TEST(Facade, DegenerateGraphsSurviveEveryAlgorithm) {
  for (const auto& [name, g] : mpx::testing::degenerate_graphs()) {
    SCOPED_TRACE(name);
    for (const AlgorithmInfo& info : registered_algorithms()) {
      SCOPED_TRACE(std::string(info.name));
      DecompositionRequest req;
      req.algorithm = std::string(info.name);
      req.beta = 0.5;
      const WeightedCsrGraph wg = with_unit_weights(g);
      const DecompositionResult result = decompose(wg, req);
      EXPECT_EQ(result.num_vertices(), g.num_vertices());
      EXPECT_EQ(result.owner.size(), g.num_vertices());
    }
  }
}

}  // namespace
}  // namespace mpx
