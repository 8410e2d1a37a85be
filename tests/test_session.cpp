// Tests for SharedResultStore (core/session.hpp), the one result cache:
// snapshot-backed construction, request-keyed caching, batch multi-beta
// acquires sharing one shift basis, query answering (cluster-of /
// boundary / distance oracle), persistence of cached results with their
// telemetry, single-flight concurrent acquires, warm loads, the
// clear()-with-outstanding-references lifetime contract, and the lazy
// boundary/oracle artifacts (built once, on first use, from any thread).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <set>
#include <span>
#include <stdexcept>
#include <thread>
#include <vector>

#include "apps/distance_oracle.hpp"
#include "bfs/sequential_bfs.hpp"
#include "core/decomposer.hpp"
#include "core/session.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "graph/snapshot.hpp"
#include "tests/support/fixtures.hpp"
#include "tests/support/temp_dir.hpp"

namespace mpx {
namespace {

DecompositionRequest request(double beta, std::uint64_t seed = 42,
                             const char* algorithm = "mpx") {
  DecompositionRequest req;
  req.algorithm = algorithm;
  req.beta = beta;
  req.seed = seed;
  return req;
}

/// The result of `req`, computed on first use.
const DecompositionResult& run(SharedResultStore& store,
                               const DecompositionRequest& req) {
  return store.acquire(req).entry->result();
}

TEST(Session, RunMatchesFreeFacadeAndCaches) {
  const CsrGraph g = generators::grid2d(30, 30);
  SharedResultStore store((CsrGraph(g)));
  const DecompositionRequest req = request(0.2);

  EXPECT_EQ(store.cached(req), nullptr);
  const DecompositionResult& first = run(store, req);
  const DecompositionResult direct = decompose(g, req);
  EXPECT_EQ(first.owner, direct.owner);
  EXPECT_EQ(first.settle, direct.settle);

  // Second run returns the same cached object, not a recomputation.
  const DecompositionResult& second = run(store, req);
  EXPECT_EQ(&first, &second);
  EXPECT_EQ(store.size(), 1u);
  EXPECT_EQ(&store.cached(req)->result(), &first);

  // A different request is a different entry.
  (void)run(store, request(0.5));
  EXPECT_EQ(store.size(), 2u);
  store.clear();
  EXPECT_EQ(store.size(), 0u);
  EXPECT_EQ(store.cached(req), nullptr);
}

TEST(Session, OpenSnapshotServesTheGraphZeroCopy) {
  mpx::testing::TempDir dir("mpx_session");
  const CsrGraph g = generators::grid2d(12, 9);
  const std::string path = dir.file("grid.mpxs");
  io::save_snapshot(path, g);

  const auto store = SharedResultStore::open_snapshot(path);
  EXPECT_FALSE(store->weighted());
  EXPECT_EQ(store->topology().num_vertices(), g.num_vertices());
  EXPECT_FALSE(store->topology().owns_storage());  // mmap view

  const DecompositionRequest req = request(0.3);
  const DecompositionResult& result = run(*store, req);
  EXPECT_EQ(result.owner, decompose(g, req).owner);
}

TEST(Session, OpenWeightedSnapshotSelectsWeightedGraph) {
  mpx::testing::TempDir dir("mpx_session");
  const WeightedCsrGraph wg = mpx::testing::grid3x3_weighted_reference();
  const std::string path = dir.file("grid_w.mpxs");
  io::save_snapshot(path, wg);

  const auto store = SharedResultStore::open_snapshot(path);
  EXPECT_TRUE(store->weighted());
  const DecompositionRequest req = request(0.4, 7, "mpx-weighted");
  const DecompositionResult& result = run(*store, req);
  EXPECT_TRUE(result.weighted());
  EXPECT_EQ(result.radii, decompose(wg, req).radii);
}

TEST(Session, BatchMatchesIndividualRunsBitwise) {
  const CsrGraph g = generators::grid2d(40, 40);
  const double betas[] = {0.5, 0.2, 0.1, 0.05};

  SharedResultStore batch_store((CsrGraph(g)));
  const auto batch = batch_store.acquire_batch(request(0.0), betas);
  ASSERT_EQ(batch.size(), 4u);

  for (std::size_t i = 0; i < std::size(betas); ++i) {
    SCOPED_TRACE("beta=" + std::to_string(betas[i]));
    const DecompositionResult individual = decompose(g, request(betas[i]));
    EXPECT_EQ(batch[i].entry->result().owner, individual.owner);
    EXPECT_EQ(batch[i].entry->result().settle, individual.settle);
  }
  EXPECT_EQ(batch_store.size(), 4u);

  // A second batch over an overlapping beta set reuses the cache.
  const double more[] = {0.2, 0.07};
  const auto again = batch_store.acquire_batch(request(0.0), more);
  EXPECT_EQ(again[0].entry, batch[1].entry);
  EXPECT_EQ(batch_store.size(), 5u);
}

TEST(Session, BatchValidatesEveryBetaUpFront) {
  SharedResultStore store(generators::grid2d(5, 5));
  const double betas[] = {0.5, 0.0};
  EXPECT_THROW((void)store.acquire_batch(request(0.1), betas),
               std::invalid_argument);
  EXPECT_EQ(store.size(), 0u);  // nothing half-executed
}

TEST(Session, ClusterQueriesAgreeWithTheResult) {
  const CsrGraph g = generators::grid2d(20, 20);
  SharedResultStore store((CsrGraph(g)));
  const DecompositionRequest req = request(0.3);
  const auto entry = store.acquire(req).entry;
  const DecompositionResult& result = entry->result();

  for (vertex_t v = 0; v < g.num_vertices(); v += 17) {
    EXPECT_EQ(entry->cluster_of(v), result.cluster_of(v));
    EXPECT_EQ(entry->owner_of(v), result.owner[v]);
  }
  EXPECT_EQ(entry->num_clusters(), result.num_clusters());
}

TEST(Session, BoundaryArcsAreExactlyTheCutEdges) {
  const CsrGraph g = generators::grid2d(15, 15);
  SharedResultStore store((CsrGraph(g)));
  const DecompositionRequest req = request(0.4);
  const auto entry = store.acquire(req).entry;
  const DecompositionResult& result = entry->result();

  const std::span<const Edge> boundary = entry->boundary_arcs();
  std::set<std::pair<vertex_t, vertex_t>> expected;
  for (vertex_t u = 0; u < g.num_vertices(); ++u) {
    for (const vertex_t v : g.neighbors(u)) {
      if (u < v && result.owner[u] != result.owner[v]) {
        expected.insert({u, v});
      }
    }
  }
  ASSERT_EQ(boundary.size(), expected.size());
  for (const Edge& e : boundary) {
    EXPECT_TRUE(expected.count({e.u, e.v})) << e.u << "-" << e.v;
  }
  // Second call returns the cached list (same address).
  EXPECT_EQ(store.acquire(req).entry->boundary_arcs().data(),
            boundary.data());
}

TEST(Session, DistanceEstimatesMatchAStandaloneOracle) {
  const CsrGraph g = generators::grid2d(18, 18);
  SharedResultStore store((CsrGraph(g)));
  const DecompositionRequest req = request(0.25);
  const auto entry = store.acquire(req).entry;
  const DecompositionResult& result = entry->result();

  const DistanceOracle oracle(g, Decomposition(result.decomposition));
  for (vertex_t u = 0; u < g.num_vertices(); u += 41) {
    for (vertex_t v = 0; v < g.num_vertices(); v += 37) {
      EXPECT_EQ(entry->estimate_distance(u, v), oracle.estimate(u, v));
    }
  }
  // Estimates never undershoot the true distance (they are realized paths).
  const std::vector<std::uint32_t> exact = bfs_distances(g, 0);
  for (vertex_t v = 0; v < g.num_vertices(); v += 23) {
    EXPECT_GE(entry->estimate_distance(0, v), exact[v]);
  }
}

TEST(Session, DistanceQueriesRejectWeightedResults) {
  SharedResultStore store(mpx::testing::grid3x3_weighted_reference());
  const DecompositionRequest req = request(0.4, 1, "mpx-weighted");
  EXPECT_THROW((void)store.acquire(req).entry->estimate_distance(0, 1),
               std::invalid_argument);
}

TEST(Session, SaveAndReloadCachedResultAcrossSessions) {
  mpx::testing::TempDir dir("mpx_session");
  const std::string path = dir.file("cached.dec");
  const CsrGraph g = generators::grid2d(10, 10);
  const DecompositionRequest req = request(0.3, 9);

  RunTelemetry saved_telemetry;
  {
    SharedResultStore store((CsrGraph(g)));
    (void)run(store, req);
    saved_telemetry = run(store, req).telemetry;
    store.save_cached(req, path);
  }

  SharedResultStore restored((CsrGraph(g)));
  EXPECT_FALSE(restored.load_cached(req, dir.file("missing.dec")));
  ASSERT_TRUE(restored.load_cached(req, path));
  EXPECT_EQ(restored.size(), 1u);

  const auto cached = restored.cached(req);
  ASSERT_NE(cached, nullptr);
  const DecompositionResult direct = decompose(g, req);
  EXPECT_EQ(cached->result().owner, direct.owner);
  EXPECT_EQ(cached->result().settle, direct.settle);
  // The telemetry block survived the round trip.
  EXPECT_EQ(cached->result().telemetry, saved_telemetry);
  // Queries work off the restored entry without recomputation.
  EXPECT_EQ(restored.acquire(req).entry->num_clusters(),
            direct.num_clusters());
}

TEST(Session, PersistenceRejectsWeightedAlgorithms) {
  mpx::testing::TempDir dir("mpx_session");
  SharedResultStore store(mpx::testing::grid3x3_weighted_reference());
  const DecompositionRequest req = request(0.4, 1, "mpx-weighted");
  EXPECT_THROW(store.save_cached(req, dir.file("w.dec")),
               std::invalid_argument);
  // load_cached mirrors the guard even before touching the file: a text
  // decomposition can never restore real-valued radii shape-consistently.
  EXPECT_THROW((void)store.load_cached(req, dir.file("absent.dec")),
               std::invalid_argument);
}

TEST(Session, LoadCachedRejectsAlgorithmMismatch) {
  mpx::testing::TempDir dir("mpx_session");
  const std::string path = dir.file("cached.dec");
  const CsrGraph g = generators::grid2d(8, 8);
  {
    SharedResultStore store((CsrGraph(g)));
    store.save_cached(request(0.3), path);  // telemetry says "mpx"
  }
  SharedResultStore other((CsrGraph(g)));
  EXPECT_THROW((void)other.load_cached(request(0.3, 42, "ball-growing"), path),
               std::runtime_error);
}

TEST(Session, LoadCachedKeepsResidentEntriesAlive) {
  mpx::testing::TempDir dir("mpx_session");
  const std::string path = dir.file("cached.dec");
  const CsrGraph g = generators::grid2d(8, 8);
  const DecompositionRequest req = request(0.3);
  SharedResultStore store((CsrGraph(g)));
  store.save_cached(req, path);
  const DecompositionResult& resident = run(store, req);
  // Loading over a resident entry is a no-op: the computed result equals
  // the file (determinism), and outstanding references stay valid.
  ASSERT_TRUE(store.load_cached(req, path));
  EXPECT_EQ(&run(store, req), &resident);
}

TEST(Session, LoadCachedRejectsMismatchedGraph) {
  mpx::testing::TempDir dir("mpx_session");
  const std::string path = dir.file("cached.dec");
  const DecompositionRequest req = request(0.3);
  {
    SharedResultStore store(generators::grid2d(10, 10));
    store.save_cached(req, path);
  }
  SharedResultStore other(generators::grid2d(4, 4));
  EXPECT_THROW((void)other.load_cached(req, path), std::runtime_error);
}

// Any number of threads may query one entry concurrently, artifacts
// already built or not. Run without sanitizers this still catches logic
// races via wrong answers; under sanitizers it catches UB.
TEST(Session, ConstQueryPathSurvivesConcurrentHammering) {
  const CsrGraph g = generators::grid2d(40, 40);
  SharedResultStore store((CsrGraph(g)));
  const DecompositionRequest req = request(0.25);
  const auto entry = store.acquire(req).entry;
  const DecompositionResult& result = entry->result();
  const std::span<const Edge> boundary = entry->boundary_arcs();
  const MaterializedDecomposition& view = *entry;

  constexpr int kThreads = 8;
  constexpr int kIters = 400;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const vertex_t n = g.num_vertices();
      for (int i = 0; i < kIters; ++i) {
        const auto v = static_cast<vertex_t>((t * 7919 + i * 104729) % n);
        const auto u = static_cast<vertex_t>((t * 104729 + i * 7919) % n);
        if (view.owner_of(v) != result.owner[v]) ++mismatches;
        if (view.cluster_of(v) != result.cluster_of(v)) ++mismatches;
        if (view.num_clusters() != result.num_clusters()) ++mismatches;
        const std::span<const Edge> b = view.boundary_arcs();
        if (b.data() != boundary.data() || b.size() != boundary.size()) {
          ++mismatches;
        }
        // Distance estimates must be stable across threads (the oracle is
        // immutable once built); symmetric sampling covers u == v.
        if (view.estimate_distance(u, v) != view.estimate_distance(u, v)) {
          ++mismatches;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);

  // Sequential spot check that the concurrent answers were the right ones.
  const DistanceOracle oracle(g, Decomposition(result.decomposition));
  for (vertex_t v = 0; v < g.num_vertices(); v += 97) {
    EXPECT_EQ(view.estimate_distance(0, v), oracle.estimate(0, v));
  }
}

TEST(Session, UnweightedAlgorithmsRunOnWeightedSessions) {
  SharedResultStore store(mpx::testing::grid3x3_weighted_reference());
  const DecompositionRequest req = request(0.5, 3);
  const DecompositionResult& result = run(store, req);
  EXPECT_FALSE(result.weighted());
  const DecompositionResult direct =
      decompose(mpx::testing::grid3x3_weighted_reference().topology(), req);
  EXPECT_EQ(result.owner, direct.owner);
}

// --- lazy query artifacts ---------------------------------------------------

// An edgeless graph decomposes into n singleton clusters, so a k x k
// distance table would need 2^40 entries. Nothing but a distance query
// may build it.
TEST(LazyArtifacts, ManySingletonClustersServeWithoutTheOracle) {
  SharedResultStore store(build_undirected(1u << 20, {}));
  const SharedResultStore::Acquired got = store.acquire(request(0.5));
  ASSERT_NE(got.entry, nullptr);
  EXPECT_EQ(got.entry->num_clusters(), 1u << 20);
  for (vertex_t v = 0; v < (1u << 20); v += 99991) {
    EXPECT_EQ(got.entry->owner_of(v), v);
    EXPECT_LT(got.entry->cluster_of(v), 1u << 20);
  }
  EXPECT_TRUE(got.entry->boundary_arcs().empty());
}

// Eight threads race to build both artifacts of one fresh entry: each is
// built once and every thread sees the same answers. The TSan job runs
// this suite.
TEST(LazyArtifacts, ConcurrentFirstUseBuildsEachArtifactOnce) {
  const CsrGraph g = generators::grid2d(30, 30);
  SharedResultStore store((CsrGraph(g)));
  const auto entry = store.acquire(request(0.5, 5)).entry;
  const DistanceOracle oracle(g, Decomposition(entry->result().decomposition));

  constexpr int kThreads = 8;
  std::atomic<int> ready{0};
  std::vector<std::span<const Edge>> boundaries(kThreads);
  std::vector<std::vector<std::uint32_t>> estimates(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      // Half the threads start with each artifact.
      if (t % 2 == 0) boundaries[t] = entry->boundary_arcs();
      for (vertex_t v = 0; v < g.num_vertices(); v += 31) {
        estimates[t].push_back(entry->estimate_distance(0, v));
      }
      if (t % 2 != 0) boundaries[t] = entry->boundary_arcs();
    });
  }
  for (std::thread& t : threads) t.join();

  std::vector<std::uint32_t> expected;
  for (vertex_t v = 0; v < g.num_vertices(); v += 31) {
    expected.push_back(oracle.estimate(0, v));
  }
  for (int t = 0; t < kThreads; ++t) {
    SCOPED_TRACE("thread " + std::to_string(t));
    EXPECT_EQ(boundaries[t].data(), boundaries[0].data());
    EXPECT_EQ(boundaries[t].size(), boundaries[0].size());
    EXPECT_EQ(estimates[t], expected);
  }
  EXPECT_FALSE(boundaries[0].empty());
}

TEST(LazyArtifacts, EntriesOutliveTheirStore) {
  const CsrGraph g = generators::grid2d(16, 16);
  const DecompositionRequest req = request(0.3, 4);
  std::shared_ptr<const MaterializedDecomposition> entry;
  {
    SharedResultStore store((CsrGraph(g)));
    entry = store.acquire(req).entry;
  }  // the store (and its copy of the graph) is gone; no artifact built yet
  const DecompositionResult expected = decompose(g, req);
  EXPECT_EQ(entry->result().owner, expected.owner);
  const DistanceOracle oracle(g, Decomposition(expected.decomposition));
  EXPECT_EQ(entry->estimate_distance(0, g.num_vertices() - 1),
            oracle.estimate(0, g.num_vertices() - 1));
  std::size_t cut = 0;
  for (vertex_t u = 0; u < g.num_vertices(); ++u) {
    for (const vertex_t v : g.neighbors(u)) {
      if (u < v && expected.owner[u] != expected.owner[v]) ++cut;
    }
  }
  EXPECT_EQ(entry->boundary_arcs().size(), cut);
}

// --- SharedResultStore ------------------------------------------------------

TEST(SharedStore, AcquireMatchesSessionAndCachesFleetWide) {
  const CsrGraph g = generators::grid2d(20, 20);
  SharedResultStore store((CsrGraph(g)));
  const DecompositionRequest req = request(0.3);

  EXPECT_EQ(store.cached(req), nullptr);
  const SharedResultStore::Acquired cold = store.acquire(req);
  ASSERT_NE(cold.entry, nullptr);
  EXPECT_FALSE(cold.from_cache);
  EXPECT_EQ(store.computes(), 1u);
  EXPECT_EQ(store.size(), 1u);

  // The entry answers exactly like an independent store over the same
  // graph (both draw from the same per-seed shift basis).
  SharedResultStore reference((CsrGraph(g)));
  const auto ref = reference.acquire(req).entry;
  const DecompositionResult& expected = ref->result();
  EXPECT_EQ(cold.entry->result().owner, expected.owner);
  EXPECT_EQ(cold.entry->result().settle, expected.settle);
  EXPECT_EQ(cold.entry->num_clusters(), expected.num_clusters());
  for (vertex_t v = 0; v < g.num_vertices(); v += 13) {
    EXPECT_EQ(cold.entry->cluster_of(v), ref->cluster_of(v));
    EXPECT_EQ(cold.entry->owner_of(v), ref->owner_of(v));
  }
  const std::span<const Edge> expected_cut = ref->boundary_arcs();
  const std::span<const Edge> cut = cold.entry->boundary_arcs();
  ASSERT_EQ(cut.size(), expected_cut.size());
  EXPECT_TRUE(std::equal(cut.begin(), cut.end(), expected_cut.begin()));
  for (vertex_t v = 0; v < g.num_vertices(); v += 131) {
    EXPECT_EQ(cold.entry->estimate_distance(0, v),
              ref->estimate_distance(0, v));
  }

  // Re-acquiring is a hit on the same immutable entry, not a recompute.
  const SharedResultStore::Acquired warm = store.acquire(req);
  EXPECT_TRUE(warm.from_cache);
  EXPECT_EQ(warm.entry.get(), cold.entry.get());
  EXPECT_EQ(store.computes(), 1u);
  EXPECT_EQ(store.cached(req).get(), cold.entry.get());
  EXPECT_EQ(store.cached(request(0.5)), nullptr);  // distinct key
}

TEST(SharedStore, ConcurrentColdAcquiresAreSingleFlight) {
  const CsrGraph g = generators::grid2d(40, 40);
  SharedResultStore store((CsrGraph(g)));
  const DecompositionRequest req = request(0.25, 11);

  constexpr int kThreads = 8;
  std::atomic<int> cold_count{0};
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  const DecompositionResult expected = decompose(g, req);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      const SharedResultStore::Acquired got = store.acquire(req);
      if (!got.from_cache) ++cold_count;
      if (got.entry->result().owner != expected.owner) ++mismatches;
    });
  }
  for (std::thread& t : threads) t.join();

  // One thread computed; everyone else either waited on the in-flight
  // compute or found the published entry — all of those are cache hits.
  EXPECT_EQ(cold_count.load(), 1);
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(store.computes(), 1u);
  EXPECT_EQ(store.size(), 1u);
}

TEST(SharedStore, BatchMatchesIndividualAcquiresBitwise) {
  const CsrGraph g = generators::grid2d(30, 30);
  const double betas[] = {0.5, 0.2, 0.1};

  SharedResultStore batch_store((CsrGraph(g)));
  const std::vector<SharedResultStore::Acquired> batch =
      batch_store.acquire_batch(request(0.0), betas);
  ASSERT_EQ(batch.size(), std::size(betas));

  SharedResultStore one_by_one((CsrGraph(g)));
  for (std::size_t i = 0; i < std::size(betas); ++i) {
    SCOPED_TRACE("beta=" + std::to_string(betas[i]));
    const SharedResultStore::Acquired single =
        one_by_one.acquire(request(betas[i]));
    EXPECT_EQ(batch[i].entry->result().owner, single.entry->result().owner);
    EXPECT_EQ(batch[i].entry->result().settle, single.entry->result().settle);
  }

  // Overlapping betas hit the entries the batch populated.
  EXPECT_TRUE(batch_store.acquire(request(0.2)).from_cache);
  // And a bad beta anywhere in the ladder fails before any compute.
  const double bad[] = {0.5, 0.0};
  EXPECT_THROW((void)batch_store.acquire_batch(request(0.1), bad),
               std::invalid_argument);
}

TEST(SharedStore, ClearKeepsOutstandingEntriesAliveAndRecomputesIdentically) {
  const CsrGraph g = generators::grid2d(12, 12);
  SharedResultStore store((CsrGraph(g)));
  const DecompositionRequest req = request(0.3, 7);

  const std::shared_ptr<const MaterializedDecomposition> held =
      store.acquire(req).entry;
  store.clear();
  EXPECT_EQ(store.size(), 0u);
  EXPECT_EQ(store.cached(req), nullptr);

  // The outstanding reference is untouched by the clear (the server parks
  // these next to in-flight responses).
  EXPECT_EQ(held->result().owner.size(), g.num_vertices());
  (void)held->cluster_of(0);

  // Recomputing after the clear reproduces the same bytes: the shift
  // draws are a deterministic function of (seed, distribution), so
  // dropping the shared bases loses no information.
  const SharedResultStore::Acquired again = store.acquire(req);
  EXPECT_FALSE(again.from_cache);
  EXPECT_EQ(store.computes(), 2u);
  EXPECT_NE(again.entry.get(), held.get());
  EXPECT_EQ(again.entry->result().owner, held->result().owner);
  EXPECT_EQ(again.entry->result().settle, held->result().settle);
}

TEST(SharedStore, LoadCachedRestoresSavedResultsWarm) {
  mpx::testing::TempDir dir("mpx_store");
  const std::string path = dir.file("cached.dec");
  const CsrGraph g = generators::grid2d(10, 10);
  const DecompositionRequest req = request(0.3, 9);
  DecompositionResult expected;
  {
    SharedResultStore saver((CsrGraph(g)));
    expected = saver.acquire(req).entry->result();
    saver.save_cached(req, path);
  }

  SharedResultStore store((CsrGraph(g)));
  ASSERT_TRUE(store.load_cached(req, path));
  EXPECT_EQ(store.size(), 1u);
  EXPECT_EQ(store.computes(), 0u);  // loaded, not computed
  const SharedResultStore::Acquired got = store.acquire(req);
  EXPECT_TRUE(got.from_cache);
  EXPECT_EQ(got.entry->result().owner, expected.owner);
  EXPECT_EQ(got.entry->result().settle, expected.settle);

  // A missing file for a non-resident key is a false return (the lenient
  // warm-restore path; a resident key short-circuits to true without
  // touching the file); mismatched requests are hard errors.
  EXPECT_FALSE(store.load_cached(request(0.7), dir.file("missing.dec")));
  EXPECT_TRUE(store.load_cached(req, dir.file("missing.dec")));
  EXPECT_THROW(
      (void)store.load_cached(request(0.3, 9, "ball-growing"), path),
      std::runtime_error);
  EXPECT_THROW(
      (void)store.load_cached(request(0.3, 9, "mpx-weighted"), path),
      std::invalid_argument);
}

TEST(SharedStore, MaterializedDecompositionRejectsWeightedDistanceQueries) {
  SharedResultStore store(mpx::testing::grid3x3_weighted_reference());
  ASSERT_TRUE(store.weighted());
  const SharedResultStore::Acquired got =
      store.acquire(request(0.5, 3, "mpx-weighted"));
  EXPECT_TRUE(got.entry->result().weighted());
  EXPECT_THROW((void)got.entry->estimate_distance(0, 1),
               std::invalid_argument);
  (void)got.entry->cluster_of(0);  // non-distance queries still answer
}

}  // namespace
}  // namespace mpx
