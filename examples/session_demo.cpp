// SharedResultStore demo: one graph, a ladder of betas, and the queries
// a decomposition service answers — the result cache the serving layer
// is built on (core/session.hpp).
//
//   ./session_demo [side] [seed]   (--seed N overrides the positional seed)
#include <cstdio>
#include <cstdlib>

#include "example_cli.hpp"
#include "mpx/mpx.hpp"

int main(int argc, char** argv) {
  const mpx::examples::Args args = mpx::examples::parse_args(argc, argv);
  const mpx::vertex_t side =
      static_cast<mpx::vertex_t>(args.pos_int(0, 120));
  const std::uint64_t seed = args.seed_or(1, 42);

  // A store owns the graph plus a reusable workspace and a result cache.
  // (Production path: SharedResultStore::open_snapshot("graph.mpxs")
  // mmaps a snapshot zero-copy instead of generating.)
  mpx::SharedResultStore store(mpx::generators::grid2d(side, side));
  std::printf("store over a %ux%u grid: n=%u, m=%llu\n", side, side,
              store.num_vertices(),
              static_cast<unsigned long long>(store.num_edges()));

  // Batch: maintain decompositions at several betas, as the spanner /
  // hopset pipelines do. The exponential draws happen once per seed; each
  // beta derives its shifts from them (bitwise-identical to cold runs).
  mpx::DecompositionRequest req;
  req.seed = seed;
  const double betas[] = {0.5, 0.2, 0.05, 0.02};
  const auto results = store.acquire_batch(req, betas);
  std::printf("%8s %10s %12s %10s\n", "beta", "clusters", "cut_edges",
              "rounds");
  for (std::size_t i = 0; i < results.size(); ++i) {
    const mpx::MaterializedDecomposition& entry = *results[i].entry;
    std::printf("%8g %10u %12zu %10u\n", betas[i], entry.num_clusters(),
                entry.boundary_arcs().size(),
                entry.result().telemetry.rounds);
  }

  // Queries against a cached decomposition: cluster membership and
  // distance-oracle estimates (the oracle is built on the first distance
  // query, then O(1) per query).
  req.beta = 0.05;
  const mpx::SharedResultStore::Acquired cached = store.acquire(req);
  const mpx::vertex_t u = 0;
  const mpx::vertex_t v = store.num_vertices() - 1;
  std::printf("cluster_of(%u) = %u (center %u)\n", u,
              cached.entry->cluster_of(u), cached.entry->owner_of(u));
  std::printf("estimate_distance(%u, %u) = %u (true distance %u)\n", u, v,
              cached.entry->estimate_distance(u, v), 2 * (side - 1));
  std::printf("cache: %zu decompositions resident\n", store.size());

  // Re-acquiring any cached request is free.
  std::printf("re-run of beta=%g served from cache: %s, %u clusters\n",
              req.beta, cached.from_cache ? "yes" : "no",
              cached.entry->num_clusters());
  return 0;
}
