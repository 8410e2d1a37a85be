// Experiment E16 — Section 6's open direction, constructively: a parallel
// weighted partition for integer weights via Dial-style bucketed rounds,
// run as decompose(g, {.algorithm = "mpx-bucketed"}) — the delayed
// multi-source BFS on the shared traversal engine, an arc of length w
// delivering its claim w rounds after its tail settles. Compares against
// the sequential shifted Dijkstra (identical output under fractional
// tie-breaks) and reports the round count — the quantity the paper says
// is "harder to control" in the weighted setting.
//
// Both rows time the partition for fixed shifts: the Dijkstra row gets
// them precomputed, and the bucketed row reports the run's wall time minus
// its shift phase (RunTelemetry::shift_seconds).
#include <cstdio>

#include "mpx/mpx.hpp"
#include "table.hpp"

namespace {

mpx::WeightedCsrGraph integer_weights(const mpx::CsrGraph& g,
                                      std::uint64_t seed,
                                      std::uint32_t max_w) {
  const std::vector<mpx::Edge> edges = mpx::edge_list(g);
  std::vector<mpx::WeightedEdge> weighted;
  weighted.reserve(edges.size());
  for (std::size_t i = 0; i < edges.size(); ++i) {
    weighted.push_back(
        {edges[i].u, edges[i].v,
         1.0 + static_cast<double>(mpx::hash_stream(seed, i) % max_w)});
  }
  return mpx::build_undirected_weighted(
      g.num_vertices(), std::span<const mpx::WeightedEdge>(weighted));
}

}  // namespace

int main() {
  using namespace mpx;
  bench::section("E16 / Section 6: parallel bucketed weighted partition");

  struct Case {
    const char* name;
    WeightedCsrGraph graph;
  };
  std::vector<Case> cases;
  cases.push_back({"grid200-W4", integer_weights(generators::grid2d(200, 200), 3, 4)});
  cases.push_back(
      {"er64k-W8",
       integer_weights(generators::erdos_renyi(65536, 262144, 7), 5, 8)});
  cases.push_back(
      {"grid200-W1", with_unit_weights(generators::grid2d(200, 200))});

  bench::Table table({"graph", "algorithm", "beta", "secs", "clusters",
                      "cut_frac", "rounds"});
  const double beta = 0.1;
  for (const Case& c : cases) {
    PartitionOptions opt;
    opt.beta = beta;
    opt.seed = 1;
    const Shifts shifts = generate_shifts(c.graph.num_vertices(), opt);
    const DecompositionRequest req =
        DecompositionRequest::from_options("mpx-bucketed", opt);
    {
      WallTimer timer;
      const WeightedDecomposition dec =
          weighted_partition_with_shifts(c.graph, shifts);
      const double secs = timer.seconds();
      const WeightedDecompositionStats s = analyze_weighted(dec, c.graph);
      table.row({c.name, "dijkstra(seq)", bench::Table::num(beta, 2),
                 bench::Table::num(secs, 3),
                 bench::Table::integer(dec.num_clusters()),
                 bench::Table::num(s.cut_fraction, 4), "-"});
    }
    {
      const DecompositionResult r = decompose(c.graph, req);
      const double secs =
          r.telemetry.total_seconds - r.telemetry.shift_seconds;
      const WeightedDecompositionStats s =
          analyze_weighted(r.weighted_decomposition, c.graph);
      table.row({c.name, "bucketed(par)", bench::Table::num(beta, 2),
                 bench::Table::num(secs, 3),
                 bench::Table::integer(r.num_clusters()),
                 bench::Table::num(s.cut_fraction, 4),
                 bench::Table::integer(r.telemetry.rounds)});
    }
  }
  std::printf(
      "\nexpected shape: identical clusters/cut between the two "
      "implementations (same shifts, same tie-break order); the bucketed "
      "run exposes the parallel round count, which grows with the weight "
      "range W — the depth obstruction Section 6 describes.\n");
  return 0;
}
