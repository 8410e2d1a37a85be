#include "tests/support/fixtures.hpp"

#include <utility>

#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "support/random.hpp"

namespace mpx::testing {

std::vector<NamedGraph> degenerate_graphs() {
  std::vector<NamedGraph> out;
  out.push_back({"empty", CsrGraph{}});
  out.push_back({"single_vertex", build_undirected(1, {})});
  out.push_back({"two_isolated", build_undirected(2, {})});
  const Edge one_edge[] = {{0, 1}};
  out.push_back({"one_edge", build_undirected(2, one_edge)});
  return out;
}

std::vector<NamedGraph> small_graphs() {
  namespace gen = mpx::generators;
  std::vector<NamedGraph> out = degenerate_graphs();
  out.push_back({"path_64", gen::path(64)});
  out.push_back({"cycle_48", gen::cycle(48)});
  out.push_back({"complete_16", gen::complete(16)});
  out.push_back({"star_33", gen::star(33)});
  out.push_back({"grid_8x9", gen::grid2d(8, 9)});
  out.push_back({"torus_6x6", gen::grid2d(6, 6, /*wrap=*/true)});
  out.push_back({"grid3d_4x4x3", gen::grid3d(4, 4, 3)});
  out.push_back({"binary_tree_31", gen::complete_binary_tree(31)});
  out.push_back({"hypercube_5", gen::hypercube(5)});
  out.push_back({"barbell_8", gen::barbell(8)});
  out.push_back({"caterpillar_10x3", gen::caterpillar(10, 3)});
  out.push_back({"erdos_renyi_60_120", gen::erdos_renyi(60, 120, 7)});
  out.push_back(
      {"three_triangles", gen::disjoint_copies(gen::cycle(3), 3)});
  return out;
}

std::vector<NamedGraph> canonical_graphs() {
  namespace gen = mpx::generators;
  std::vector<NamedGraph> out = small_graphs();
  out.push_back({"path_2000", gen::path(2000)});
  out.push_back({"grid_40x50", gen::grid2d(40, 50)});
  out.push_back({"rmat_10", gen::rmat(10, 4.0, 11)});
  out.push_back({"matching_union_512_deg4",
                 gen::random_matching_union(512, 4, 13)});
  out.push_back({"watts_strogatz_600", gen::watts_strogatz(600, 6, 0.1, 17)});
  out.push_back({"disconnected_grids",
                 gen::disjoint_copies(gen::grid2d(12, 12), 4)});
  return out;
}

WeightedCsrGraph grid3x3_weighted_reference() {
  const CsrGraph grid = mpx::generators::grid2d(3, 3);
  std::vector<WeightedEdge> edges;
  for (const Edge& e : edge_list(grid)) {
    // Multiples of 0.25 are exact in binary64, so the bytes the writers
    // emit are identical on every IEEE 754 platform.
    edges.push_back({e.u, e.v, 1.0 + 0.25 * ((e.u + 2 * e.v) % 5)});
  }
  return build_undirected_weighted(grid.num_vertices(),
                                   std::span<const WeightedEdge>(edges));
}

WeightedCsrGraph integer_weighted(const CsrGraph& g, std::uint64_t seed,
                                  std::uint32_t max_w) {
  const std::vector<Edge> edges = edge_list(g);
  std::vector<WeightedEdge> weighted;
  weighted.reserve(edges.size());
  for (std::size_t i = 0; i < edges.size(); ++i) {
    weighted.push_back(
        {edges[i].u, edges[i].v,
         1.0 + static_cast<double>(hash_stream(seed, i) % max_w)});
  }
  return build_undirected_weighted(g.num_vertices(),
                                   std::span<const WeightedEdge>(weighted));
}

Decomposition grid3x3_reference_decomposition() {
  // Grid ids:  0 1 2     Piece A (center 0): {0, 1, 2} along the top row.
  //            3 4 5     Piece B (center 4): the remaining six vertices.
  //            6 7 8     All recorded distances are true in-piece distances.
  const std::vector<vertex_t> owner = {0, 0, 0, 4, 4, 4, 4, 4, 4};
  const std::vector<std::uint32_t> dist = {0, 1, 2, 1, 0, 1, 2, 1, 2};
  return Decomposition(owner, dist);
}

RunTelemetry reference_telemetry() {
  RunTelemetry t;
  t.algorithm = "mpx";
  t.engine = "auto";
  t.threads = 8;
  t.rounds = 6;
  t.pull_rounds = 2;
  t.phases = 1;
  t.arcs_scanned = 48;
  t.shift_seconds = 0.25;
  t.shift_draw_seconds = 0.1875;
  t.shift_rank_seconds = 0.0625;
  t.search_seconds = 0.5;
  t.assemble_seconds = 0.125;
  t.total_seconds = 0.875;
  return t;
}

}  // namespace mpx::testing
