// Canonical graph fixtures shared by every suite.
//
// The corpus spans the families the paper singles out: the path (maximum
// piece count, Section 3), the complete graph (one piece swallows all,
// Section 3), meshes (Figure 1), expanders, trees, and disconnected and
// degenerate inputs. Keeping the list in one place means every suite that
// iterates "all shapes" exercises the same shapes, and a new stress family
// added here propagates to all of them.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/decomposition.hpp"
#include "core/telemetry.hpp"
#include "graph/csr_graph.hpp"

namespace mpx::testing {

struct NamedGraph {
  std::string name;
  CsrGraph graph;
};

/// Degenerate inputs every routine must survive: empty graph, a single
/// vertex, two isolated vertices, one edge.
[[nodiscard]] std::vector<NamedGraph> degenerate_graphs();

/// Small corpus (n <= ~100) cheap enough for O(n * m) oracle checks.
[[nodiscard]] std::vector<NamedGraph> small_graphs();

/// Medium corpus (n up to a few thousand) for algorithmic property tests.
/// Includes everything in small_graphs().
[[nodiscard]] std::vector<NamedGraph> canonical_graphs();

/// Deterministic weighted fixture: generators::grid2d(3, 3) topology with
/// exactly-representable per-edge weights (multiples of 0.25), so golden
/// files built from it are byte-stable across platforms.
[[nodiscard]] WeightedCsrGraph grid3x3_weighted_reference();

/// `g` with a deterministic integer length in [1, max_w] on every edge
/// (hashed from (seed, edge index)) — the input "mpx-bucketed" accepts.
[[nodiscard]] WeightedCsrGraph integer_weighted(const CsrGraph& g,
                                                std::uint64_t seed,
                                                std::uint32_t max_w);

/// Hand-authored two-piece decomposition of generators::grid2d(3, 3),
/// valid under verify_decomposition. Integer-only construction, so the
/// golden file built from it pins the serialization format alone — no
/// dependence on partition()'s floating-point shift draws.
[[nodiscard]] Decomposition grid3x3_reference_decomposition();

/// Hand-authored RunTelemetry with exactly-representable timings
/// (multiples of 1/8), so the telemetry-block golden file is byte-stable
/// across platforms.
[[nodiscard]] RunTelemetry reference_telemetry();

}  // namespace mpx::testing
