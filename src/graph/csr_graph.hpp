/// \file
/// \brief Immutable compressed-sparse-row graph types.
///
/// CsrGraph is the unweighted undirected graph of Definition 1.1: every
/// undirected edge {u,v} is stored as the two directed arcs (u,v) and (v,u);
/// self-loops are excluded by the builder. The representation is a value
/// type: cheap to move, safe to share by const reference across threads.
///
/// Storage is span-based with two ownership variants (see docs/FORMATS.md
/// and docs/ARCHITECTURE.md):
///  * **owning** — the graph holds its CSR arrays in `std::vector`s
///    (builder, generators, text I/O). Copying deep-copies the arrays.
///  * **view** — the spans alias externally-owned memory (an mmap-ed
///    snapshot, `mpx::io::map_snapshot`) kept alive by a type-erased
///    shared keepalive. Copying shares the keepalive; the bytes are
///    immutable, so shared views stay thread-safe.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "support/assert.hpp"
#include "support/types.hpp"

namespace mpx {

/// Undirected unweighted graph in compressed-sparse-row form.
///
/// Adjacency of vertex `v` is `targets[offsets[v] .. offsets[v+1])`, sorted
/// ascending. All accessors are O(1) except where noted; none allocate.
class CsrGraph {
 public:
  /// Empty graph (0 vertices, 0 arcs).
  CsrGraph() { bind_owned(); }

  /// Assemble from raw CSR arrays (owning). `offsets` has n+1 entries with
  /// offsets[0] == 0 and offsets[n] == targets.size(); each arc target is a
  /// valid vertex. The builder guarantees symmetry; this constructor only
  /// checks structural validity (symmetry is O(m log m) and verified in
  /// tests via `is_symmetric`).
  CsrGraph(std::vector<edge_t> offsets, std::vector<vertex_t> targets);

  /// Zero-copy view over externally-owned CSR arrays. `keepalive` owns the
  /// memory the spans alias (e.g. an mmap-ed snapshot) and is released when
  /// the last view copy dies. The same structural checks as the owning
  /// constructor apply; the caller must guarantee the bytes stay immutable.
  CsrGraph(std::span<const edge_t> offsets, std::span<const vertex_t> targets,
           std::shared_ptr<const void> keepalive);

  /// Tag selecting the constructors that skip the O(n + m) structural
  /// checks. Only for callers that have already validated the arrays and
  /// report corruption with recoverable errors — the snapshot readers
  /// (graph/snapshot.cpp) validate with std::runtime_error, then construct
  /// trusted so the scan is not paid twice on the ingestion hot path.
  struct Trusted {};

  /// Owning constructor, structural checks skipped (see Trusted).
  CsrGraph(std::vector<edge_t> offsets, std::vector<vertex_t> targets,
           Trusted);

  /// View constructor, structural checks skipped (see Trusted).
  CsrGraph(std::span<const edge_t> offsets, std::span<const vertex_t> targets,
           std::shared_ptr<const void> keepalive, Trusted);

  /// Deep-copies owning graphs; view copies share the keepalive (cheap).
  CsrGraph(const CsrGraph& other);
  /// See the copy constructor.
  CsrGraph& operator=(const CsrGraph& other);
  /// Moved-from graphs are reset to the empty graph.
  CsrGraph(CsrGraph&& other) noexcept;
  /// See the move constructor.
  CsrGraph& operator=(CsrGraph&& other) noexcept;
  ~CsrGraph() = default;

  /// Number of vertices n.
  [[nodiscard]] vertex_t num_vertices() const {
    return static_cast<vertex_t>(offsets_.size() - 1);
  }

  /// Number of undirected edges m (arc count / 2).
  [[nodiscard]] edge_t num_edges() const { return num_arcs() / 2; }

  /// Number of stored directed arcs (2m for undirected graphs).
  [[nodiscard]] edge_t num_arcs() const {
    return static_cast<edge_t>(targets_.size());
  }

  /// Out-degree of v (== undirected degree).
  [[nodiscard]] vertex_t degree(vertex_t v) const {
    MPX_EXPECTS(v < num_vertices());
    return static_cast<vertex_t>(offsets_[v + 1] - offsets_[v]);
  }

  /// Neighbors of v, sorted ascending.
  [[nodiscard]] std::span<const vertex_t> neighbors(vertex_t v) const {
    MPX_EXPECTS(v < num_vertices());
    return {targets_.data() + offsets_[v],
            static_cast<std::size_t>(offsets_[v + 1] - offsets_[v])};
  }

  /// First arc index of v; arcs of v are [arc_begin(v), arc_begin(v+1)).
  [[nodiscard]] edge_t arc_begin(vertex_t v) const {
    MPX_EXPECTS(v < num_vertices());
    return offsets_[v];
  }

  /// Target of arc index e.
  [[nodiscard]] vertex_t arc_target(edge_t e) const {
    MPX_EXPECTS(e < num_arcs());
    return targets_[static_cast<std::size_t>(e)];
  }

  /// True iff {u, v} is an edge. O(log deg(u)).
  [[nodiscard]] bool has_edge(vertex_t u, vertex_t v) const;

  /// True iff every arc (u,v) has a matching arc (v,u) and no self-loops.
  /// O(m log dmax); used by tests and the verifier, not hot paths.
  [[nodiscard]] bool is_symmetric() const;

  /// Raw arrays, for algorithms that stream the whole structure.
  [[nodiscard]] std::span<const edge_t> offsets() const { return offsets_; }
  /// Raw arc-target array, aligned with `offsets()`.
  [[nodiscard]] std::span<const vertex_t> targets() const { return targets_; }

  /// True when this graph owns its storage; false for zero-copy views
  /// (mmap-ed snapshots). Views share, owners deep-copy, on copy.
  [[nodiscard]] bool owns_storage() const { return keepalive_ == nullptr; }

 private:
  /// Offsets array of the empty graph; lets default construction and
  /// moved-from reset stay allocation-free (and noexcept).
  static constexpr edge_t kEmptyOffsets[1] = {0};

  /// Points the spans at the owned vectors (owning variant only).
  void bind_owned() noexcept {
    offsets_ = owned_offsets_.empty()
                   ? std::span<const edge_t>(kEmptyOffsets)
                   : std::span<const edge_t>(owned_offsets_);
    targets_ = owned_targets_;
  }
  /// Structural validity checks shared by both constructors.
  void check_structure() const;

  // Owning variant: the spans alias these vectors; keepalive_ is null.
  std::vector<edge_t> owned_offsets_;
  std::vector<vertex_t> owned_targets_;
  // View variant: the spans alias memory owned by keepalive_.
  std::shared_ptr<const void> keepalive_;
  std::span<const edge_t> offsets_;
  std::span<const vertex_t> targets_;
};

/// Undirected weighted graph: CsrGraph topology plus one positive length per
/// arc (both arcs of an undirected edge carry equal weight). Used by the
/// Section 6 weighted extension, low-stretch trees, and the Laplacian
/// solver. Weight storage mirrors CsrGraph's owning/view split.
class WeightedCsrGraph {
 public:
  /// Traversal-engine capability flag: the weighted search holds long arcs
  /// back in its push expansions, which a pull round skips, so the engine
  /// stays on the push path (see kGraphSupportsPull in bfs/traversal.hpp).
  static constexpr bool kSupportsPullTraversal = false;

  /// Empty weighted graph.
  WeightedCsrGraph() = default;

  /// `weights[e]` is the length of arc e of `graph`; all weights positive.
  WeightedCsrGraph(CsrGraph graph, std::vector<double> weights);

  /// Zero-copy weight view; `keepalive` owns the weight bytes (the graph
  /// carries its own keepalive). Same preconditions as the owning form.
  WeightedCsrGraph(CsrGraph graph, std::span<const double> weights,
                   std::shared_ptr<const void> keepalive);

  /// Owning constructor, weight checks skipped (see CsrGraph::Trusted).
  WeightedCsrGraph(CsrGraph graph, std::vector<double> weights,
                   CsrGraph::Trusted);

  /// View constructor, weight checks skipped (see CsrGraph::Trusted).
  WeightedCsrGraph(CsrGraph graph, std::span<const double> weights,
                   std::shared_ptr<const void> keepalive, CsrGraph::Trusted);

  /// Deep-copies owned weights; view copies share the keepalive.
  WeightedCsrGraph(const WeightedCsrGraph& other);
  /// See the copy constructor.
  WeightedCsrGraph& operator=(const WeightedCsrGraph& other);
  /// Moved-from graphs are reset to the empty graph.
  WeightedCsrGraph(WeightedCsrGraph&& other) noexcept;
  /// See the move constructor.
  WeightedCsrGraph& operator=(WeightedCsrGraph&& other) noexcept;
  ~WeightedCsrGraph() = default;

  /// The unweighted topology.
  [[nodiscard]] const CsrGraph& topology() const { return graph_; }
  /// Number of vertices n.
  [[nodiscard]] vertex_t num_vertices() const { return graph_.num_vertices(); }
  /// Number of undirected edges m.
  [[nodiscard]] edge_t num_edges() const { return graph_.num_edges(); }
  /// Number of stored directed arcs (2m).
  [[nodiscard]] edge_t num_arcs() const { return graph_.num_arcs(); }
  /// Out-degree of v.
  [[nodiscard]] vertex_t degree(vertex_t v) const { return graph_.degree(v); }
  /// Neighbors of v, sorted ascending.
  [[nodiscard]] std::span<const vertex_t> neighbors(vertex_t v) const {
    return graph_.neighbors(v);
  }
  /// First arc index of v.
  [[nodiscard]] edge_t arc_begin(vertex_t v) const {
    return graph_.arc_begin(v);
  }

  /// Weights of the arcs of v, aligned with neighbors(v).
  [[nodiscard]] std::span<const double> arc_weights(vertex_t v) const {
    return {weights_.data() + graph_.arc_begin(v),
            static_cast<std::size_t>(graph_.degree(v))};
  }

  /// Weight of arc index e.
  [[nodiscard]] double arc_weight(edge_t e) const {
    MPX_EXPECTS(e < num_arcs());
    return weights_[static_cast<std::size_t>(e)];
  }

  /// Raw per-arc weight array, aligned with `topology().targets()`.
  [[nodiscard]] std::span<const double> weights() const { return weights_; }

  /// True when the weight array is owned (see CsrGraph::owns_storage).
  [[nodiscard]] bool owns_weights() const {
    return weights_keepalive_ == nullptr;
  }

 private:
  /// Points the weight span at the owned vector (owning variant only).
  void bind_owned() noexcept { weights_ = owned_weights_; }
  /// Validates weight count and positivity.
  void check_weights() const;

  CsrGraph graph_;
  std::vector<double> owned_weights_;
  std::shared_ptr<const void> weights_keepalive_;
  std::span<const double> weights_;
};

}  // namespace mpx
