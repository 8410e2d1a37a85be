#include "core/session.hpp"

#include <bit>
#include <fstream>
#include <stdexcept>
#include <utility>

#include "apps/distance_oracle.hpp"
#include "core/decomposition_io.hpp"
#include "graph/snapshot.hpp"
#include "graph/snapshot_blocks.hpp"
#include "storage/paged_graph.hpp"
#include "support/assert.hpp"

namespace mpx {

void record_run_telemetry(obs::MetricsRegistry& registry,
                          const RunTelemetry& telemetry) {
  registry.counter("decomp.computes").add(1);
  registry.counter("decomp.rounds").add(telemetry.rounds);
  registry.counter("decomp.arcs_scanned").add(telemetry.arcs_scanned);
  registry.histogram("decomp.shift_draw").record_seconds(
      telemetry.shift_draw_seconds);
  registry.histogram("decomp.shift_rank").record_seconds(
      telemetry.shift_rank_seconds);
  registry.histogram("decomp.shift").record_seconds(telemetry.shift_seconds);
  registry.histogram("decomp.search").record_seconds(
      telemetry.search_seconds);
  registry.histogram("decomp.assemble").record_seconds(
      telemetry.assemble_seconds);
  registry.histogram("decomp.total").record_seconds(telemetry.total_seconds);
}

namespace detail {

/// In memory (unweighted or weighted) or out of core; exactly one of the
/// three graph members is set.
struct ServedGraph {
  explicit ServedGraph(CsrGraph g) : graph(std::move(g)) {}
  explicit ServedGraph(WeightedCsrGraph g)
      : wgraph(std::move(g)), weighted(true) {}
  explicit ServedGraph(std::shared_ptr<storage::PagedGraph> g)
      : paged(std::move(g)) {}

  CsrGraph graph;
  WeightedCsrGraph wgraph;
  std::shared_ptr<storage::PagedGraph> paged;
  bool weighted = false;
};

}  // namespace detail

namespace {

/// Call `f` with the graph's unweighted read surface: the paged graph, or
/// the in-memory topology (a weighted graph's topology included).
template <typename F>
auto with_topology(const detail::ServedGraph& g, F&& f) {
  if (g.paged != nullptr) return f(*g.paged);
  return f(g.weighted ? g.wgraph.topology() : g.graph);
}

/// The cut-edge list of `result` over `topology`. The scan streams each
/// adjacency list once in ascending vertex order, which is the
/// block-cache-friendly order on storage::PagedGraph.
template <typename Graph>
std::vector<Edge> compute_boundary_edges(const Graph& topology,
                                         const DecompositionResult& result) {
  std::vector<Edge> boundary;
  const std::vector<vertex_t>& owner = result.owner;
  for (vertex_t u = 0; u < topology.num_vertices(); ++u) {
    for (const vertex_t v : topology.neighbors(u)) {
      if (u < v && owner[u] != owner[v]) boundary.push_back({u, v});
    }
  }
  return boundary;
}

/// Reject weighted requests on the persistence path: the text format
/// carries no radii, so a weighted result can never round-trip through it.
void reject_weighted(const DecompositionRequest& req, const char* what) {
  const AlgorithmInfo* info = find_algorithm(req.algorithm);
  if (info != nullptr && info->needs_weights) {
    throw std::invalid_argument(std::string("mpx: ") + what +
                                " supports unweighted algorithms; '" +
                                req.algorithm +
                                "' produces real-valued radii");
  }
}

/// Probe + load + validate a save_cached() file into a result. Returns
/// false (leaving `result` untouched) when the file does not exist;
/// throws std::runtime_error on malformed content, a vertex-count
/// mismatch, or a telemetry block naming a different algorithm.
bool load_saved_result(const DecompositionRequest& req, const std::string& path,
                       vertex_t num_vertices, DecompositionResult& result) {
  {
    std::ifstream probe(path);
    if (!probe) return false;
  }
  io::LoadedDecomposition loaded = io::load_decomposition_full(path);
  if (loaded.has_telemetry && loaded.telemetry.algorithm != req.algorithm) {
    throw std::runtime_error(
        "mpx: cached decomposition in " + path + " was produced by '" +
        loaded.telemetry.algorithm + "', not the requested '" +
        req.algorithm + "'");
  }
  if (loaded.decomposition.num_vertices() != num_vertices) {
    throw std::runtime_error(
        "mpx: cached decomposition in " + path + " has " +
        std::to_string(loaded.decomposition.num_vertices()) +
        " vertices; this store's graph has " + std::to_string(num_vertices));
  }
  result.decomposition = std::move(loaded.decomposition);
  detail::owner_settle_from_decomposition(result.decomposition, result);
  if (loaded.has_telemetry) {
    result.telemetry = std::move(loaded.telemetry);
  } else {
    result.telemetry.algorithm = req.algorithm;
  }
  return true;
}

}  // namespace

// --- MaterializedDecomposition --------------------------------------------

MaterializedDecomposition::MaterializedDecomposition(
    std::shared_ptr<const detail::ServedGraph> graph,
    DecompositionResult result)
    : graph_(std::move(graph)), result_(std::move(result)) {
  MPX_EXPECTS(graph_ != nullptr);
}

MaterializedDecomposition::~MaterializedDecomposition() = default;

vertex_t MaterializedDecomposition::owner_of(vertex_t v) const {
  MPX_EXPECTS(v < result_.owner.size());
  return result_.owner[v];
}

cluster_t MaterializedDecomposition::cluster_of(vertex_t v) const {
  MPX_EXPECTS(v < result_.owner.size());
  return result_.cluster_of(v);
}

cluster_t MaterializedDecomposition::num_clusters() const {
  return result_.num_clusters();
}

std::span<const Edge> MaterializedDecomposition::boundary_arcs() const {
  return boundary_.get([this] {
    return with_topology(*graph_, [this](const auto& topology) {
      return compute_boundary_edges(topology, result_);
    });
  });
}

std::uint32_t MaterializedDecomposition::estimate_distance(vertex_t u,
                                                           vertex_t v) const {
  MPX_EXPECTS(u < result_.owner.size() && v < result_.owner.size());
  if (result_.weighted()) {
    throw std::invalid_argument(
        "mpx: estimate_distance serves unweighted algorithms; '" +
        result_.telemetry.algorithm + "' produces real-valued radii");
  }
  const DistanceOracle& oracle = oracle_.get([this] {
    return with_topology(*graph_, [this](const auto& topology) {
      return DistanceOracle(topology, result_.decomposition);
    });
  });
  return oracle.estimate(u, v);
}

// --- SharedResultStore ----------------------------------------------------

SharedResultStore::SharedResultStore(CsrGraph g)
    : graph_(std::make_shared<const detail::ServedGraph>(std::move(g))) {}

SharedResultStore::SharedResultStore(WeightedCsrGraph g)
    : graph_(std::make_shared<const detail::ServedGraph>(std::move(g))) {}

SharedResultStore::SharedResultStore(std::shared_ptr<storage::PagedGraph> g)
    : graph_(std::make_shared<const detail::ServedGraph>(std::move(g))) {
  MPX_EXPECTS(graph_->paged != nullptr);
}

SharedResultStore::~SharedResultStore() = default;

std::unique_ptr<SharedResultStore> SharedResultStore::open_snapshot(
    const std::string& path, const SessionConfig& config) {
  const io::SnapshotInfo info = io::read_snapshot_info(path);
  // Paged mode: a cold unweighted snapshot that would not fit the budget
  // materialized. Weighted cold files materialize regardless (the
  // weighted algorithms run on in-memory graphs only — SessionConfig).
  if (config.memory_budget_bytes > 0 && info.cold() && !info.weighted() &&
      info.resident_bytes_estimate() > config.memory_budget_bytes) {
    auto reader = std::make_shared<const io::SnapshotBlockReader>(path);
    return std::make_unique<SharedResultStore>(
        std::make_shared<storage::PagedGraph>(std::move(reader),
                                              config.memory_budget_bytes));
  }
  if (info.weighted()) {
    return std::make_unique<SharedResultStore>(
        io::map_weighted_snapshot(path));
  }
  return std::make_unique<SharedResultStore>(io::map_snapshot(path));
}

bool SharedResultStore::weighted() const { return graph_->weighted; }

bool SharedResultStore::paged() const { return graph_->paged != nullptr; }

const CsrGraph& SharedResultStore::topology() const {
  if (paged()) {
    throw std::logic_error(
        "mpx: topology() is unavailable on a paged store — the graph is "
        "never fully resident; use num_vertices()/num_edges() and the "
        "query surface");
  }
  return weighted() ? graph_->wgraph.topology() : graph_->graph;
}

const WeightedCsrGraph& SharedResultStore::weighted_graph() const {
  MPX_EXPECTS(weighted());
  return graph_->wgraph;
}

vertex_t SharedResultStore::num_vertices() const {
  return paged() ? graph_->paged->num_vertices() : topology().num_vertices();
}

edge_t SharedResultStore::num_edges() const {
  return paged() ? graph_->paged->num_edges() : topology().num_edges();
}

storage::ShardedBlockCache::Stats SharedResultStore::cache_stats() const {
  return paged() ? graph_->paged->cache().stats()
                 : storage::ShardedBlockCache::Stats{};
}

SharedResultStore::Key SharedResultStore::key_of(
    const DecompositionRequest& req) {
  return Key(req.algorithm, std::bit_cast<std::uint64_t>(req.beta), req.seed,
             static_cast<int>(req.tie_break),
             static_cast<int>(req.distribution),
             static_cast<int>(req.engine));
}

const ShiftBasis& SharedResultStore::basis_for_locked(
    const DecompositionRequest& req) {
  const auto key = std::make_pair(req.seed, static_cast<int>(req.distribution));
  const auto it = bases_.find(key);
  if (it != bases_.end()) return it->second;
  return bases_.emplace(key, make_shift_basis(num_vertices(),
                                              req.partition_options()))
      .first->second;
}

DecompositionResult SharedResultStore::compute_locked(
    const DecompositionRequest& req) {
  // Shift-based algorithms always run off the shared basis, so single
  // and batch acquisitions of the same request are bitwise-identical
  // (the basis-derived shifts equal the per-run draws by construction).
  const AlgorithmInfo* info = find_algorithm(req.algorithm);
  const ShiftBasis* basis =
      info != nullptr && info->uses_shifts ? &basis_for_locked(req) : nullptr;
  const detail::ServedGraph& g = *graph_;
  if (g.paged != nullptr) return decompose(*g.paged, req, &workspace_, basis);
  return g.weighted ? decompose(g.wgraph, req, &workspace_, basis)
                    : decompose(g.graph, req, &workspace_, basis);
}

SharedResultStore::Acquired SharedResultStore::acquire(
    const DecompositionRequest& req) {
  validate_request(req);
  const Key key = key_of(req);
  {
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
      const auto it = entries_.find(key);
      if (it != entries_.end()) return {it->second, /*from_cache=*/true};
      if (inflight_.insert(key).second) break;  // this thread computes
      // Another thread is computing this key: wait for it to publish (or
      // fail), then re-check. A failed compute wakes us with the key
      // absent from both maps, and the loop claims it.
      cv_.wait(lock);
    }
  }
  std::shared_ptr<const MaterializedDecomposition> built;
  try {
    std::lock_guard<std::mutex> compute(compute_mutex_);
    built = std::make_shared<const MaterializedDecomposition>(
        graph_, compute_locked(req));
    if (metrics_ != nullptr) {
      record_run_telemetry(*metrics_, built->result().telemetry);
    }
  } catch (...) {
    std::lock_guard<std::mutex> lock(mutex_);
    inflight_.erase(key);
    cv_.notify_all();
    throw;
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    entries_.emplace(key, built);
    inflight_.erase(key);
    ++computes_;
  }
  cv_.notify_all();
  return {std::move(built), /*from_cache=*/false};
}

std::vector<SharedResultStore::Acquired> SharedResultStore::acquire_batch(
    const DecompositionRequest& base, std::span<const double> betas) {
  DecompositionRequest req = base;
  for (const double beta : betas) {
    req.beta = beta;
    validate_request(req);
  }
  std::vector<Acquired> acquired;
  acquired.reserve(betas.size());
  for (const double beta : betas) {
    req.beta = beta;
    acquired.push_back(acquire(req));
  }
  return acquired;
}

std::shared_ptr<const MaterializedDecomposition> SharedResultStore::cached(
    const DecompositionRequest& req) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = entries_.find(key_of(req));
  return it != entries_.end() ? it->second : nullptr;
}

void SharedResultStore::save_cached(const DecompositionRequest& req,
                                    const std::string& path) {
  reject_weighted(req, "save_cached");
  const DecompositionResult& result = acquire(req).entry->result();
  io::save_decomposition(path, result.decomposition, result.telemetry);
}

bool SharedResultStore::load_cached(const DecompositionRequest& req,
                                    const std::string& path) {
  validate_request(req);
  reject_weighted(req, "load_cached");
  const Key key = key_of(req);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (entries_.find(key) != entries_.end()) return true;
  }
  DecompositionResult result;
  if (!load_saved_result(req, path, num_vertices(), result)) {
    return false;
  }
  auto built = std::make_shared<const MaterializedDecomposition>(
      graph_, std::move(result));
  std::lock_guard<std::mutex> lock(mutex_);
  // A concurrent load or compute may have published first; the resident
  // entry wins (results are deterministic in the request).
  entries_.emplace(key, std::move(built));
  return true;
}

std::size_t SharedResultStore::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

std::uint64_t SharedResultStore::computes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return computes_;
}

void SharedResultStore::clear() {
  // Both locks: compute_mutex_ owns bases_, mutex_ owns entries_.
  // scoped_lock's deadlock avoidance keeps the pair safe against the
  // acquire path (which never holds both at once). The shift bases are
  // cache too: one n-sized ShiftBasis per distinct (seed, distribution);
  // keeping them across a clear would leak under request-key churn.
  std::scoped_lock both(compute_mutex_, mutex_);
  entries_.clear();
  bases_.clear();
}

}  // namespace mpx
