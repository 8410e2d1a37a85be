/// \file
/// \brief SharedResultStore: one graph, one thread-safe cache of its
/// decompositions, and the queries a decomposition service answers.
///
/// Miller–Peng–Xu produce one owner/settle pair per (graph, beta, seed);
/// the store computes each distinct request once and hands every asker
/// the same immutable `MaterializedDecomposition`. Tools, benches, the
/// examples and the server (src/server/) all serve from it.
///
///  * **Opening.** `open_snapshot(path, config)` maps a `.mpxs` snapshot
///    zero-copy (startup is O(header) + page faults), or serves it paged
///    when `SessionConfig::memory_budget_bytes` says it would not fit.
///  * **Single-flight.** When N threads ask for the same cold request, one
///    computes and the rest wait for it; `computes()` counts the actual
///    decompositions run.
///  * **Shift bases.** Shift-based algorithms always draw from a shared
///    per-(seed, distribution) `ShiftBasis`, so `acquire_batch` over a
///    beta ladder generates the random draws once, bitwise-identical to
///    individual acquires. Each beta reuses the basis's cached maximum
///    (ShiftBasis::base_max); what a basis cannot share is the rank order
///    itself — frac(delta_max - delta) moves its floor boundaries with
///    beta, so every beta's tie-break order is genuinely different (see
///    ARCHITECTURE.md, shift phase).
///  * **Lazy artifacts.** An entry answers owner/cluster queries straight
///    from its result. Its boundary edge list and its distance oracle are
///    each built at most once, on first use, by whichever thread asks
///    first; an entry nobody asks a distance of never pays for the
///    oracle's k x k table.
///  * **Lifetime.** Entries hold a shared reference to the store's graph,
///    so they stay queryable after `clear()` and after the store itself is
///    destroyed.
///  * **Persistence.** `save_cached` / `load_cached` write and restore a
///    result with its telemetry block (core/decomposition_io.hpp), the
///    server's warm-start path.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "core/decomposer.hpp"
#include "graph/builder.hpp"
#include "graph/csr_graph.hpp"
#include "obs/metrics.hpp"
#include "storage/block_cache.hpp"

namespace mpx {

class DistanceOracle;

/// Record one run's phase timings and work counters into `registry`
/// under the `decomp.*` names (docs/OBSERVABILITY.md): phase-seconds
/// histograms (shift draw/rank, search, assemble, total, in nanoseconds)
/// plus the computes/rounds/arcs-scanned counters. The server points its
/// store at its registry so cold computes feed the served phase
/// histograms.
void record_run_telemetry(obs::MetricsRegistry& registry,
                          const RunTelemetry& telemetry);

namespace storage {
class PagedGraph;
}  // namespace storage

/// How a store (or the server) opens its snapshot.
struct SessionConfig {
  /// Byte budget for decoded cold-tier blocks. 0 (default) always
  /// materializes the full graph in memory. Nonzero: when the snapshot is
  /// an unweighted cold-tier file whose full-residency estimate
  /// (io::SnapshotInfo::resident_bytes_estimate) exceeds the budget, the
  /// store serves it **paged** — only the offsets array plus at most this
  /// many bytes of decoded targets are resident at a time. Weighted cold
  /// snapshots still materialize (the weighted algorithms have not been
  /// ported to the paged traversal path); hot snapshots always map
  /// zero-copy.
  std::uint64_t memory_budget_bytes = 0;
};

namespace detail {

/// The graph a SharedResultStore serves (core/session.cpp). The store and
/// every entry it hands out share one instance.
struct ServedGraph;

/// A value built at most once, on first use, by whichever thread asks
/// first; later reads take no lock. A build that throws leaves the value
/// unbuilt, so the next caller retries (std::call_once would hang those
/// callers under ThreadSanitizer).
template <typename T>
class BuildOnce {
 public:
  template <typename Build>
  const T& get(Build&& build) const {
    if (const T* built = ready_.load(std::memory_order_acquire)) {
      return *built;
    }
    std::lock_guard<std::mutex> lock(mutex_);
    if (value_ == nullptr) {
      value_ = std::make_unique<const T>(build());
      ready_.store(value_.get(), std::memory_order_release);
    }
    return *value_;
  }

 private:
  mutable std::mutex mutex_;
  mutable std::unique_ptr<const T> value_;
  mutable std::atomic<const T*> ready_{nullptr};
};

}  // namespace detail

/// One cached decomposition and the queries it answers. Immutable from
/// the caller's side: any number of threads may query one entry
/// concurrently. The boundary list and the distance oracle are built
/// lazily (see the file comment); owner and cluster queries never wait.
class MaterializedDecomposition {
 public:
  /// Wrap `result`, computed over `graph`. Builds nothing yet.
  MaterializedDecomposition(std::shared_ptr<const detail::ServedGraph> graph,
                            DecompositionResult result);

  MaterializedDecomposition(const MaterializedDecomposition&) = delete;
  MaterializedDecomposition& operator=(const MaterializedDecomposition&) =
      delete;
  ~MaterializedDecomposition();

  [[nodiscard]] const DecompositionResult& result() const { return result_; }
  /// Center vertex that claimed v.
  [[nodiscard]] vertex_t owner_of(vertex_t v) const;
  /// Compact cluster id of v, in [0, num_clusters()).
  [[nodiscard]] cluster_t cluster_of(vertex_t v) const;
  [[nodiscard]] cluster_t num_clusters() const;
  /// The undirected edges {u, v} (u < v) whose endpoints lie in different
  /// clusters, in (u, v) order — the beta-fraction boundary of Definition
  /// 1.1. Built on the first call; later calls return the same list.
  [[nodiscard]] std::span<const Edge> boundary_arcs() const;
  /// Upper-bound estimate of dist(u, v) through the decomposition's
  /// center graph (apps/distance_oracle.hpp); kInfDist across components.
  /// The oracle is built on the first call. Throws std::invalid_argument
  /// for weighted results (they carry real-valued radii).
  [[nodiscard]] std::uint32_t estimate_distance(vertex_t u, vertex_t v) const;

 private:
  std::shared_ptr<const detail::ServedGraph> graph_;
  DecompositionResult result_;
  detail::BuildOnce<std::vector<Edge>> boundary_;
  detail::BuildOnce<DistanceOracle> oracle_;  // unweighted results only
};

/// The thread-safe cache of one graph's decompositions.
///
/// Concurrency contract:
///  - `acquire` is **single-flight** per request key: when N threads ask
///    for the same cold key, one computes and the rest block until the
///    entry publishes; `computes()` counts the actual decompositions run.
///  - Distinct cold keys serialize on one internal compute lock (the
///    store owns one `DecompositionWorkspace`, reused by every run), but
///    cache hits never touch it.
///  - Entries are handed out as `shared_ptr<const MaterializedDecomposition>`.
///    `clear()` drops the store's references; outstanding pointers (and
///    response bytes in flight that view their arrays) stay valid until
///    released.
class SharedResultStore {
 public:
  /// Serve decompositions of an unweighted graph.
  explicit SharedResultStore(CsrGraph g);
  /// Serve decompositions of a weighted graph (weighted algorithms become
  /// available; unweighted ones run on the topology).
  explicit SharedResultStore(WeightedCsrGraph g);
  /// Serve decompositions of an out-of-core paged graph. Only "mpx"
  /// computes (see the paged decompose() overload) and topology() is
  /// unavailable; the query surface works.
  explicit SharedResultStore(std::shared_ptr<storage::PagedGraph> g);
  ~SharedResultStore();

  SharedResultStore(const SharedResultStore&) = delete;
  SharedResultStore& operator=(const SharedResultStore&) = delete;

  /// Open a `.mpxs` snapshot: paged when `config` says a cold unweighted
  /// file would not fit its budget (see SessionConfig), otherwise mapped
  /// zero-copy (io::map_snapshot); the weighted flag in the header
  /// selects the graph type. Throws std::runtime_error on unreadable or
  /// corrupt snapshots.
  [[nodiscard]] static std::unique_ptr<SharedResultStore> open_snapshot(
      const std::string& path, const SessionConfig& config = {});

  /// The graph's in-memory unweighted topology. Throws std::logic_error
  /// for paged stores (use num_vertices()/num_edges()).
  [[nodiscard]] const CsrGraph& topology() const;
  /// True when the store holds edge weights.
  [[nodiscard]] bool weighted() const;
  /// The weighted graph; requires weighted().
  [[nodiscard]] const WeightedCsrGraph& weighted_graph() const;
  /// True when the store serves its graph out-of-core.
  [[nodiscard]] bool paged() const;
  /// Number of vertices, on every backend (in-memory or paged).
  [[nodiscard]] vertex_t num_vertices() const;
  /// Number of undirected edges, on every backend.
  [[nodiscard]] edge_t num_edges() const;
  /// Lifetime block-cache counters; all-zero for non-paged stores.
  [[nodiscard]] storage::ShardedBlockCache::Stats cache_stats() const;

  /// Feed every subsequent cold compute's telemetry into `registry` (see
  /// record_run_telemetry). nullptr (the default) disables recording.
  /// Call before serving; the registry must outlive the store.
  void set_metrics(obs::MetricsRegistry* registry) { metrics_ = registry; }

  /// An acquired entry plus whether it was answered without running the
  /// decomposition for this call (a prior compute, a warm-start load, or
  /// another thread's in-flight compute this call waited on).
  struct Acquired {
    std::shared_ptr<const MaterializedDecomposition> entry;
    bool from_cache = false;
  };

  /// Fetch `req`'s entry, computing it first when cold (single-flight; see
  /// the class comment). Throws what `validate_request` / `decompose`
  /// throw; a failed compute leaves the store unchanged.
  [[nodiscard]] Acquired acquire(const DecompositionRequest& req);

  /// Acquire `base` at each beta of `betas`, every beta validated up
  /// front so a bad one cannot abandon the batch half-executed. The
  /// seed's shift draws are generated once; results are bitwise-identical
  /// to individual acquire() calls.
  [[nodiscard]] std::vector<Acquired> acquire_batch(
      const DecompositionRequest& base, std::span<const double> betas);

  /// The cached entry for `req`, or nullptr when not resident. Never
  /// computes and never blocks on an in-flight compute.
  [[nodiscard]] std::shared_ptr<const MaterializedDecomposition> cached(
      const DecompositionRequest& req) const;

  // --- persistence (unweighted algorithms) ---

  /// Save `req`'s entry (acquiring it first when cold) as a decomposition
  /// file with its telemetry block, so a later store can load_cached() it
  /// instead of recomputing. Throws std::invalid_argument for weighted
  /// algorithms (the text format carries no radii).
  void save_cached(const DecompositionRequest& req, const std::string& path);
  /// Restore a save_cached() file into the store under `req` (the
  /// warm-start path). Returns false when the file does not exist; returns
  /// true without reading when `req` is already resident (results are
  /// deterministic in the request). Throws std::runtime_error on malformed
  /// content, a vertex-count mismatch with this graph, or a telemetry
  /// block naming a different algorithm than `req`; throws
  /// std::invalid_argument for weighted algorithms (mirror of
  /// save_cached).
  bool load_cached(const DecompositionRequest& req, const std::string& path);

  /// Resident entry count (in-flight computes excluded).
  [[nodiscard]] std::size_t size() const;
  /// Lifetime count of decompositions actually computed — acquire()
  /// traffic minus every flavor of cache hit.
  [[nodiscard]] std::uint64_t computes() const;
  /// Drop every resident entry and the shared shift bases — everything
  /// derived; later acquires regenerate bitwise-identical state.
  /// Outstanding shared_ptrs stay valid; a compute in flight during the
  /// clear still publishes afterwards.
  void clear();

 private:
  /// Exact request identity: algorithm, beta bit pattern, seed, and the
  /// three enums. Distinct engines are distinct entries (results are
  /// engine-invariant, but telemetry is not).
  using Key = std::tuple<std::string, std::uint64_t, std::uint64_t, int, int,
                         int>;
  static Key key_of(const DecompositionRequest& req);
  /// The shared basis for req's (seed, distribution); call with
  /// compute_mutex_ held.
  const ShiftBasis& basis_for_locked(const DecompositionRequest& req);
  /// Run `req`; call with compute_mutex_ held.
  [[nodiscard]] DecompositionResult compute_locked(
      const DecompositionRequest& req);

  std::shared_ptr<const detail::ServedGraph> graph_;

  /// Serializes decompositions (workspace_ and bases_ are only touched
  /// under this lock). Never held together with mutex_ except in clear().
  std::mutex compute_mutex_;
  DecompositionWorkspace workspace_;
  std::map<std::pair<std::uint64_t, int>, ShiftBasis> bases_;

  /// Guards entries_, inflight_, computes_.
  mutable std::mutex mutex_;
  std::condition_variable cv_;  ///< waiters for in-flight keys
  std::map<Key, std::shared_ptr<const MaterializedDecomposition>> entries_;
  std::set<Key> inflight_;
  std::uint64_t computes_ = 0;
  obs::MetricsRegistry* metrics_ = nullptr;  // not owned; may be null
};

}  // namespace mpx
