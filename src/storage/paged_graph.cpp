#include "storage/paged_graph.hpp"

#include <atomic>
#include <mutex>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>

namespace mpx::storage {
namespace {

/// Process-wide registry of live PagedGraph ids, so thread-local lens
/// maps can drop entries for destroyed graphs instead of growing without
/// bound in long-lived worker threads.
class GraphIdRegistry {
 public:
  static GraphIdRegistry& instance() {
    static GraphIdRegistry registry;
    return registry;
  }

  std::uint64_t acquire() {
    const std::uint64_t id = next_.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(mutex_);
    live_.insert(id);
    return id;
  }

  void release(std::uint64_t id) {
    std::lock_guard<std::mutex> lock(mutex_);
    live_.erase(id);
  }

  bool is_live(std::uint64_t id) {
    std::lock_guard<std::mutex> lock(mutex_);
    return live_.contains(id);
  }

 private:
  std::atomic<std::uint64_t> next_{1};
  std::mutex mutex_;
  std::unordered_set<std::uint64_t> live_;
};

}  // namespace

PagedGraph::PagedGraph(std::shared_ptr<const io::SnapshotBlockReader> reader,
                       std::uint64_t cache_budget_bytes,
                       std::size_t num_shards)
    : reader_(std::move(reader)),
      id_(GraphIdRegistry::instance().acquire()) {
  MPX_EXPECTS(reader_ != nullptr);
  cache_ = std::make_shared<ShardedBlockCache>(reader_, cache_budget_bytes,
                                               num_shards);
}

PagedGraph::~PagedGraph() { GraphIdRegistry::instance().release(id_); }

PagedGraph::Lens& PagedGraph::lens() const {
  // One lens per (thread, live graph). The map is function-static
  // thread_local so the hot path is a single hash lookup; stale entries
  // (graphs since destroyed) are swept when the map grows past a small
  // bound, keeping long-lived worker threads from accumulating pins of
  // dead graphs.
  thread_local std::unordered_map<std::uint64_t, Lens> lenses;
  constexpr std::size_t kSweepThreshold = 32;
  auto it = lenses.find(id_);
  if (it == lenses.end()) {
    if (lenses.size() >= kSweepThreshold) {
      auto& registry = GraphIdRegistry::instance();
      for (auto stale = lenses.begin(); stale != lenses.end();) {
        if (!registry.is_live(stale->first)) {
          stale = lenses.erase(stale);
        } else {
          ++stale;
        }
      }
    }
    it = lenses.emplace(id_, Lens{}).first;
  }
  return it->second;
}

std::span<const vertex_t> PagedGraph::neighbors(vertex_t v) const {
  MPX_EXPECTS(v < num_vertices());
  const auto offsets = reader_->offsets();
  const edge_t begin = offsets[v];
  const edge_t end = offsets[v + 1];
  if (begin == end) return {};

  Lens& lens = this->lens();
  const std::size_t first_block = reader_->block_of_arc(begin);
  const std::size_t last_block = reader_->block_of_arc(end - 1);
  if (first_block == last_block) {
    // Whole run inside one block: serve a zero-copy subspan of the pin.
    lens.pin = cache_->pin(first_block);
    const edge_t block_begin = reader_->block_arc_begin(first_block);
    return {lens.pin->data() + (begin - block_begin),
            static_cast<std::size_t>(end - begin)};
  }
  // Run crosses block boundaries: stitch the overlapping slices into the
  // lens scratch. Each block is pinned only while its slice is copied.
  lens.scratch.clear();
  lens.scratch.reserve(static_cast<std::size_t>(end - begin));
  for (std::size_t b = first_block; b <= last_block; ++b) {
    const BlockPin pin = cache_->pin(b);
    const edge_t block_begin = reader_->block_arc_begin(b);
    const edge_t block_end =
        block_begin + static_cast<edge_t>(reader_->block_arc_count(b));
    const edge_t lo = begin > block_begin ? begin : block_begin;
    const edge_t hi = end < block_end ? end : block_end;
    lens.scratch.insert(lens.scratch.end(),
                        pin->data() + (lo - block_begin),
                        pin->data() + (hi - block_begin));
  }
  lens.pin.reset();
  return {lens.scratch.data(), lens.scratch.size()};
}

PagedWeightedGraph::PagedWeightedGraph(
    std::shared_ptr<const io::SnapshotBlockReader> reader,
    std::uint64_t cache_budget_bytes, std::size_t num_shards)
    : graph_(reader, cache_budget_bytes, num_shards) {
  if (!graph_.reader().weighted()) {
    throw std::invalid_argument(
        "mpx::storage: PagedWeightedGraph requires a weighted snapshot");
  }
  weights_ = graph_.reader().verified_weights();
}

}  // namespace mpx::storage
