// `perfbench measure` for the three decompose workloads:
//   grid-decompose  in-memory decompose() on grid2d_3000
//   rmat-decompose  in-memory decompose() on rmat_20
//   rmat-paged      decompose(PagedGraph) on a cold rmat_20 snapshot at a
//                   quarter of its full-residency bytes
//
// The untraced pass times whole decompose() calls. The traced pass runs
// the same seeds through the public calls decompose() makes, in its order
// (generate_shifts, the delayed multi-source BFS, then the owner/settle
// assembly) with a span around each, so per-layer times come from the
// benchmark's side of the library boundary. run.py checks that both passes
// produce the same owner/settle hash for every seed.
#include <atomic>
#include <cmath>
#include <memory>
#include <optional>

#include "bfs/multi_source_bfs.hpp"
#include "bfs/multi_source_bfs_impl.hpp"
#include "core/metrics.hpp"
#include "graph/snapshot.hpp"
#include "graph/snapshot_blocks.hpp"
#include "parallel/parallel_for.hpp"
#include "parallel/thread_env.hpp"
#include "storage/paged_graph.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using mpx::storage::PagedGraph;

/// Seeds rmat-paged cycles through (see README.md: its per-call cost
/// depends on the seed by up to 4x, so every run replays one panel).
constexpr std::uint64_t kPagedPanel[] = {1, 2, 3, 4, 5, 6};
constexpr std::size_t kPagedPanelSize = std::size(kPagedPanel);

/// One measured call.
struct Call {
  std::uint64_t seed = 0;
  double seconds = 0.0;  // whole call (untraced) or root span (traced)
  std::uint64_t hash = 0;
  // Untraced: RunTelemetry phases. Traced: the matching span durations,
  // except draw/rank: generate_shifts is one call, so its split is the one
  // the library records in ShiftWorkspace during that call.
  double shift = 0.0, draw = 0.0, rank = 0.0, search = 0.0, assemble = 0.0;
  std::uint64_t rounds = 0, pull_rounds = 0, arcs = 0;
  std::uint64_t hits = 0, misses = 0, evictions = 0;

  [[nodiscard]] std::string json() const {
    char hex[17];
    std::snprintf(hex, sizeof hex, "%016llx",
                  static_cast<unsigned long long>(hash));
    return Json()
        .integer("seed", seed)
        .num("s", seconds)
        .str("hash", hex)
        .num("shift", shift)
        .num("draw", draw)
        .num("rank", rank)
        .num("search", search)
        .num("assemble", assemble)
        .integer("rounds", rounds)
        .integer("pull_rounds", pull_rounds)
        .integer("arcs", arcs)
        .integer("hits", hits)
        .integer("misses", misses)
        .integer("evictions", evictions)
        .done();
  }
};

mpx::storage::ShardedBlockCache::Stats cache_stats(const mpx::CsrGraph&) {
  return {};
}
mpx::storage::ShardedBlockCache::Stats cache_stats(const PagedGraph& g) {
  return g.cache().stats();
}

/// decompose() as the public calls it makes, one span per layer: the
/// shift draw (generate_shifts, the same call and workspace decompose()
/// uses), the search (the graph-generic engine entry decompose() calls),
/// and the root span's self time, the owner/settle assembly. Returns the
/// compacted decomposition.
template <typename Graph>
mpx::Decomposition traced_decompose(const Graph& g,
                                    const mpx::DecompositionRequest& req,
                                    mpx::DecompositionWorkspace& ws,
                                    SpanLog& log, Call& call) {
  const mpx::PartitionOptions opt = req.partition_options();
  const mpx::vertex_t n = g.num_vertices();
  const int root = log.open("decompose");
  const int shift_span = log.open("shifts", root);
  mpx::generate_shifts(n, opt, ws.shifts, &ws.shift_scratch);
  log.close(shift_span);

  const auto before = cache_stats(g);
  const int search_span = log.open("bfs.search", root);
  mpx::MultiSourceBfsResult bfs = mpx::detail::delayed_multi_source_bfs_impl(
      g, std::span<const std::uint32_t>(ws.shifts.start_round),
      std::span<const std::uint32_t>(ws.shifts.rank), mpx::kInfDist,
      req.engine, &ws.bfs);
  log.close(search_span);
  const auto after = cache_stats(g);

  // The assembly decompose() does. It trusts the search to own every
  // vertex; here an unowned vertex raises a flag instead, so a wrong
  // search fails the call rather than the Decomposition constructor.
  std::vector<std::uint32_t> settle(n);
  std::atomic<bool> unowned{false};
  mpx::parallel_for(mpx::vertex_t{0}, n, [&](mpx::vertex_t v) {
    if (bfs.owner[v] == mpx::kInvalidVertex) {
      unowned.store(true, std::memory_order_relaxed);
      settle[v] = mpx::kInfDist;
    } else {
      settle[v] = bfs.dist_to_owner(v, ws.shifts.start_round);
    }
  });
  std::optional<mpx::Decomposition> dec;
  if (!unowned.load(std::memory_order_relaxed)) dec.emplace(bfs.owner, settle);
  log.close(root);

  call.seed = req.seed;
  call.hash = hash_result(bfs.owner, settle);
  call.draw = ws.shift_scratch.last_draw_seconds;
  call.rank = ws.shift_scratch.last_rank_seconds;
  if (log.enabled()) {
    call.seconds = log.duration(root);
    call.shift = log.duration(shift_span);
    call.search = log.duration(search_span);
    call.assemble = log.self_time(root);
  }
  call.rounds = bfs.rounds;
  call.pull_rounds = bfs.pull_rounds;
  call.arcs = bfs.arcs_scanned;
  call.hits = after.hits - before.hits;
  call.misses = after.misses - before.misses;
  call.evictions = after.evictions - before.evictions;
  if (!dec) throw std::runtime_error("search left a vertex unowned");
  return std::move(*dec);
}

Call from_result(const mpx::DecompositionResult& r, std::uint64_t seed,
                 double seconds) {
  Call call;
  call.seed = seed;
  call.seconds = seconds;
  call.hash = hash_result(r.owner, r.settle);
  call.shift = r.telemetry.shift_seconds;
  call.draw = r.telemetry.shift_draw_seconds;
  call.rank = r.telemetry.shift_rank_seconds;
  call.search = r.telemetry.search_seconds;
  call.assemble = r.telemetry.assemble_seconds;
  call.rounds = r.telemetry.rounds;
  call.pull_rounds = r.telemetry.pull_rounds;
  call.arcs = r.telemetry.arcs_scanned;
  call.hits = r.telemetry.cache_hits;
  call.misses = r.telemetry.cache_misses;
  call.evictions = r.telemetry.cache_evictions;
  return call;
}

std::uint64_t call_seed(const std::string& workload, std::uint64_t seed,
                        std::size_t i) {
  if (workload == "rmat-paged") {
    return kPagedPanel[(seed + i) % kPagedPanelSize];
  }
  return mix_seed(seed, 100 + i);
}

/// Owner/settle identity against a reference and the paper's bounds.
void verify(const Call& call, std::uint64_t reference_hash,
            const mpx::Decomposition& dec, const mpx::CsrGraph& g,
            const std::string& what, Checks& checks) {
  checks.attempted += 2;
  if (call.hash != reference_hash) {
    checks.fail("seed " + std::to_string(call.seed) + ": " + what +
                " owner/settle differ");
  }
  const std::string bounds = check_paper_bounds(dec, g, 0.1);
  if (!bounds.empty()) {
    checks.fail("seed " + std::to_string(call.seed) + ": " + bounds);
  }
}

/// The timed loop: one warm-up call on a seed no timed call uses (first
/// touch of the workspace and, paged, the block cache), then calls until
/// `seconds` pass (at least three). Untraced calls are whole decompose()
/// calls; traced calls are its layer calls under spans.
template <typename Graph>
void time_calls(const Graph& g, const std::string& workload,
                std::uint64_t seed, double seconds,
                mpx::DecompositionWorkspace& ws, SpanLog& log, Checks& checks,
                std::vector<Call>& calls) {
  (void)mpx::decompose(
      g, request_for(workload == "rmat-paged" ? 7 : mix_seed(seed, 99)), &ws);
  const double start = now_s();
  for (std::size_t i = 0; now_s() - start < seconds || i < 3; ++i) {
    const mpx::DecompositionRequest req =
        request_for(call_seed(workload, seed, i));
    ++checks.attempted;
    try {
      Call call;
      if (log.enabled()) {
        (void)traced_decompose(g, req, ws, log, call);
      } else {
        const double t0 = now_s();
        const mpx::DecompositionResult r = mpx::decompose(g, req, &ws);
        call = from_result(r, req.seed, now_s() - t0);
      }
      calls.push_back(call);
    } catch (const std::exception& e) {
      checks.fail(std::string("decompose threw: ") + e.what());
    }
  }
}

}  // namespace

std::string check_paper_bounds(const mpx::Decomposition& dec,
                               const mpx::CsrGraph& g, double beta) {
  const mpx::DecompositionStats stats = mpx::analyze(dec, g);
  // Each edge is cut with probability below beta (Theorem 1.2). One
  // sample's cut fraction concentrates near its mean only when no vertex
  // touches a sizable share of the edges: all edges at a hub share the
  // hub's arrival round, so on rmat_20 single samples reach 5x beta while
  // the mean over 100 seeds is 0.36 beta (README.md). Where every degree
  // is below m / 1000, 20% headroom covers one sample.
  mpx::vertex_t max_degree = 0;
  for (mpx::vertex_t v = 0; v < g.num_vertices(); ++v) {
    max_degree = std::max(max_degree, g.degree(v));
  }
  if (static_cast<double>(max_degree) * 1000.0 <=
          static_cast<double>(g.num_edges()) &&
      stats.cut_fraction > 1.2 * beta) {
    return "cut fraction " + std::to_string(stats.cut_fraction) +
           " above 1.2 * beta";
  }
  const double n = static_cast<double>(g.num_vertices());
  const double radius_bound = 3.0 * std::log(std::max(n, 2.0)) / beta + 1.0;
  if (static_cast<double>(stats.max_radius) > radius_bound) {
    return "max radius " + std::to_string(stats.max_radius) + " above " +
           std::to_string(radius_bound);
  }
  return "";
}

int run_decompose_workload(const Args& args) {
  const std::string workload = args.str("workload");
  const std::uint64_t seed = args.u64("seed");
  const double seconds = args.num("seconds");
  const bool traced = args.str("trace") == "1";
  const std::string snapshot = args.str("snapshot");
  const bool paged = workload == "rmat-paged";
  const mpx::ScopedNumThreads threads(static_cast<int>(args.u64("threads")));

  SpanLog log(traced);
  Checks checks;

  // --- setup: load the snapshot (or open the paged graph) several times;
  // the median is setup_s. A paged open takes ~10 ms, so it is repeated
  // more often: over five opens, the median moved by up to 30% between
  // ten-run sets of the same code.
  const int setup_reps = paged ? 15 : 3;
  std::vector<double> setup_s;
  std::optional<mpx::CsrGraph> graph;
  std::unique_ptr<PagedGraph> pgraph;
  std::uint64_t budget = 0;
  for (int r = 0; r < setup_reps; ++r) {
    const int span = log.open("graph.load");
    const double t0 = now_s();
    if (paged) {
      const mpx::io::SnapshotInfo info = mpx::io::read_snapshot_info(snapshot);
      budget = info.resident_bytes_estimate() / 4;
      pgraph = std::make_unique<PagedGraph>(
          std::make_shared<const mpx::io::SnapshotBlockReader>(snapshot),
          budget);
    } else {
      graph.reset();
      graph.emplace(mpx::io::load_snapshot(snapshot));
    }
    setup_s.push_back(now_s() - t0);
    log.close(span);
  }

  mpx::DecompositionWorkspace ws;
  std::vector<Call> calls;
  if (paged) {
    time_calls(*pgraph, workload, seed, seconds, ws, log, checks, calls);
  } else {
    time_calls(*graph, workload, seed, seconds, ws, log, checks, calls);
  }
  const double rss_mb = peak_rss_mb();

  // storage.sweep_s: one neighbors() pass over every vertex of the paged
  // graph, three times.
  std::vector<double> sweep_s;
  if (paged && traced) {
    std::uint64_t sink = 0;
    for (int r = 0; r < 3; ++r) {
      const int span = log.open("storage.sweep");
      const double t0 = now_s();
      for (mpx::vertex_t v = 0; v < pgraph->num_vertices(); ++v) {
        sink += pgraph->neighbors(v).size();
      }
      sweep_s.push_back(now_s() - t0);
      log.close(span);
    }
    ++checks.attempted;
    if (sink != 3 * 2 * pgraph->num_edges()) {
      checks.fail("paged neighbors() sweep saw the wrong arc count");
    }
  }

  // --- correctness on a sample (first and last call): the untraced pass
  // checks decompose() against its layer-by-layer composition (in memory)
  // or against in-memory decompose() of the same graph (paged), then the
  // paper's bounds. The traced pass is compared seed by seed by run.py.
  if (!traced && !calls.empty()) {
    std::vector<const Call*> sample = {&calls.front()};
    if (calls.size() > 1) sample.push_back(&calls.back());
    if (paged) {
      const mpx::CsrGraph in_memory = mpx::io::load_snapshot(snapshot);
      mpx::DecompositionWorkspace mem_ws;
      for (const Call* call : sample) {
        const mpx::DecompositionResult r =
            mpx::decompose(in_memory, request_for(call->seed), &mem_ws);
        verify(*call, hash_result(r.owner, r.settle), r.decomposition,
               in_memory, "paged vs in-memory", checks);
      }
    } else {
      SpanLog quiet(false);
      for (const Call* call : sample) {
        Call composed;
        const mpx::Decomposition dec = traced_decompose(
            *graph, request_for(call->seed), ws, quiet, composed);
        verify(*call, composed.hash, dec, *graph,
               "decompose() vs its layer calls", checks);
      }
    }
  }

  if (traced) {
    log.write_chrome_json(args.str("trace-out"));
  }

  std::string calls_json = "[";
  for (std::size_t i = 0; i < calls.size(); ++i) {
    if (i > 0) calls_json += ',';
    calls_json += calls[i].json();
  }
  calls_json += "]";
  const double n = paged ? pgraph->num_vertices() : graph->num_vertices();
  const double m = paged ? pgraph->num_edges() : graph->num_edges();

  Json out;
  out.str("workload", workload)
      .boolean("traced", traced)
      .nums("setup_s", setup_s)
      .num("peak_rss_mb", rss_mb)
      .raw("calls", calls_json)
      .integer("panel", paged ? kPagedPanelSize : 0)
      .nums("sweep_s", sweep_s)
      .integer("attempted", checks.attempted)
      .integer("failed", checks.failed)
      .raw("messages", checks.messages_json())
      .raw("env", Json()
                      .integer("omp_threads", mpx::max_threads())
                      .integer("server_workers", 0)
                      .num("n", n)
                      .num("m", m)
                      .integer("paged_budget_bytes", budget)
                      .done());
  std::printf("%s\n", out.done().c_str());
  return 0;
}

}  // namespace perfbench
