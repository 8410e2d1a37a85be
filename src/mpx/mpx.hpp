/// \file
/// \brief Umbrella header: the full public API of the mpx library.
///
/// mpx implements "Parallel Graph Decompositions Using Random Shifts"
/// (Miller, Peng, Xu — SPAA 2013): a one-shot parallel algorithm computing
/// (beta, O(log n / beta)) strong-diameter decompositions of undirected
/// unweighted graphs in O(m) work, plus the substrates it builds on and the
/// applications it feeds. See docs/ARCHITECTURE.md for the layer map.
///
/// Typical use — every algorithm answers one request shape through the
/// decomposer facade (core/decomposer.hpp):
/// \code
///   #include "mpx/mpx.hpp"
///   mpx::CsrGraph g = mpx::generators::grid2d(1000, 1000);
///   mpx::DecompositionRequest req{.algorithm = "mpx", .beta = 0.01,
///                                 .seed = 42};
///   mpx::DecompositionResult result = mpx::decompose(g, req);
///   mpx::DecompositionStats stats = mpx::analyze(result.decomposition, g);
/// \endcode
///
/// Serving many decompositions of one graph: mpx::SharedResultStore
/// (core/session.hpp) is the one result cache. It computes each request
/// once (single-flight across threads), batches multi-beta runs (shift
/// draws generated once per seed), and hands out entries that answer
/// cluster/boundary/distance queries, building the boundary list and the
/// distance oracle lazily on first use. Open it straight from a `.mpxs`
/// snapshot with SharedResultStore::open_snapshot (zero-copy mmap, or
/// paged under a memory budget).
///
/// The pre-facade entry points (mpx::partition, mpx::weighted_partition,
/// mpx::ball_growing_decomposition, mpx::bgkmpt_decomposition) remain as
/// thin compatibility wrappers with byte-identical output; prefer
/// mpx::decompose in new code. The integer-weighted parallel partition
/// has no such wrapper: it is reached only as decompose(g, {.algorithm =
/// "mpx-bucketed"}), which runs it on the same traversal engine as "mpx".
#pragma once

/// \namespace mpx
/// \brief All library symbols: graph types, parallel primitives, the MPX
/// partition, baselines and applications (docs/ARCHITECTURE.md).

/// \namespace mpx::io
/// \brief On-disk graph formats: text edge lists, binary mmap-able
/// snapshots, decomposition files (docs/FORMATS.md).

/// \namespace mpx::generators
/// \brief Deterministic graph family generators for tests and benches.

// Support (S1)
#include "support/assert.hpp"
#include "support/random.hpp"
#include "support/timer.hpp"
#include "support/types.hpp"

// Parallel primitives (S2)
#include "parallel/atomics.hpp"
#include "parallel/pack.hpp"
#include "parallel/parallel_for.hpp"
#include "parallel/reduce.hpp"
#include "parallel/scan.hpp"
#include "parallel/sort.hpp"
#include "parallel/thread_env.hpp"

// Graphs (S3)
#include "graph/builder.hpp"
#include "graph/components.hpp"
#include "graph/csr_graph.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "graph/snapshot.hpp"
#include "graph/stats.hpp"
#include "graph/subgraph.hpp"

// BFS engines (S4)
#include "bfs/frontier.hpp"
#include "bfs/multi_source_bfs.hpp"
#include "bfs/parallel_bfs.hpp"
#include "bfs/sequential_bfs.hpp"
#include "bfs/traversal.hpp"

// The MPX partition (S5)
#include "core/decomposer.hpp"
#include "core/decomposition.hpp"
#include "core/decomposition_io.hpp"
#include "core/exact_partition.hpp"
#include "core/metrics.hpp"
#include "core/options.hpp"
#include "core/partition.hpp"
#include "core/session.hpp"
#include "core/shifts.hpp"
#include "core/verify.hpp"
#include "core/weighted_partition.hpp"

// Baselines (S6, S7)
#include "baselines/ball_growing.hpp"
#include "baselines/bgkmpt.hpp"

// Applications (S8)
#include "apps/block_decomposition.hpp"
#include "apps/conductance.hpp"
#include "apps/distance_oracle.hpp"
#include "apps/contraction.hpp"
#include "apps/laplacian.hpp"
#include "apps/low_stretch_tree.hpp"
#include "apps/solver.hpp"
#include "apps/spanner.hpp"
#include "apps/tree_embedding.hpp"

// Observability (S9): metrics registry and trace recorder
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

// Visualization (S9)
#include "viz/grid_render.hpp"
#include "viz/palette.hpp"
#include "viz/ppm.hpp"

// The decomposition service (S10): wire protocol, server, client
#include "server/client.hpp"
#include "server/protocol.hpp"
#include "server/server.hpp"
