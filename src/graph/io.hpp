/// \file
/// \brief Plain-text edge-list I/O and graph-file format auto-detection.
///
/// Text format: '#'-prefixed comment lines, then a header line "n m", then
/// m lines "u v" (or "u v w" for weighted graphs) with 0-based endpoints.
/// Round-trips through the builder, so files with duplicates/self-loops
/// load into canonical form. Parse failures throw std::runtime_error whose
/// message carries the 1-based line number, and — for the file-path entry
/// points — the file path ("mpx::io: graph.edges:7: bad edge: ...").
///
/// Binary snapshots (`.mpxs`, see graph/snapshot.hpp and docs/FORMATS.md)
/// are recognized by magic; `load_graph`/`load_weighted_graph` dispatch on
/// `detect_graph_format` so callers can accept either representation.
#pragma once

#include <iosfwd>
#include <string>

#include "graph/csr_graph.hpp"

namespace mpx::io {

/// Write g as an edge list (one line per undirected edge, u < v).
void write_edge_list(std::ostream& out, const CsrGraph& g);
/// Weighted overload: rows are "u v w".
void write_edge_list(std::ostream& out, const WeightedCsrGraph& g);

/// Parse an edge list written by `write_edge_list` (or hand-authored in the
/// same format). Throws std::runtime_error on malformed input; the message
/// includes the 1-based line number of the offending line.
[[nodiscard]] CsrGraph read_edge_list(std::istream& in);
/// Weighted counterpart of `read_edge_list`; rows carry a positive weight.
[[nodiscard]] WeightedCsrGraph read_weighted_edge_list(std::istream& in);

/// File-path conveniences. The writers replace the file atomically
/// (support/atomic_file.hpp) and throw std::runtime_error if it cannot be
/// written; the readers throw if it cannot be opened and rethrow parse
/// failures with "path:line:" context.
void save_edge_list(const std::string& file_path, const CsrGraph& g);
/// Weighted file-path writer.
void save_edge_list(const std::string& file_path, const WeightedCsrGraph& g);
/// Unweighted file-path reader (see `save_edge_list`).
[[nodiscard]] CsrGraph load_edge_list(const std::string& file_path);
/// Weighted file-path reader.
[[nodiscard]] WeightedCsrGraph load_weighted_edge_list(
    const std::string& file_path);

/// On-disk graph representations `detect_graph_format` can distinguish.
enum class GraphFileFormat {
  kEdgeListText,          ///< Text edge list, "u v" rows.
  kWeightedEdgeListText,  ///< Text edge list, "u v w" rows.
  kSnapshot,              ///< Binary .mpxs snapshot, unweighted.
  kWeightedSnapshot,      ///< Binary .mpxs snapshot with a weights section.
};

/// Human-readable name of a format ("edge-list", "weighted-snapshot", ...).
[[nodiscard]] std::string_view graph_file_format_name(GraphFileFormat format);

/// Sniff the on-disk format of `file_path`: binary snapshots by their
/// 8-byte magic (the header is validated), text edge lists by their first
/// edge row's column count (writer comments disambiguate empty graphs).
/// Throws std::runtime_error when the file cannot be opened or matches no
/// known format.
[[nodiscard]] GraphFileFormat detect_graph_format(const std::string& file_path);

/// Load an unweighted graph of either representation, dispatching on
/// `detect_graph_format`. Snapshots use `load_snapshot` (owned buffers;
/// pass the file through `map_snapshot` directly for the zero-copy path).
/// Throws std::runtime_error if the file is weighted.
[[nodiscard]] CsrGraph load_graph(const std::string& file_path);

/// Weighted counterpart of `load_graph`; throws if the file is unweighted.
[[nodiscard]] WeightedCsrGraph load_weighted_graph(
    const std::string& file_path);

}  // namespace mpx::io
