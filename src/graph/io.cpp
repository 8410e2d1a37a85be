#include "graph/io.hpp"

#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "graph/builder.hpp"
#include "graph/snapshot.hpp"
#include "support/atomic_file.hpp"

namespace mpx::io {
namespace {

/// Parse failure carrying the 1-based line number, so the file-path entry
/// points can rebuild the message with "path:line:" context.
class EdgeListParseError : public std::runtime_error {
 public:
  EdgeListParseError(std::uint64_t line, const std::string& what)
      : std::runtime_error("mpx::io: malformed edge list (line " +
                           std::to_string(line) + "): " + what),
        line_(line),
        bare_(what) {}

  [[nodiscard]] std::uint64_t line() const { return line_; }
  [[nodiscard]] const std::string& bare() const { return bare_; }

 private:
  std::uint64_t line_;
  std::string bare_;
};

/// Skip comments and return the next content line; false at EOF.
/// `line_no` tracks the 1-based number of the returned line.
bool next_content_line(std::istream& in, std::string& line,
                       std::uint64_t& line_no) {
  while (std::getline(in, line)) {
    ++line_no;
    if (!line.empty() && line[0] != '#') return true;
  }
  return false;
}

[[noreturn]] void malformed(std::uint64_t line_no, const std::string& what) {
  throw EdgeListParseError(line_no, what);
}

/// Re-throws a parse error with file-path context, in the familiar
/// "path:line: message" shape compilers use.
template <typename Fn>
auto with_path_context(const std::string& file_path, Fn&& fn) {
  try {
    return fn();
  } catch (const EdgeListParseError& e) {
    throw std::runtime_error("mpx::io: " + file_path + ":" +
                             std::to_string(e.line()) + ": " + e.bare());
  }
}

std::ifstream open_or_fail(const std::string& file_path) {
  std::ifstream in(file_path);
  if (!in) throw std::runtime_error("mpx::io: cannot open " + file_path);
  return in;
}

}  // namespace

void write_edge_list(std::ostream& out, const CsrGraph& g) {
  out << "# mpx edge list (unweighted)\n";
  out << g.num_vertices() << ' ' << g.num_edges() << '\n';
  for (vertex_t u = 0; u < g.num_vertices(); ++u) {
    for (const vertex_t v : g.neighbors(u)) {
      if (u < v) out << u << ' ' << v << '\n';
    }
  }
}

void write_edge_list(std::ostream& out, const WeightedCsrGraph& g) {
  out << "# mpx edge list (weighted)\n";
  out << g.num_vertices() << ' ' << g.num_edges() << '\n';
  for (vertex_t u = 0; u < g.num_vertices(); ++u) {
    const auto nbrs = g.neighbors(u);
    const auto ws = g.arc_weights(u);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      if (u < nbrs[i]) out << u << ' ' << nbrs[i] << ' ' << ws[i] << '\n';
    }
  }
}

CsrGraph read_edge_list(std::istream& in) {
  std::string line;
  std::uint64_t line_no = 0;
  if (!next_content_line(in, line, line_no)) {
    malformed(line_no, "missing header");
  }
  std::istringstream header(line);
  std::uint64_t n = 0;
  std::uint64_t m = 0;
  if (!(header >> n >> m)) malformed(line_no, "bad header: " + line);
  std::vector<Edge> edges;
  edges.reserve(m);
  for (std::uint64_t i = 0; i < m; ++i) {
    if (!next_content_line(in, line, line_no)) {
      malformed(line_no, "unexpected EOF: expected " + std::to_string(m) +
                             " edges, got " + std::to_string(i));
    }
    std::istringstream row(line);
    std::uint64_t u = 0;
    std::uint64_t v = 0;
    if (!(row >> u >> v)) malformed(line_no, "bad edge: " + line);
    if (u >= n || v >= n) {
      malformed(line_no, "endpoint out of range: " + line);
    }
    edges.push_back({static_cast<vertex_t>(u), static_cast<vertex_t>(v)});
  }
  return build_undirected(static_cast<vertex_t>(n),
                          std::span<const Edge>(edges));
}

WeightedCsrGraph read_weighted_edge_list(std::istream& in) {
  std::string line;
  std::uint64_t line_no = 0;
  if (!next_content_line(in, line, line_no)) {
    malformed(line_no, "missing header");
  }
  std::istringstream header(line);
  std::uint64_t n = 0;
  std::uint64_t m = 0;
  if (!(header >> n >> m)) malformed(line_no, "bad header: " + line);
  std::vector<WeightedEdge> edges;
  edges.reserve(m);
  for (std::uint64_t i = 0; i < m; ++i) {
    if (!next_content_line(in, line, line_no)) {
      malformed(line_no, "unexpected EOF: expected " + std::to_string(m) +
                             " edges, got " + std::to_string(i));
    }
    std::istringstream row(line);
    std::uint64_t u = 0;
    std::uint64_t v = 0;
    double w = 0.0;
    if (!(row >> u >> v >> w)) malformed(line_no, "bad weighted edge: " + line);
    if (u >= n || v >= n) {
      malformed(line_no, "endpoint out of range: " + line);
    }
    if (!(w > 0.0)) malformed(line_no, "non-positive weight: " + line);
    edges.push_back({static_cast<vertex_t>(u), static_cast<vertex_t>(v), w});
  }
  return build_undirected_weighted(static_cast<vertex_t>(n),
                                   std::span<const WeightedEdge>(edges));
}

void save_edge_list(const std::string& file_path, const CsrGraph& g) {
  write_file_atomically(file_path,
                        [&](std::ostream& out) { write_edge_list(out, g); });
}

void save_edge_list(const std::string& file_path, const WeightedCsrGraph& g) {
  write_file_atomically(file_path,
                        [&](std::ostream& out) { write_edge_list(out, g); });
}

CsrGraph load_edge_list(const std::string& file_path) {
  std::ifstream in = open_or_fail(file_path);
  return with_path_context(file_path, [&] { return read_edge_list(in); });
}

WeightedCsrGraph load_weighted_edge_list(const std::string& file_path) {
  std::ifstream in = open_or_fail(file_path);
  return with_path_context(file_path,
                           [&] { return read_weighted_edge_list(in); });
}

std::string_view graph_file_format_name(GraphFileFormat format) {
  switch (format) {
    case GraphFileFormat::kEdgeListText:
      return "edge-list";
    case GraphFileFormat::kWeightedEdgeListText:
      return "weighted-edge-list";
    case GraphFileFormat::kSnapshot:
      return "snapshot";
    case GraphFileFormat::kWeightedSnapshot:
      return "weighted-snapshot";
  }
  return "unknown";
}

GraphFileFormat detect_graph_format(const std::string& file_path) {
  {
    std::ifstream probe(file_path, std::ios::binary);
    if (!probe) throw std::runtime_error("mpx::io: cannot open " + file_path);
    unsigned char magic[sizeof(kSnapshotMagic)] = {};
    probe.read(reinterpret_cast<char*>(magic), sizeof(magic));
    if (probe.gcount() == sizeof(magic) &&
        std::memcmp(magic, kSnapshotMagic, sizeof(magic)) == 0) {
      // Validates the header too, so a truncated snapshot fails here
      // rather than deep inside a loader.
      const SnapshotInfo info = read_snapshot_info(file_path);
      return info.weighted() ? GraphFileFormat::kWeightedSnapshot
                             : GraphFileFormat::kSnapshot;
    }
  }

  // Text: remember the writer's "(weighted)" comment tag (the only signal
  // for empty graphs), then count columns of the first edge row.
  std::ifstream in = open_or_fail(file_path);
  return with_path_context(file_path, [&] {
    bool weighted_comment = false;
    std::string line;
    std::uint64_t line_no = 0;
    bool have_header = false;
    while (std::getline(in, line)) {
      ++line_no;
      if (!line.empty() && line[0] == '#') {
        if (line.find("(weighted)") != std::string::npos) {
          weighted_comment = true;
        }
        continue;
      }
      if (line.empty()) continue;
      if (!have_header) {
        have_header = true;
        continue;
      }
      // First edge row: 2 columns = unweighted, 3 = weighted.
      std::istringstream row(line);
      std::string u, v, w;
      if (!(row >> u >> v)) malformed(line_no, "bad edge: " + line);
      return (row >> w) ? GraphFileFormat::kWeightedEdgeListText
                        : GraphFileFormat::kEdgeListText;
    }
    if (!have_header) malformed(line_no, "missing header");
    return weighted_comment ? GraphFileFormat::kWeightedEdgeListText
                            : GraphFileFormat::kEdgeListText;
  });
}

CsrGraph load_graph(const std::string& file_path) {
  switch (detect_graph_format(file_path)) {
    case GraphFileFormat::kEdgeListText:
      return load_edge_list(file_path);
    case GraphFileFormat::kSnapshot:
      return load_snapshot(file_path);
    case GraphFileFormat::kWeightedEdgeListText:
    case GraphFileFormat::kWeightedSnapshot:
      throw std::runtime_error("mpx::io: " + file_path +
                               ": weighted graph file; use "
                               "load_weighted_graph");
  }
  throw std::runtime_error("mpx::io: " + file_path + ": unknown format");
}

WeightedCsrGraph load_weighted_graph(const std::string& file_path) {
  switch (detect_graph_format(file_path)) {
    case GraphFileFormat::kWeightedEdgeListText:
      return load_weighted_edge_list(file_path);
    case GraphFileFormat::kWeightedSnapshot:
      return load_weighted_snapshot(file_path);
    case GraphFileFormat::kEdgeListText:
    case GraphFileFormat::kSnapshot:
      throw std::runtime_error("mpx::io: " + file_path +
                               ": unweighted graph file; use load_graph");
  }
  throw std::runtime_error("mpx::io: " + file_path + ": unknown format");
}

}  // namespace mpx::io
