// `perfbench gen`: writes a workload's inputs from its seed. Runs in its
// own process, so the process that measures never holds the generated
// graph and its peak RSS is the program's alone.
#include <filesystem>
#include <string>
#include <vector>

#include "graph/generators.hpp"
#include "graph/snapshot.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace fs = std::filesystem;

struct GraphSpec {
  std::string name;
  bool is_grid = false;
  unsigned size = 0;  // grid side, or rmat scale
  std::uint64_t rmat_seed = 0;
};

mpx::CsrGraph build(const GraphSpec& spec) {
  return spec.is_grid ? mpx::generators::grid2d(spec.size, spec.size)
                      : mpx::generators::rmat(spec.size, 8.0, spec.rmat_seed);
}

/// Writes through a temporary name so an interrupted run never leaves a
/// torn file under a name a later run reuses.
template <typename Write>
void write_atomically(const std::string& path, Write&& write) {
  const std::string tmp = path + ".tmp";
  write(tmp);
  fs::rename(tmp, path);
}

}  // namespace

int run_gen(const Args& args) {
  const std::string workload = args.str("workload");
  const std::uint64_t seed = args.u64("seed");
  const bool tiny = args.str_or("scale", "full") == "tiny";
  const std::string dir = args.str("dir");
  fs::create_directories(dir);

  GraphSpec spec;
  bool cold = false;
  // Seed-independent inputs are kept between runs; the rest are listed
  // under "temp" for run.py to delete when the run ends.
  bool reusable = false;
  if (workload == "grid-decompose") {
    spec = {tiny ? "grid2d_64" : "grid2d_3000", true, tiny ? 64u : 3000u, 0};
    reusable = true;
  } else if (workload == "rmat-decompose") {
    spec = {tiny ? "rmat_12" : "rmat_20", false, tiny ? 12u : 20u,
            mix_seed(seed, 1)};
  } else if (workload == "serve-mix") {
    // grid2d_1000, the graph bench_server serves: every stored result
    // carries a k x k distance-oracle table, and rmat_20's k = ~500K
    // clusters cannot be materialized (see README.md).
    spec = {tiny ? "grid2d_48" : "grid2d_1000", true, tiny ? 48u : 1000u, 0};
    reusable = true;
  } else if (workload == "rmat-paged") {
    // The reference rmat_20 of the repository's benches (generator seed
    // 1); see README.md for why this workload fixes its inputs.
    spec = {tiny ? "rmat_12" : "rmat_20", false, tiny ? 12u : 20u, 1};
    cold = true;
    reusable = true;
  } else {
    throw std::invalid_argument("unknown workload " + workload);
  }

  const std::string stem =
      dir + "/" + spec.name + (reusable ? "" : "_s" + std::to_string(seed));
  const std::string snapshot = stem + (cold ? "_cold.mpxs" : ".mpxs");
  std::vector<std::string> temp;
  if (!reusable) temp.push_back(snapshot);

  const double t0 = now_s();
  if (!fs::exists(snapshot)) {
    const mpx::CsrGraph g = build(spec);
    write_atomically(snapshot, [&](const std::string& path) {
      mpx::io::SnapshotWriteOptions options;
      options.tier =
          cold ? mpx::io::SnapshotTier::kCold : mpx::io::SnapshotTier::kHot;
      mpx::io::save_snapshot(path, g, options);
    });
  }

  const mpx::io::SnapshotInfo info = mpx::io::read_snapshot_info(snapshot);
  std::string temp_json = "[";
  for (std::size_t i = 0; i < temp.size(); ++i) {
    temp_json += std::string(i == 0 ? "" : ",") + "\"" + temp[i] + "\"";
  }
  temp_json += "]";
  std::printf("%s\n", Json()
                          .str("graph", spec.name)
                          .integer("n", info.num_vertices)
                          .integer("m", info.num_arcs / 2)
                          .str("snapshot", snapshot)
                          .str("tier", cold ? "cold" : "hot")
                          .integer("resident_bytes",
                                   info.resident_bytes_estimate())
                          .num("gen_s", now_s() - t0)
                          .raw("temp", temp_json)
                          .done()
                          .c_str());
  return 0;
}

}  // namespace perfbench
