// perfbench: the repository benchmark's executable. run.py drives it:
//
//   perfbench gen     --workload W --seed S --scale full|tiny --dir DIR
//   perfbench measure --workload W --seed S --seconds T --trace 0|1 ...
//   perfbench loadgen ...            (spawned by the serve-mix measure)
//
// Every mode prints one JSON line on stdout; README.md documents them.
#include <unistd.h>

#include <cstdio>
#include <exception>
#include <string>

#include "workloads.hpp"

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: perfbench gen|measure|loadgen --key value...\n");
    return 2;
  }
  const std::string mode = argv[1];
  try {
    const perfbench::Args args(argc, argv, 2);
    if (mode == "gen") return perfbench::run_gen(args);
    if (mode == "loadgen") return perfbench::run_loadgen(args);
    if (mode == "measure") {
      if (args.str("workload") == "serve-mix") {
        char exe[4096] = {};
        const ssize_t len = ::readlink("/proc/self/exe", exe, sizeof exe - 1);
        if (len <= 0) throw std::runtime_error("cannot locate own executable");
        return perfbench::run_serve_workload(args, std::string(exe, len));
      }
      return perfbench::run_decompose_workload(args);
    }
    std::fprintf(stderr, "unknown mode %s\n", mode.c_str());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench %s: %s\n", mode.c_str(), e.what());
    return 1;
  }
}
