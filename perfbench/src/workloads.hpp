// Entry points of the benchmark executable's modes (see main.cpp).
#pragma once

#include <cstdint>
#include <string>

#include "common.hpp"
#include "core/decomposer.hpp"

namespace perfbench {

/// The decomposition request every workload issues: "mpx", kAuto engine,
/// the per-call seed, and beta 0.1 (serve-mix passes its own).
inline mpx::DecompositionRequest request_for(std::uint64_t seed,
                                            double beta = 0.1) {
  mpx::DecompositionRequest req;
  req.algorithm = "mpx";
  req.beta = beta;
  req.seed = seed;
  req.engine = mpx::TraversalEngine::kAuto;
  return req;
}

/// Paper bounds on one result (Miller-Peng-Xu, Theorem 1.2): the cut
/// fraction stays below beta (with a margin for one sample) and every
/// vertex settles within 3 ln n / beta + 1 rounds of its center.
/// Returns an empty string when both hold, else the reason.
std::string check_paper_bounds(const mpx::Decomposition& dec,
                               const mpx::CsrGraph& g, double beta);

/// `gen`: write the workload's inputs for a seed and print their
/// description as one JSON line.
int run_gen(const Args& args);

/// `measure` for grid-decompose, rmat-decompose and rmat-paged.
int run_decompose_workload(const Args& args);

/// `measure` for serve-mix: in-process server, separate load generator.
int run_serve_workload(const Args& args, const std::string& self_exe);

/// `loadgen`: the open-loop client process serve-mix spawns.
int run_loadgen(const Args& args);

}  // namespace perfbench
