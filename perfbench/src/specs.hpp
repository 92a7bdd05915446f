// The solve recipes the workloads and the layer suite share. Every solve is
// built here from a seed the benchmark derives; the library sees only the
// resulting spec.
#pragma once

#include <cmath>
#include <cstdint>
#include <optional>
#include <string>

#include "netlist/netlist.hpp"
#include "service/codec.hpp"
#include "solver/solver.hpp"

namespace perfbench {

/// tabu-scale10k / shared-scale10k: tabu parameters scaled to the circuit
/// (tenure sqrt(n)/2, sqrt(n) candidates per level), stopping at a target
/// quality a seed reaches after about 40 iterations (at most 80 over 2000
/// seeds). Every seed must reach it: the cap is far beyond that tail.
inline constexpr double kTabuTargetQuality = 0.285;
inline constexpr std::size_t kTabuIterationCap = 5000;
inline constexpr std::size_t kSharedThreads = 2;

/// anneal-c3540: the full cooling schedule, shortened (150 moves per
/// temperature, factor 0.8) so one solve is sub-second; its best must reach
/// a quality floor (the worst of 1500 seeds reached 0.40, the median 0.54).
inline constexpr std::size_t kAnnealMovesPerTemp = 150;
inline constexpr double kAnnealCooling = 0.8;
inline constexpr double kAnnealQualityFloor = 0.30;

/// serve-eco: small c532 tabu solves with paper parameters, stopping at a
/// target quality reached after about 30 iterations (at most 216 over 20000
/// seeds; the cap is far beyond that tail).
inline constexpr const char* kServeCircuit = "c532";
inline constexpr double kServeTargetQuality = 0.40;
inline constexpr std::size_t kServeIterationCap = 5000;

inline pts::solver::SolveSpec scaled_tabu_spec(const pts::netlist::Netlist& nl,
                                               std::uint64_t seed,
                                               std::size_t threads) {
  pts::solver::SolveSpec spec;
  spec.engine = threads == 0 ? "tabu" : "parallel-shared";
  spec.netlist = &nl;
  spec.seed = seed;
  const double root = std::sqrt(static_cast<double>(nl.num_movable()));
  spec.tabu.tenure = static_cast<std::size_t>(root / 2.0);
  spec.tabu.compound.width = static_cast<std::size_t>(root);
  spec.tabu.compound.depth = 3;
  spec.tabu.compound.batch = 8;
  spec.tabu.iterations = kTabuIterationCap;
  spec.stop.target_quality = kTabuTargetQuality;
  if (threads != 0) spec.shared.threads = threads;
  return spec;
}

inline pts::solver::SolveSpec anneal_spec(const pts::netlist::Netlist& nl,
                                          std::uint64_t seed) {
  pts::solver::SolveSpec spec;
  spec.engine = "anneal";
  spec.netlist = &nl;
  spec.seed = seed;
  spec.anneal.moves_per_temp = kAnnealMovesPerTemp;
  spec.anneal.cooling = kAnnealCooling;
  return spec;
}

inline pts::service::JobRequest serve_job(std::uint64_t seed) {
  pts::service::JobRequest job;
  job.circuit = kServeCircuit;
  job.spec.engine = "tabu";
  job.spec.seed = seed;
  job.spec.tabu.iterations = kServeIterationCap;
  job.spec.stop.target_quality = kServeTargetQuality;
  return job;
}

/// Empty when a result reached what its recipe asks: the target quality
/// for the tabu-family engines, the quality floor after a completed
/// schedule for anneal.
inline std::optional<std::string> check_reached(const std::string& engine,
                                                pts::StopReason stop,
                                                double best_quality,
                                                double target) {
  const pts::StopReason want = engine == "anneal" ? pts::StopReason::Completed
                                                  : pts::StopReason::TargetQuality;
  if (stop != want) {
    return std::string("stopped by ") + pts::stop_reason_name(stop) + " before quality " +
           std::to_string(target);
  }
  if (best_quality < target) {
    return "best quality " + std::to_string(best_quality) + " below " +
           std::to_string(target);
  }
  return std::nullopt;
}

}  // namespace perfbench
