// Quickstart: place a benchmark circuit through the pts::solver front door.
//
// Any registered engine runs through the same Solver call and returns the
// same SolveResult; --progress streams improvements via an Observer, and
// --max-seconds / --target-cost demonstrate StopConditions. Unknown
// options are rejected with a usage message (strict CLI).
#include <cstdio>

#include "experiments/workloads.hpp"
#include "solver/solver.hpp"
#include "support/cli.hpp"
#include "support/log.hpp"

namespace {

constexpr const char kUsage[] =
    "usage: quickstart [--engine parallel-sim] [--circuit c532]\n"
    "                  [--tsws 4] [--clws 2] [--seed 7] [--full] [--progress]\n"
    "                  [--max-seconds S] [--target-cost C] [--list-engines]\n"
    "                  [--help]\n"
    "engines: any registry entry printed by --list-engines.\n";

class PrintProgress : public pts::Observer {
 public:
  void on_improvement(const pts::Progress& progress) override {
    std::printf("  improved @ iteration %zu (t=%.3f): best cost %.4f\n",
                progress.iteration, progress.seconds, progress.best_cost);
  }
};

}  // namespace

int main(int argc, char** argv) {
  const pts::Cli cli(argc, argv);
  pts::set_log_level(pts::LogLevel::Warn);
  if (cli.get_flag("help")) {
    std::fputs(kUsage, stdout);
    return 0;
  }
  if (cli.get_flag("list-engines")) {
    for (const auto& name : pts::solver::Solver::engines()) {
      const auto* engine = pts::solver::find_engine(name);
      std::printf("%-18s %s\n", name.c_str(),
                  std::string(engine->description()).c_str());
    }
    return 0;
  }

  const std::string circuit_name = cli.get("circuit", "c532");
  const std::string engine = cli.get("engine", "parallel-sim");
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 7));
  const bool full = cli.get_flag("full");
  const auto tsws = static_cast<std::size_t>(cli.get_int("tsws", 4));
  const auto clws = static_cast<std::size_t>(cli.get_int("clws", 2));
  const double max_seconds = cli.get_double("max-seconds", 0.0);
  const bool has_target = cli.has("target-cost");
  const double target_cost = cli.get_double("target-cost", 0.0);
  const bool progress = cli.get_flag("progress");
  cli.reject_unused(kUsage);

  const auto& circuit = pts::experiments::circuit(circuit_name);
  std::printf("circuit %s: %zu cells, %zu nets, %zu pads, logic depth %zu\n",
              circuit.name().c_str(), circuit.num_movable(), circuit.num_nets(),
              circuit.pad_cells().size(), circuit.logic_depth());

  auto spec = pts::experiments::base_spec(circuit, engine, seed, !full);
  spec.parallel.num_tsws = tsws;
  spec.parallel.clws_per_tsw = clws;
  spec.stop.max_seconds = max_seconds;
  if (has_target) spec.stop.target_cost = target_cost;
  PrintProgress print_progress;
  if (progress) spec.observer = &print_progress;

  const pts::solver::Solver solver;
  if (const auto errors = solver.validate(spec); !errors.empty()) {
    for (const auto& error : errors) {
      std::fprintf(stderr, "error: %s\n", error.c_str());
    }
    std::fputs(kUsage, stderr);
    return 2;
  }
  const auto result = solver.solve(spec);

  const bool virtual_clock = engine == "parallel-sim";
  std::printf("engine            : %s\n", result.engine.c_str());
  std::printf("initial cost      : %.4f\n", result.initial_cost);
  std::printf("best cost         : %.4f\n", result.best_cost);
  std::printf("best quality (mu) : %.4f\n", result.best_quality);
  std::printf("wirelength        : %.1f\n", result.best_objectives.wirelength);
  std::printf("critical delay    : %.3f\n", result.best_objectives.delay);
  std::printf("area              : %.1f\n", result.best_objectives.area);
  std::printf("makespan          : %.3f %s\n", result.makespan,
              virtual_clock ? "virtual s" : "s (wall)");
  std::printf("iterations        : %zu (accepted %zu, tabu-rejected %zu, aspirated %zu)\n",
              result.stats.iterations, result.stats.accepted,
              result.stats.rejected_tabu, result.stats.aspirated);
  std::printf("stop reason       : %s\n",
              pts::stop_reason_name(result.stop_reason));
  return 0;
}
