// Demonstration of the heterogeneity mechanism on the emulated cluster,
// driven through the pts::solver front door ("parallel-sim").
//
// Runs the same search twice on an emulated 12-machine cluster (7 fast /
// 3 medium / 2 slow): once with parents waiting for all children
// (homogeneous run) and once with the paper's half-force rule
// (heterogeneous run). Prints the virtual-time makespans — the half-force
// run finishes earlier because the fast machines no longer idle behind the
// slow ones, which is the paper's §4.2 effect end to end (exit status 1 if
// it does not show). Virtual time makes the comparison deterministic and
// independent of the host's cores; bench/fig11_heterogeneity sweeps it over
// the paper circuits.
#include <cstdio>

#include "experiments/workloads.hpp"
#include "solver/solver.hpp"
#include "support/cli.hpp"
#include "support/log.hpp"

namespace {

constexpr const char kUsage[] =
    "usage: heterogeneous_cluster [--circuit highway] [--help]\n";

}  // namespace

int main(int argc, char** argv) {
  using namespace pts;
  const Cli cli(argc, argv);
  set_log_level(LogLevel::Warn);
  if (cli.get_flag("help")) {
    std::fputs(kUsage, stdout);
    return 0;
  }

  const std::string name = cli.get("circuit", "highway");
  cli.reject_unused(kUsage);
  const auto& circuit = experiments::circuit(name);

  auto spec = experiments::base_spec(circuit, "parallel-sim", 3,
                                     /*quick=*/true);
  spec.parallel.num_tsws = 4;
  spec.parallel.clws_per_tsw = 4;
  // Strong skew so the effect is large: the slow class runs at 1/4 speed.
  spec.parallel.cluster =
      pvm::ClusterConfig::three_class(7, 3, 2, 1.0, 0.5, 0.25, 0.0);

  std::printf("circuit %s, 4 TSWs x 4 CLWs, cluster: 7 fast / 3 medium / 2 slow\n",
              circuit.name().c_str());
  std::printf("%zu tasks on %zu emulated machines (virtual time)\n\n",
              1 + spec.parallel.num_tsws * (1 + spec.parallel.clws_per_tsw),
              spec.parallel.cluster.size());

  const solver::Solver solver;
  spec.parallel.set_policy(parallel::CollectionPolicy::WaitAll);
  const auto hom = solver.solve(spec);
  std::printf("homogeneous run   (wait-all):   %8.1f virtual s, best cost %.4f\n",
              hom.makespan, hom.best_cost);

  spec.parallel.set_policy(parallel::CollectionPolicy::HalfForce);
  const auto het = solver.solve(spec);
  std::printf("heterogeneous run (half-force): %8.1f virtual s, best cost %.4f\n",
              het.makespan, het.best_cost);

  if (!(het.makespan < hom.makespan)) {
    std::fputs("error: half-force did not finish before wait-all\n", stderr);
    return 1;
  }
  std::printf("\ntime saved by accounting for heterogeneity: %.1f%%\n",
              100.0 * (hom.makespan - het.makespan) / hom.makespan);
  return 0;
}
