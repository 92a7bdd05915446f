// End-to-end integration tests: the full pipeline from circuit generation
// through parallel search, cross-checking engines, file IO, and the
// consistency of everything a downstream user would compose.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

#include "baselines/constructive.hpp"
#include "experiments/speedup.hpp"
#include "experiments/workloads.hpp"
#include "netlist/io.hpp"
#include "parallel/sim_engine.hpp"
#include "tabu/search.hpp"
#include "timing/sta.hpp"

namespace pts {
namespace {

TEST(Integration, FileRoundTripFeedsTheFullPipeline) {
  // Generate -> save -> load -> place -> search, all through public APIs.
  const auto& original = experiments::circuit("highway");
  const auto path = std::filesystem::temp_directory_path() / "pts_highway.net";
  netlist::save_netlist_file(original, path.string());
  const netlist::Netlist loaded = netlist::load_netlist_file(path.string());
  std::filesystem::remove(path);
  EXPECT_EQ(loaded.num_movable(), original.num_movable());

  auto config = experiments::base_config(loaded, 3, /*quick=*/true);
  config.num_tsws = 2;
  config.clws_per_tsw = 2;
  const auto result = parallel::SimEngine(loaded, config).run();
  EXPECT_LT(result.best_cost, result.initial_cost);
}

TEST(Integration, SequentialVsParallelSameCostModel) {
  // A sequential TabuSearch and a 1x1 parallel run use the same cost
  // machinery; both must improve from the same initial cost calibration
  // (cost 0.75 by construction).
  const auto& circuit = experiments::circuit("highway");
  auto config = experiments::base_config(circuit, 9, /*quick=*/true);
  config.num_tsws = 1;
  config.clws_per_tsw = 1;
  const auto parallel_result =
      parallel::SimEngine(circuit, config).run();
  EXPECT_NEAR(parallel_result.initial_cost, 0.75, 1e-9);
  EXPECT_LT(parallel_result.best_cost, 0.70);
}

TEST(Integration, FinalSolutionIsAValidPlacement) {
  const auto& circuit = experiments::circuit("c532");
  auto config = experiments::base_config(circuit, 5, /*quick=*/true);
  config.num_tsws = 3;
  config.clws_per_tsw = 2;
  const auto result = parallel::SimEngine(circuit, config).run();

  const placement::Layout layout(circuit);
  placement::Placement p(circuit, layout);
  p.assign_slots(result.best_slots);  // PTS_CHECKs the bijection
  p.check_consistent();

  // The reported delay estimate is bounded by exact STA on the solution.
  placement::HpwlState hpwl(p);
  const timing::DelayModel model;
  const auto sta = timing::run_sta(circuit, hpwl, model);
  EXPECT_LE(result.best_objectives.delay, sta.critical_delay + 1e-6);
  EXPECT_NEAR(result.best_objectives.wirelength, hpwl.total(), 1e-6);
}

TEST(Integration, ParallelSearchBeatsSingleThreadAtEqualVirtualTime) {
  // The motivating claim: at the time the parallel run finishes, a single
  // worker has achieved less. Compare via the improvement trajectories.
  const auto& circuit = experiments::circuit("c532");
  auto config = experiments::base_config(circuit, 11, /*quick=*/false);
  config.num_tsws = 4;
  config.clws_per_tsw = 2;
  const auto par = parallel::SimEngine(circuit, config).run();

  auto solo_config = config;
  solo_config.num_tsws = 1;
  solo_config.clws_per_tsw = 1;
  const auto solo = parallel::SimEngine(circuit, solo_config).run();

  const double solo_at_par_end = solo.best_vs_time.y_at(
      std::min(par.makespan, solo.best_vs_time.x.back()));
  EXPECT_LT(par.best_cost, solo_at_par_end);
}

TEST(Integration, GreedyStartAcceleratesSearch) {
  // Better initial solution -> better final solution under a small budget.
  const auto& circuit = experiments::circuit("c532");
  const placement::Layout layout(circuit);
  cost::CostParams params;
  auto paths =
      timing::extract_critical_paths(circuit, params.num_paths, params.delay_model);
  Rng rng(4);
  const auto random_p = baselines::random_placement(circuit, layout, rng);
  const auto greedy_p = baselines::greedy_placement(circuit, layout, rng);
  // Shared goals from the random start (harder goals for both).
  const auto goals = cost::Evaluator::calibrate_goals(random_p, *paths, params);

  tabu::TabuParams tp;
  tp.iterations = 80;
  cost::Evaluator random_eval(random_p, paths, params, goals);
  cost::Evaluator greedy_eval(greedy_p, paths, params, goals);
  const auto from_random = tabu::TabuSearch(random_eval, tp, Rng(5)).run();
  const auto from_greedy = tabu::TabuSearch(greedy_eval, tp, Rng(5)).run();
  EXPECT_LT(from_greedy.best_cost, from_random.best_cost);
}

TEST(Integration, HalfForceTracksDominanceOverTime) {
  // Fig 11's qualitative claim as an assertion: at the heterogeneous run's
  // end time, the homogeneous run has achieved no better cost.
  const auto& circuit = experiments::circuit("c532");
  auto config = experiments::base_config(circuit, 13, /*quick=*/true);
  config.num_tsws = 4;
  config.clws_per_tsw = 4;
  config.set_policy(parallel::CollectionPolicy::HalfForce);
  const auto het = parallel::SimEngine(circuit, config).run();
  config.set_policy(parallel::CollectionPolicy::WaitAll);
  const auto hom = parallel::SimEngine(circuit, config).run();

  EXPECT_LT(het.makespan, hom.makespan);
  const double hom_at_het_end = hom.best_vs_time.y_at(het.makespan);
  EXPECT_LE(het.best_cost, hom_at_het_end + 0.02);
}

TEST(Integration, SpeedupHarnessEndToEnd) {
  const auto& circuit = experiments::circuit("highway");
  auto config = experiments::base_config(circuit, 17, /*quick=*/true);
  config.num_tsws = 4;
  const auto m = experiments::measure_speedup(
      circuit, config, experiments::VaryWorkers::Clws, {1, 2}, 0.6, /*seeds=*/2);
  ASSERT_EQ(m.time_to_threshold.size(), 2u);
  EXPECT_GT(m.time_to_threshold.y[0], 0.0);
  ASSERT_GE(m.speedup.size(), 1u);
  EXPECT_NEAR(m.speedup.y[0], 1.0, 1e-9);
}

TEST(Integration, TwelveMachineTwentyOneTaskPaperShape) {
  // The paper's exact configuration: master + 4 TSWs + 16 CLWs on the
  // 12-machine cluster, heterogeneous policy at both levels.
  const auto& circuit = experiments::circuit("highway");
  auto config = experiments::base_config(circuit, 19, /*quick=*/true);
  config.num_tsws = 4;
  config.clws_per_tsw = 4;
  EXPECT_EQ(config.cluster.size(), 12u);
  const auto result = parallel::SimEngine(circuit, config).run();
  EXPECT_LT(result.best_cost, result.initial_cost);
  EXPECT_GT(result.stats.accepted, 0u);
}

}  // namespace
}  // namespace pts
