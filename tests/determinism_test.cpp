// Determinism guard: two TabuSearch runs with the same seed must produce
// bit-identical cost trajectories, best costs, and best slot assignments.
// Every future parallel/perf refactor is validated against this invariant.
// The registry-wide pin extends it to every engine behind the solver front
// door, which is what lets the serving layer cache any engine's result.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "cost/evaluator.hpp"
#include "experiments/workloads.hpp"
#include "netlist/generator.hpp"
#include "solver/solver.hpp"
#include "tabu/search.hpp"

namespace pts::tabu {
namespace {

using netlist::GeneratorConfig;
using netlist::Netlist;
using placement::Layout;
using placement::Placement;

Netlist circuit(std::size_t gates = 60, std::uint64_t seed = 11) {
  GeneratorConfig config;
  config.num_gates = gates;
  config.seed = seed;
  return generate_circuit(config);
}

std::unique_ptr<cost::Evaluator> make_eval(const Netlist& nl, const Layout& layout,
                                           std::uint64_t seed) {
  cost::CostParams params;
  Rng rng(seed);
  Placement p = Placement::random(nl, layout, rng);
  auto paths =
      timing::extract_critical_paths(nl, params.num_paths, params.delay_model);
  const auto goals = cost::Evaluator::calibrate_goals(p, *paths, params);
  return std::make_unique<cost::Evaluator>(std::move(p), std::move(paths), params,
                                           goals);
}

SearchResult run_once(const Netlist& nl, std::uint64_t eval_seed,
                      std::uint64_t search_seed, const TabuParams& params) {
  const Layout layout(nl);
  auto eval = make_eval(nl, layout, eval_seed);
  TabuSearch search(*eval, params, Rng(search_seed));
  return search.run();
}

// Exact (bit-level) equality on purpose: any drift, however small, means a
// hidden source of nondeterminism crept into the engine.
void expect_bit_identical(const Series& a, const Series& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.x[i], b.x[i]) << "trace x diverges at index " << i;
    EXPECT_EQ(a.y[i], b.y[i]) << "trace y diverges at index " << i;
  }
}

TEST(DeterminismTest, SameSeedSameTrajectory) {
  const Netlist nl = circuit();
  TabuParams params;
  params.iterations = 120;
  params.trace_stride = 1;

  const SearchResult r1 = run_once(nl, 3, 7, params);
  const SearchResult r2 = run_once(nl, 3, 7, params);

  EXPECT_EQ(r1.best_cost, r2.best_cost);
  EXPECT_EQ(r1.best_quality, r2.best_quality);
  EXPECT_EQ(r1.best_slots, r2.best_slots);
  expect_bit_identical(r1.cost_trace, r2.cost_trace);
  expect_bit_identical(r1.best_trace, r2.best_trace);
  EXPECT_EQ(r1.stats.accepted, r2.stats.accepted);
  EXPECT_EQ(r1.stats.rejected_tabu, r2.stats.rejected_tabu);
  EXPECT_EQ(r1.stats.aspirated, r2.stats.aspirated);
}

TEST(DeterminismTest, DifferentSearchSeedsDiverge) {
  // Sanity check that the guard above is not vacuous: different search
  // seeds should explore different trajectories on a non-trivial circuit.
  const Netlist nl = circuit();
  TabuParams params;
  params.iterations = 120;
  params.trace_stride = 1;

  const SearchResult r1 = run_once(nl, 3, 7, params);
  const SearchResult r2 = run_once(nl, 3, 8, params);

  bool diverged = r1.cost_trace.size() != r2.cost_trace.size();
  for (std::size_t i = 0; !diverged && i < r1.cost_trace.size(); ++i) {
    diverged = r1.cost_trace.y[i] != r2.cost_trace.y[i];
  }
  EXPECT_TRUE(diverged) << "distinct seeds produced identical trajectories";
}

TEST(DeterminismTest, FrequencyMemoryRunsAreAlsoDeterministic) {
  // The long-term frequency memory path has its own bookkeeping; make sure
  // it is covered by the same-seed guarantee too.
  const Netlist nl = circuit(40, 13);
  TabuParams params;
  params.iterations = 80;
  params.trace_stride = 1;
  params.frequency.mode = LongTermMode::Diversify;

  const SearchResult r1 = run_once(nl, 5, 9, params);
  const SearchResult r2 = run_once(nl, 5, 9, params);

  EXPECT_EQ(r1.best_cost, r2.best_cost);
  EXPECT_EQ(r1.best_slots, r2.best_slots);
  expect_bit_identical(r1.cost_trace, r2.cost_trace);
}

TEST(DeterminismTest, EveryRegisteredEngineIsDeterministic) {
  // Same spec, solved twice: slots, costs, stats and traces must match bit
  // for bit, for every engine in the registry. Wall-clock readings are the
  // one exception — best_vs_time x values and the makespan of the
  // wall-clock engines — so those are compared only for parallel-sim,
  // whose clock is virtual.
  const auto& nl = experiments::circuit("highway");
  for (const std::string& engine : solver::engine_names()) {
    SCOPED_TRACE(engine);
    auto spec = experiments::base_spec(nl, engine, /*seed=*/17, /*quick=*/true);
    spec.parallel.num_tsws = 2;
    spec.parallel.clws_per_tsw = 2;
    spec.shared.threads = 2;
    const solver::Solver solver;
    ASSERT_TRUE(solver.validate(spec).empty());
    const auto r1 = solver.solve(spec);
    const auto r2 = solver.solve(spec);

    EXPECT_EQ(r1.initial_cost, r2.initial_cost);
    EXPECT_EQ(r1.best_cost, r2.best_cost);
    EXPECT_EQ(r1.best_quality, r2.best_quality);
    EXPECT_EQ(r1.best_objectives.wirelength, r2.best_objectives.wirelength);
    EXPECT_EQ(r1.best_objectives.delay, r2.best_objectives.delay);
    EXPECT_EQ(r1.best_objectives.area, r2.best_objectives.area);
    EXPECT_EQ(r1.best_slots, r2.best_slots);
    EXPECT_EQ(r1.stats.iterations, r2.stats.iterations);
    EXPECT_EQ(r1.stats.accepted, r2.stats.accepted);
    EXPECT_EQ(r1.stats.rejected_tabu, r2.stats.rejected_tabu);
    EXPECT_EQ(r1.stats.aspirated, r2.stats.aspirated);
    EXPECT_EQ(r1.stats.early_accepts, r2.stats.early_accepts);
    EXPECT_EQ(r1.stats.trials, r2.stats.trials);
    EXPECT_EQ(r1.iterations, r2.iterations);
    EXPECT_EQ(r1.stop_reason, r2.stop_reason);
    EXPECT_EQ(r1.converged, r2.converged);
    expect_bit_identical(r1.cost_trace, r2.cost_trace);
    expect_bit_identical(r1.best_trace, r2.best_trace);
    expect_bit_identical(r1.best_vs_global, r2.best_vs_global);
    EXPECT_EQ(r1.best_vs_time.y, r2.best_vs_time.y);
    if (engine == "parallel-sim") {
      EXPECT_EQ(r1.best_vs_time.x, r2.best_vs_time.x);
      EXPECT_EQ(r1.makespan, r2.makespan);
    }
  }
}

}  // namespace
}  // namespace pts::tabu
