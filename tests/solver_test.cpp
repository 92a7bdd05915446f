// The pts::solver facade: registry contents, spec validation, and —
// critically — cross-engine parity: for every registered engine, a Solver
// run must be bit-identical to the equivalent direct engine invocation
// with the same seed. Also pins stop-condition/cancel-token semantics and
// that observers do not perturb determinism (the facade companion to
// determinism_test).
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "baselines/annealing.hpp"
#include "baselines/constructive.hpp"
#include "baselines/local_search.hpp"
#include "experiments/workloads.hpp"
#include "netlist/io.hpp"
#include "parallel/sim_engine.hpp"
#include "solver/checkpoint.hpp"
#include "solver/solver.hpp"
#include "tabu/search.hpp"
#include "timing/paths.hpp"

namespace pts::solver {
namespace {

// The two paper circuits the parity suite runs on (smallest + mid-size).
constexpr const char* kCircuits[] = {"highway", "c532"};

void expect_series_identical(const Series& a, const Series& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.x[i], b.x[i]) << "series x diverges at index " << i;
    EXPECT_EQ(a.y[i], b.y[i]) << "series y diverges at index " << i;
  }
}

/// For best_vs_time on wall-clock engines: the y values (best costs) are
/// covered by the determinism guarantee, the x values are wall-clock
/// measurements and legitimately differ between runs.
void expect_series_same_y(const Series& a, const Series& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.y[i], b.y[i]) << "series y diverges at index " << i;
  }
}

/// Replicates the Solver's documented sequential-engine setup recipe so the
/// parity tests can invoke the engines directly.
struct DirectSetup {
  std::unique_ptr<placement::Layout> layout;
  std::unique_ptr<cost::Evaluator> eval;
};

DirectSetup direct_setup(const netlist::Netlist& nl,
                         const cost::CostParams& cost, std::uint64_t seed) {
  DirectSetup setup;
  setup.layout = std::make_unique<placement::Layout>(nl);
  Rng init_rng(seed ^ kInitStreamSalt);
  auto initial = baselines::random_placement(nl, *setup.layout, init_rng);
  auto paths =
      timing::extract_critical_paths(nl, cost.num_paths, cost.delay_model);
  const auto goals = cost::Evaluator::calibrate_goals(initial, *paths, cost);
  setup.eval = std::make_unique<cost::Evaluator>(std::move(initial),
                                                 std::move(paths), cost, goals);
  return setup;
}

/// The Solver's documented parallel-config mapping: shared seed/cost/tabu
/// blocks override the nested copies.
parallel::PtsConfig direct_parallel_config(const SolveSpec& spec) {
  parallel::PtsConfig config = spec.parallel;
  config.seed = spec.seed;
  config.cost = spec.cost;
  config.tabu = spec.tabu;
  return config;
}

SolveSpec small_parallel_spec(const netlist::Netlist& nl,
                              std::uint64_t seed = 11) {
  SolveSpec spec;
  spec.engine = "parallel-sim";
  spec.netlist = &nl;
  spec.seed = seed;
  spec.parallel.num_tsws = 3;
  spec.parallel.clws_per_tsw = 2;
  spec.parallel.local_iterations = 4;
  spec.parallel.global_iterations = 3;
  spec.tabu.compound.width = 6;
  spec.tabu.compound.depth = 2;
  return spec;
}

// -- registry ---------------------------------------------------------------

TEST(SolverRegistry, AllSixBuiltinsRegistered) {
  const auto names = engine_names();
  for (const char* expected : {"tabu", "anneal", "local", "constructive",
                               "parallel-sim", "parallel-shared"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end())
        << expected;
    const Engine* engine = find_engine(expected);
    ASSERT_NE(engine, nullptr) << expected;
    EXPECT_EQ(engine->name(), expected);
    EXPECT_FALSE(engine->description().empty());
  }
  EXPECT_EQ(find_engine("no-such-engine"), nullptr);
}

TEST(SolverRegistry, EngineNamesAreStableSortedOrder) {
  // Clients (the ptsd capability handshake among them) rely on
  // engine_names() being deterministic: lexicographically sorted, no
  // duplicates, identical across calls.
  const auto names = engine_names();
  ASSERT_GE(names.size(), 6u);
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
  EXPECT_EQ(std::adjacent_find(names.begin(), names.end()), names.end());
  EXPECT_EQ(engine_names(), names);

  // The six builtins appear in their sorted positions.
  const std::vector<std::string> builtins = {
      "anneal",          "constructive", "local",
      "parallel-shared", "parallel-sim", "tabu"};
  std::vector<std::string> present;
  for (const auto& name : names) {
    if (std::find(builtins.begin(), builtins.end(), name) != builtins.end()) {
      present.push_back(name);
    }
  }
  EXPECT_EQ(present, builtins);
}

namespace {
class ToyEngine final : public Engine {
 public:
  std::string_view name() const override { return "toy"; }
  std::string_view description() const override { return "fixed result"; }
  SolveResult solve(const SolveSpec& spec) const override {
    (void)spec;
    SolveResult out;
    out.best_cost = 0.125;
    return out;
  }
};
}  // namespace

TEST(SolverRegistry, CustomEnginesRegisterOnceAndDispatch) {
  EXPECT_TRUE(register_engine(std::make_unique<ToyEngine>()));
  // Second registration under the same name is rejected.
  EXPECT_FALSE(register_engine(std::make_unique<ToyEngine>()));

  SolveSpec spec;
  spec.engine = "toy";
  spec.netlist = &experiments::circuit("highway");
  const auto result = Solver().solve(spec);
  EXPECT_EQ(result.engine, "toy");
  EXPECT_EQ(result.best_cost, 0.125);
}

// -- validation -------------------------------------------------------------

TEST(SolverValidate, AcceptsBaseSpecs) {
  const auto& nl = experiments::circuit("highway");
  for (const auto& name : Solver::engines()) {
    if (name == "toy") continue;  // registered by the test above, no params
    const auto spec = experiments::base_spec(nl, name, 1, true);
    EXPECT_TRUE(Solver().validate(spec).empty()) << name;
  }
}

TEST(SolverValidate, RejectsNonsense) {
  const auto& nl = experiments::circuit("highway");
  const Solver solver;

  SolveSpec spec;  // null netlist
  EXPECT_FALSE(solver.validate(spec).empty());

  spec.netlist = &nl;
  spec.engine = "no-such-engine";
  EXPECT_FALSE(solver.validate(spec).empty());

  spec.engine = "anneal";
  spec.anneal.cooling = 1.5;
  ASSERT_EQ(solver.validate(spec).size(), 1u);
  EXPECT_NE(solver.validate(spec)[0].find("cooling"), std::string::npos);
  spec.anneal.cooling = 0.9;

  spec.engine = "tabu";
  spec.tabu.compound.width = 0;
  EXPECT_FALSE(solver.validate(spec).empty());
  spec.tabu.compound.width = 8;

  spec.engine = "local";
  spec.local.candidates_per_iteration = 0;
  EXPECT_FALSE(solver.validate(spec).empty());
  spec.local.candidates_per_iteration = 8;

  spec.engine = "parallel-sim";
  spec.parallel.num_tsws = 0;
  EXPECT_FALSE(solver.validate(spec).empty());
  spec.parallel.num_tsws = 2;
  spec.parallel.master_policy.threshold = 0.0;
  EXPECT_FALSE(solver.validate(spec).empty());
  spec.parallel.master_policy.threshold = 0.5;
  EXPECT_TRUE(solver.validate(spec).empty());

  spec.stop.target_quality = 1.5;
  EXPECT_FALSE(solver.validate(spec).empty());
}

TEST(SolverValidateDeath, SolveRefusesInvalidSpec) {
  SolveSpec spec;
  spec.engine = "no-such-engine";
  EXPECT_DEATH(Solver().solve(spec), "invalid SolveSpec");
}

// -- cross-engine parity: Solver == direct invocation, bit for bit ---------

TEST(SolverParity, TabuMatchesDirectInvocation) {
  for (const char* name : kCircuits) {
    const auto& nl = experiments::circuit(name);
    SolveSpec spec;
    spec.engine = "tabu";
    spec.netlist = &nl;
    spec.seed = 11;
    spec.tabu.iterations = 60;
    const auto via = Solver().solve(spec);

    auto setup = direct_setup(nl, spec.cost, spec.seed);
    tabu::TabuSearch search(*setup.eval, spec.tabu,
                            Rng(spec.seed ^ kSearchStreamSalt));
    const auto direct = search.run();

    EXPECT_EQ(via.best_cost, direct.best_cost) << name;
    EXPECT_EQ(via.best_quality, direct.best_quality) << name;
    EXPECT_EQ(via.best_slots, direct.best_slots) << name;
    EXPECT_EQ(via.iterations, direct.stats.iterations) << name;
    expect_series_identical(via.cost_trace, direct.cost_trace);
    expect_series_identical(via.best_trace, direct.best_trace);
    expect_series_same_y(via.best_vs_time, direct.best_vs_time);
  }
}

TEST(SolverParity, AnnealMatchesDirectInvocation) {
  for (const char* name : kCircuits) {
    const auto& nl = experiments::circuit(name);
    SolveSpec spec;
    spec.engine = "anneal";
    spec.netlist = &nl;
    spec.seed = 13;
    spec.anneal.cooling = 0.7;
    spec.anneal.final_temp_ratio = 0.05;
    spec.anneal.moves_per_temp = 200;
    const auto via = Solver().solve(spec);

    auto setup = direct_setup(nl, spec.cost, spec.seed);
    Rng rng(spec.seed ^ kSearchStreamSalt);
    const auto direct = baselines::anneal(*setup.eval, spec.anneal, rng);

    EXPECT_EQ(via.best_cost, direct.best_cost) << name;
    EXPECT_EQ(via.best_slots, direct.best_slots) << name;
    EXPECT_EQ(via.iterations, direct.moves_tried) << name;
    EXPECT_EQ(via.stats.accepted, direct.moves_accepted) << name;
    expect_series_identical(via.best_trace, direct.best_trace);
  }
}

TEST(SolverParity, LocalSearchMatchesDirectInvocation) {
  for (const char* name : kCircuits) {
    const auto& nl = experiments::circuit(name);
    SolveSpec spec;
    spec.engine = "local";
    spec.netlist = &nl;
    spec.seed = 17;
    spec.local.max_iterations = 120;
    const auto via = Solver().solve(spec);

    auto setup = direct_setup(nl, spec.cost, spec.seed);
    Rng rng(spec.seed ^ kSearchStreamSalt);
    const auto direct = baselines::local_search(*setup.eval, spec.local, rng);

    EXPECT_EQ(via.best_cost, direct.best_cost) << name;
    EXPECT_EQ(via.best_slots, direct.best_slots) << name;
    EXPECT_EQ(via.iterations, direct.iterations) << name;
    EXPECT_EQ(via.converged, direct.converged) << name;
    expect_series_identical(via.best_trace, direct.best_trace);
  }
}

TEST(SolverParity, ConstructiveMatchesDirectInvocation) {
  for (const char* name : kCircuits) {
    const auto& nl = experiments::circuit(name);
    SolveSpec spec;
    spec.engine = "constructive";
    spec.netlist = &nl;
    spec.seed = 19;
    const auto via = Solver().solve(spec);

    auto setup = direct_setup(nl, spec.cost, spec.seed);
    EXPECT_EQ(via.initial_cost, setup.eval->cost()) << name;
    Rng rng(spec.seed ^ kSearchStreamSalt);
    const auto greedy =
        baselines::greedy_placement(nl, *setup.layout, rng);
    setup.eval->reset_placement(greedy.slots());
    EXPECT_EQ(via.best_slots, greedy.slots()) << name;
    EXPECT_EQ(via.best_cost, setup.eval->cost()) << name;
  }
}

TEST(SolverParity, ParallelSimMatchesDirectInvocation) {
  for (const char* name : kCircuits) {
    const auto& nl = experiments::circuit(name);
    const auto spec = small_parallel_spec(nl);
    const auto via = Solver().solve(spec);

    const auto direct =
        parallel::SimEngine(nl, direct_parallel_config(spec)).run();

    EXPECT_EQ(via.initial_cost, direct.initial_cost) << name;
    EXPECT_EQ(via.best_cost, direct.best_cost) << name;
    EXPECT_EQ(via.best_quality, direct.best_quality) << name;
    EXPECT_EQ(via.best_slots, direct.best_slots) << name;
    EXPECT_EQ(via.makespan, direct.makespan) << name;
    expect_series_identical(via.best_vs_time, direct.best_vs_time);
    expect_series_identical(via.best_vs_global, direct.best_vs_global);
    EXPECT_EQ(via.stats.iterations, direct.stats.iterations) << name;
  }
}

// -- stop conditions --------------------------------------------------------

TEST(SolverStop, IterationBudgetTruncatesBitIdentically) {
  const auto& nl = experiments::circuit("highway");
  SolveSpec spec;
  spec.engine = "tabu";
  spec.netlist = &nl;
  spec.seed = 29;
  spec.tabu.iterations = 80;
  const auto full = Solver().solve(spec);
  ASSERT_EQ(full.stop_reason, StopReason::Completed);

  spec.stop.max_iterations = 30;
  const auto capped = Solver().solve(spec);
  EXPECT_EQ(capped.stop_reason, StopReason::IterationBudget);
  EXPECT_EQ(capped.iterations, 30u);
  ASSERT_EQ(capped.best_trace.size(), 30u);
  for (std::size_t i = 0; i < 30; ++i) {
    // A capped run is exactly the prefix of the uncapped one.
    EXPECT_EQ(capped.best_trace.y[i], full.best_trace.y[i]);
    EXPECT_EQ(capped.cost_trace.y[i], full.cost_trace.y[i]);
  }
}

TEST(SolverStop, TargetCostStopsEarly) {
  const auto& nl = experiments::circuit("highway");
  SolveSpec spec;
  spec.engine = "tabu";
  spec.netlist = &nl;
  spec.seed = 31;
  spec.tabu.iterations = 120;
  const auto full = Solver().solve(spec);
  const double target = (full.initial_cost + full.best_cost) / 2.0;
  ASSERT_LT(full.best_cost, target);

  spec.stop.target_cost = target;
  const auto stopped = Solver().solve(spec);
  EXPECT_EQ(stopped.stop_reason, StopReason::TargetCost);
  EXPECT_LE(stopped.best_cost, target);
  EXPECT_LT(stopped.iterations, full.iterations);
}

TEST(SolverStop, TargetQualityStopsEarly) {
  const auto& nl = experiments::circuit("highway");
  SolveSpec spec;
  spec.engine = "local";
  spec.netlist = &nl;
  spec.seed = 37;
  const auto full = Solver().solve(spec);
  ASSERT_GT(full.best_quality, 0.3);

  spec.stop.target_quality = 0.3;
  const auto stopped = Solver().solve(spec);
  EXPECT_EQ(stopped.stop_reason, StopReason::TargetQuality);
  EXPECT_GE(stopped.best_quality, 0.3);
  EXPECT_LE(stopped.iterations, full.iterations);
}

TEST(SolverStop, VirtualTimeLimitIsDeterministic) {
  const auto& nl = experiments::circuit("highway");
  auto spec = small_parallel_spec(nl, 41);
  // Far below one global iteration's virtual cost: exactly one runs.
  spec.stop.max_seconds = 1e-6;
  const auto a = Solver().solve(spec);
  const auto b = Solver().solve(spec);
  EXPECT_EQ(a.stop_reason, StopReason::TimeLimit);
  EXPECT_EQ(a.best_vs_global.size(), 1u);
  EXPECT_EQ(a.best_cost, b.best_cost);
  EXPECT_EQ(a.makespan, b.makespan);
}

TEST(SolverStop, BudgetEqualToEngineOwnBudgetReportsCompleted) {
  // An external budget identical to the engine's own is a no-op and must
  // not change the stop reason — for the check-before sequential engines
  // and the check-after parallel engines alike.
  const auto& nl = experiments::circuit("highway");
  SolveSpec tabu_spec;
  tabu_spec.engine = "tabu";
  tabu_spec.netlist = &nl;
  tabu_spec.tabu.iterations = 40;
  tabu_spec.stop.max_iterations = 40;
  EXPECT_EQ(Solver().solve(tabu_spec).stop_reason, StopReason::Completed);

  auto sim_spec = small_parallel_spec(nl);
  sim_spec.stop.max_iterations = sim_spec.parallel.global_iterations;
  const auto sim = Solver().solve(sim_spec);
  EXPECT_EQ(sim.stop_reason, StopReason::Completed);
  EXPECT_EQ(sim.best_vs_global.size(), sim_spec.parallel.global_iterations);
}

TEST(SolverStop, AnnealMoveBudget) {
  const auto& nl = experiments::circuit("highway");
  SolveSpec spec;
  spec.engine = "anneal";
  spec.netlist = &nl;
  spec.seed = 43;
  spec.stop.max_iterations = 500;
  const auto result = Solver().solve(spec);
  EXPECT_EQ(result.stop_reason, StopReason::IterationBudget);
  EXPECT_EQ(result.iterations, 500u);
}

TEST(SolverStop, PreCancelledTokenStopsImmediately) {
  const auto& nl = experiments::circuit("highway");
  CancelToken token;
  token.cancel();
  for (const char* engine :
       {"tabu", "anneal", "local", "parallel-sim", "parallel-shared"}) {
    SolveSpec spec;
    spec.engine = engine;
    spec.netlist = &nl;
    spec.stop.cancel = &token;
    const auto result = Solver().solve(spec);
    EXPECT_EQ(result.stop_reason, StopReason::Cancelled) << engine;
    EXPECT_EQ(result.iterations, 0u) << engine;
    EXPECT_EQ(result.best_cost, result.initial_cost) << engine;
  }
}

namespace {
/// Cancels the run from inside the observer after N iteration callbacks —
/// the cooperative-cancellation path a UI or service would use.
class CancelAfter : public Observer {
 public:
  CancelAfter(CancelToken& token, std::size_t after)
      : token_(&token), after_(after) {}
  void on_iteration(const Progress& progress) override {
    if (progress.iteration >= after_) token_->cancel();
  }

 private:
  CancelToken* token_;
  std::size_t after_;
};
}  // namespace

TEST(SolverStop, CancelFromObserverStopsAtNextCheck) {
  const auto& nl = experiments::circuit("highway");
  CancelToken token;
  CancelAfter observer(token, 10);
  SolveSpec spec;
  spec.engine = "tabu";
  spec.netlist = &nl;
  spec.seed = 47;
  spec.tabu.iterations = 200;
  spec.stop.cancel = &token;
  spec.observer = &observer;
  const auto result = Solver().solve(spec);
  EXPECT_EQ(result.stop_reason, StopReason::Cancelled);
  EXPECT_EQ(result.iterations, 10u);
}

// -- observers --------------------------------------------------------------

namespace {
class CountingObserver : public Observer {
 public:
  void on_improvement(const Progress& progress) override {
    improvements.push_back(progress.best_cost);
  }
  void on_iteration(const Progress& progress) override {
    iterations = progress.iteration;
    ++iteration_calls;
  }

  std::vector<double> improvements;
  std::size_t iterations = 0;
  std::size_t iteration_calls = 0;
};
}  // namespace

TEST(SolverObserver, DoesNotPerturbDeterminism) {
  // The facade companion to determinism_test: attaching an observer (and
  // engaged-but-never-firing stop conditions) must leave every output bit
  // identical, for the sequential and the virtual-time engine alike.
  const auto& nl = experiments::circuit("c532");
  for (const char* engine : {"tabu", "parallel-sim"}) {
    SolveSpec plain;
    plain.engine = engine;
    plain.netlist = &nl;
    plain.seed = 53;
    plain.tabu.iterations = 40;
    plain.parallel.global_iterations = 2;
    plain.parallel.local_iterations = 3;
    plain.parallel.num_tsws = 2;
    plain.parallel.clws_per_tsw = 2;

    SolveSpec observed = plain;
    CountingObserver observer;
    observed.observer = &observer;
    observed.stop.max_iterations = 1000000;  // engaged, never fires
    observed.stop.max_seconds = 1e9;
    observed.stop.target_cost = -1e9;  // unreachable: cost is bounded below

    const auto a = Solver().solve(plain);
    const auto b = Solver().solve(observed);
    EXPECT_EQ(a.best_cost, b.best_cost) << engine;
    EXPECT_EQ(a.best_slots, b.best_slots) << engine;
    EXPECT_EQ(a.iterations, b.iterations) << engine;
    EXPECT_EQ(b.stop_reason, StopReason::Completed) << engine;
    expect_series_identical(a.cost_trace, b.cost_trace);
    expect_series_identical(a.best_trace, b.best_trace);
    // "tabu" stamps best_vs_time with the wall clock, so only its y values
    // fall under the bit-identity guarantee; the sim engine's virtual
    // timestamps are fully deterministic.
    if (std::string_view(engine) == "parallel-sim") {
      expect_series_identical(a.best_vs_time, b.best_vs_time);
    } else {
      expect_series_same_y(a.best_vs_time, b.best_vs_time);
    }
    expect_series_identical(a.best_vs_global, b.best_vs_global);
    EXPECT_GT(observer.iteration_calls, 0u) << engine;
  }
}

TEST(SolverObserver, SeesMonotoneImprovementsEndingAtBest) {
  const auto& nl = experiments::circuit("highway");
  SolveSpec spec;
  spec.engine = "tabu";
  spec.netlist = &nl;
  spec.seed = 59;
  spec.tabu.iterations = 80;
  CountingObserver observer;
  spec.observer = &observer;
  const auto result = Solver().solve(spec);

  EXPECT_EQ(observer.iterations, result.iterations);
  EXPECT_EQ(observer.iteration_calls, result.iterations);
  ASSERT_FALSE(observer.improvements.empty());
  for (std::size_t i = 1; i < observer.improvements.size(); ++i) {
    EXPECT_LT(observer.improvements[i], observer.improvements[i - 1]);
  }
  EXPECT_EQ(observer.improvements.back(), result.best_cost);
}

// -- warm start (ECO mode) ---------------------------------------------------

TEST(SolverWarmStart, SeededPlacementIsDeterministicAndStartsFromSeed) {
  const auto& nl = experiments::circuit("highway");
  SolveSpec cold;
  cold.engine = "tabu";
  cold.netlist = &nl;
  cold.seed = 21;
  cold.tabu.iterations = 80;
  const auto cold_result = Solver().solve(cold);

  // Seed a fresh run from the cold run's best placement.
  SolveSpec warm = cold;
  warm.initial_slots = cold_result.best_slots;
  const auto a = Solver().solve(warm);
  const auto b = Solver().solve(warm);

  // Deterministic: two warm runs are bit-identical.
  EXPECT_EQ(a.best_cost, b.best_cost);
  EXPECT_EQ(a.best_slots, b.best_slots);
  EXPECT_EQ(a.initial_cost, b.initial_cost);
  expect_series_identical(a.cost_trace, b.cost_trace);

  // The warm run actually starts from the seed: its initial cost is the
  // cold run's best (calibration is shared, so costs are comparable), and
  // it can only stay there or improve. Near, not bit-equal: the cold best
  // is tracked incrementally during search while the warm initial cost is
  // evaluated from scratch, so they differ by accumulated rounding.
  EXPECT_NEAR(a.initial_cost, cold_result.best_cost,
              1e-12 * std::abs(cold_result.best_cost));
  EXPECT_LE(a.best_cost, a.initial_cost);
  // And it is a different trajectory than the cold run, not a replay.
  EXPECT_NE(a.initial_cost, cold_result.initial_cost);
}

TEST(SolverWarmStart, ValidateRejectsMalformedSeeds) {
  const auto& nl = experiments::circuit("highway");
  SolveSpec spec;
  spec.engine = "tabu";
  spec.netlist = &nl;

  spec.initial_slots = {0, 1, 2};  // wrong size
  EXPECT_FALSE(Solver().validate(spec).empty());

  // Right size but a duplicated movable cell.
  SolveSpec cold = spec;
  cold.initial_slots.clear();
  cold.tabu.iterations = 4;
  auto slots = Solver().solve(cold).best_slots;
  ASSERT_GE(slots.size(), 2u);
  slots[0] = slots[1];
  spec.initial_slots = slots;
  EXPECT_FALSE(Solver().validate(spec).empty());

  // Engines without warm-start support must reject, not silently ignore.
  spec.initial_slots = Solver().solve(cold).best_slots;
  EXPECT_TRUE(Solver().validate(spec).empty());
  for (const char* engine :
       {"constructive", "parallel-sim", "parallel-shared"}) {
    SolveSpec rejected = spec;
    rejected.engine = engine;
    rejected.parallel.num_tsws = 2;
    rejected.parallel.clws_per_tsw = 1;
    EXPECT_FALSE(Solver().validate(rejected).empty()) << engine;
  }
}

// -- checkpoint/resume -------------------------------------------------------

TEST(SolverCheckpoint, ResumeEqualsUninterruptedRun) {
  const auto& nl = experiments::circuit("highway");
  SolveSpec spec;
  spec.engine = "tabu";
  spec.netlist = &nl;
  spec.seed = 33;
  spec.tabu.iterations = 120;

  // The uninterrupted reference.
  const auto full = solve_with_checkpoint(spec);

  // Interrupt at iteration 50 via the stop conditions, round-trip the
  // checkpoint through its JSON serialization, resume to the end.
  SolveSpec interrupted = spec;
  interrupted.stop.max_iterations = 50;
  const auto half = solve_with_checkpoint(interrupted);
  EXPECT_EQ(half.result.stats.iterations, 50u);

  const std::string encoded = encode_checkpoint(half.checkpoint);
  Checkpoint restored;
  ASSERT_EQ(decode_checkpoint(encoded, &restored), "");
  ASSERT_EQ(check_resume_compatible(spec, restored), "");
  const auto resumed = resume_from_checkpoint(spec, restored);

  // Every deterministic field of the whole-run result is bit-identical.
  const SolveResult& a = full.result;
  const SolveResult& b = resumed.result;
  EXPECT_EQ(a.best_cost, b.best_cost);
  EXPECT_EQ(a.best_quality, b.best_quality);
  EXPECT_EQ(a.best_slots, b.best_slots);
  EXPECT_EQ(a.initial_cost, b.initial_cost);
  EXPECT_EQ(a.stats.iterations, b.stats.iterations);
  EXPECT_EQ(a.stats.accepted, b.stats.accepted);
  EXPECT_EQ(a.stats.rejected_tabu, b.stats.rejected_tabu);
  EXPECT_EQ(a.stats.aspirated, b.stats.aspirated);
  EXPECT_EQ(a.stats.trials, b.stats.trials);
  EXPECT_EQ(a.stop_reason, b.stop_reason);
  expect_series_identical(a.cost_trace, b.cost_trace);
  expect_series_identical(a.best_trace, b.best_trace);
  // best_vs_time: x values are wall-clock; the costs must match exactly.
  expect_series_same_y(a.best_vs_time, b.best_vs_time);

  // And the final checkpoints agree on the engine state.
  EXPECT_EQ(full.checkpoint.eval.slots, resumed.checkpoint.eval.slots);
  EXPECT_EQ(full.checkpoint.eval.hpwl_total, resumed.checkpoint.eval.hpwl_total);
  EXPECT_EQ(full.checkpoint.search.stats.iterations,
            resumed.checkpoint.search.stats.iterations);
}

TEST(SolverCheckpoint, CheckpointJsonRoundTripsAndRejectsGarbage) {
  const auto& nl = experiments::circuit("highway");
  SolveSpec spec;
  spec.engine = "tabu";
  spec.netlist = &nl;
  spec.seed = 5;
  spec.tabu.iterations = 30;
  const auto solve = solve_with_checkpoint(spec);

  const std::string encoded = encode_checkpoint(solve.checkpoint);
  Checkpoint decoded;
  ASSERT_EQ(decode_checkpoint(encoded, &decoded), "");
  EXPECT_EQ(encode_checkpoint(decoded), encoded);  // bit-exact round-trip
  EXPECT_EQ(decoded.seed, spec.seed);
  EXPECT_EQ(decoded.circuit_hash, netlist::content_hash(nl));

  // Malformed input is an error string, never an abort.
  Checkpoint sink;
  EXPECT_NE(decode_checkpoint("", &sink), "");
  EXPECT_NE(decode_checkpoint("not json", &sink), "");
  EXPECT_NE(decode_checkpoint("{}", &sink), "");
  EXPECT_NE(decode_checkpoint("{\"version\":2}", &sink), "");
  std::string truncated = encoded.substr(0, encoded.size() / 2);
  EXPECT_NE(decode_checkpoint(truncated, &sink), "");

  // Incompatibility is reported, not asserted: wrong seed, wrong circuit.
  SolveSpec other = spec;
  other.seed = 6;
  EXPECT_NE(check_resume_compatible(other, solve.checkpoint), "");
  SolveSpec other_circuit = spec;
  other_circuit.netlist = &experiments::circuit("c532");
  EXPECT_NE(check_resume_compatible(other_circuit, solve.checkpoint), "");
}

// A checkpoint that decodes cleanly can still describe engine state that
// restoring would abort on; check_resume_compatible must name each defect.
class ResumeRefusesMalformedState : public ::testing::Test {
 protected:
  void SetUp() override {
    spec_.engine = "tabu";
    spec_.netlist = &nl_;
    spec_.seed = 9;
    spec_.tabu.iterations = 20;
    good_ = solve_with_checkpoint(spec_).checkpoint;
    ASSERT_EQ(check_resume_compatible(spec_, good_), "");
    ASSERT_GE(good_.eval.slots.size(), 2u);
    ASSERT_FALSE(nl_.pad_cells().empty());
  }

  const netlist::Netlist& nl_ = experiments::circuit("highway");
  SolveSpec spec_;
  Checkpoint good_;
};

TEST_F(ResumeRefusesMalformedState, DuplicateCellInEvalSlots) {
  Checkpoint bad = good_;
  bad.eval.slots[1] = bad.eval.slots[0];
  EXPECT_NE(check_resume_compatible(spec_, bad), "");
}

TEST_F(ResumeRefusesMalformedState, PadCellInEvalSlots) {
  Checkpoint bad = good_;
  bad.eval.slots[0] = nl_.pad_cells()[0];
  EXPECT_NE(check_resume_compatible(spec_, bad), "");
}

TEST_F(ResumeRefusesMalformedState, DuplicateCellInBestSlots) {
  Checkpoint bad = good_;
  bad.search.best_slots[1] = bad.search.best_slots[0];
  EXPECT_NE(check_resume_compatible(spec_, bad), "");
}

TEST_F(ResumeRefusesMalformedState, PadCellInBestSlots) {
  Checkpoint bad = good_;
  bad.search.best_slots[0] = nl_.pad_cells()[0];
  EXPECT_NE(check_resume_compatible(spec_, bad), "");
}

TEST_F(ResumeRefusesMalformedState, WrongLengthFrequencyCounts) {
  Checkpoint bad = good_;
  bad.search.frequency.counts.pop_back();
  EXPECT_NE(check_resume_compatible(spec_, bad), "");
}

TEST_F(ResumeRefusesMalformedState, WrongLengthImprovingCounts) {
  Checkpoint bad = good_;
  bad.search.frequency.improving_counts.push_back(0);
  EXPECT_NE(check_resume_compatible(spec_, bad), "");
}

TEST_F(ResumeRefusesMalformedState, WrongLengthWireSums) {
  Checkpoint bad = good_;
  bad.eval.wire_sums.push_back(0.0);
  EXPECT_NE(check_resume_compatible(spec_, bad), "");
  bad.eval.wire_sums.resize(good_.eval.wire_sums.size() - 1);
  EXPECT_NE(check_resume_compatible(spec_, bad), "");
}

TEST(SolverCheckpoint, ColdSolveWithCheckpointMatchesSolver) {
  const auto& nl = experiments::circuit("highway");
  SolveSpec spec;
  spec.engine = "tabu";
  spec.netlist = &nl;
  spec.seed = 71;
  spec.tabu.iterations = 60;

  const auto via_solver = Solver().solve(spec);
  const auto via_checkpoint = solve_with_checkpoint(spec);
  EXPECT_EQ(via_solver.best_cost, via_checkpoint.result.best_cost);
  EXPECT_EQ(via_solver.best_slots, via_checkpoint.result.best_slots);
  EXPECT_EQ(via_solver.initial_cost, via_checkpoint.result.initial_cost);
  expect_series_identical(via_solver.cost_trace, via_checkpoint.result.cost_trace);
  expect_series_identical(via_solver.best_trace, via_checkpoint.result.best_trace);
}

}  // namespace
}  // namespace pts::solver
