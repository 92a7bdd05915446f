// The shared-memory "parallel-shared" backend (DESIGN.md §8) and the
// worker-count clamp it shares with the TSW/CLW engines:
//
//  1. A 1-thread run is bit-identical to the sequential "tabu" engine with
//     the same seed — traces, best cost/slots, and stats alike.
//  2. The cost trajectory is independent of the thread count (the engine's
//     determinism contract is stronger than per-thread-count determinism),
//     and a fixed thread count is trivially deterministic run to run.
//  3. Run control behaves like every other engine: pre-cancelled tokens
//     stop before iteration 1, iteration budgets truncate bit-identically,
//     observers see every iteration without perturbing the run.
//  4. Oversubscribed worker counts (workers > movable cells) solve instead
//     of aborting — on this engine and on the two TSW/CLW engines whose
//     partition_cells ranges used to come out empty.
//  5. The candidate batch width (compound.batch, diversify.batch) is a pure
//     throughput knob: every width, including <= 1 and wider than the
//     trial count, retraces the default-width run bit for bit.
#include <gtest/gtest.h>

#include <string>

#include "experiments/workloads.hpp"
#include "parallel/shared_engine.hpp"
#include "solver/solver.hpp"

namespace pts::solver {
namespace {

SolveSpec shared_spec(const netlist::Netlist& nl, std::size_t threads,
                      std::uint64_t seed = 7, std::size_t iterations = 60) {
  SolveSpec spec;
  spec.engine = "parallel-shared";
  spec.netlist = &nl;
  spec.seed = seed;
  spec.tabu.iterations = iterations;
  spec.shared.threads = threads;
  return spec;
}

void expect_same_y(const Series& a, const Series& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.y[i], b.y[i]) << "series y diverges at index " << i;
  }
}

void expect_identical_outcome(const SolveResult& a, const SolveResult& b) {
  EXPECT_EQ(a.initial_cost, b.initial_cost);
  EXPECT_EQ(a.best_cost, b.best_cost);
  EXPECT_EQ(a.best_quality, b.best_quality);
  EXPECT_EQ(a.best_slots, b.best_slots);
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.stats.accepted, b.stats.accepted);
  EXPECT_EQ(a.stats.rejected_tabu, b.stats.rejected_tabu);
  EXPECT_EQ(a.stats.aspirated, b.stats.aspirated);
  EXPECT_EQ(a.stats.trials, b.stats.trials);
  ASSERT_EQ(a.cost_trace.size(), b.cost_trace.size());
  for (std::size_t i = 0; i < a.cost_trace.size(); ++i) {
    EXPECT_EQ(a.cost_trace.x[i], b.cost_trace.x[i]);
    EXPECT_EQ(a.cost_trace.y[i], b.cost_trace.y[i]);
    EXPECT_EQ(a.best_trace.y[i], b.best_trace.y[i]);
  }
  expect_same_y(a.best_vs_time, b.best_vs_time);
}

// -- 1 thread == sequential tabu, bit for bit -------------------------------

TEST(SharedEngine, OneThreadMatchesSequentialTabuBitForBit) {
  for (const char* name : {"highway", "c532"}) {
    SCOPED_TRACE(name);
    const auto& nl = experiments::circuit(name);
    SolveSpec tabu_spec = shared_spec(nl, 1);
    tabu_spec.engine = "tabu";
    const auto sequential = Solver().solve(tabu_spec);
    const auto shared = Solver().solve(shared_spec(nl, 1));
    expect_identical_outcome(sequential, shared);
  }
}

// -- determinism across runs and thread counts ------------------------------

TEST(SharedEngine, FixedThreadCountIsDeterministic) {
  const auto& nl = experiments::circuit("c532");
  for (std::size_t threads : {2u, 4u}) {
    SCOPED_TRACE(threads);
    const auto a = Solver().solve(shared_spec(nl, threads));
    const auto b = Solver().solve(shared_spec(nl, threads));
    expect_identical_outcome(a, b);
  }
}

TEST(SharedEngine, TrajectoryIndependentOfThreadCount) {
  // Stronger than the per-thread-count pin above: sampling happens on the
  // coordinator, probes are state-independent, and the reduction order is
  // fixed, so 2- and 4-thread runs retrace the 1-thread run exactly.
  const auto& nl = experiments::circuit("c532");
  const auto one = Solver().solve(shared_spec(nl, 1));
  for (std::size_t threads : {2u, 4u}) {
    SCOPED_TRACE(threads);
    const auto many = Solver().solve(shared_spec(nl, threads));
    expect_identical_outcome(one, many);
  }
}

// -- batch width is a throughput knob only ----------------------------------

TEST(SharedEngine, CompoundBatchWidthDoesNotChangeTrajectory) {
  for (const char* name : {"highway", "c532"}) {
    SCOPED_TRACE(name);
    const auto& nl = experiments::circuit(name);
    SolveSpec reference_spec = shared_spec(nl, 1);
    reference_spec.engine = "tabu";
    const std::size_t width = reference_spec.tabu.compound.width;
    ASSERT_EQ(reference_spec.tabu.compound.batch, 8u);
    const auto reference = Solver().solve(reference_spec);
    for (const std::size_t batch : {std::size_t{1}, std::size_t{3},
                                    std::size_t{8}, width + 1}) {
      for (const char* engine : {"tabu", "parallel-shared"}) {
        SCOPED_TRACE(std::string(engine) + " batch=" + std::to_string(batch));
        SolveSpec spec = shared_spec(nl, 2);
        spec.engine = engine;
        spec.tabu.compound.batch = batch;
        expect_identical_outcome(reference, Solver().solve(spec));
      }
    }
  }
}

TEST(SharedEngine, DiversifyBatchWidthDoesNotChangeTrajectory) {
  // Diversification runs on the TSW engines; the virtual-time one is
  // deterministic, so its whole run is comparable bit for bit.
  for (const char* name : {"highway", "c532"}) {
    SCOPED_TRACE(name);
    const auto& nl = experiments::circuit(name);
    SolveSpec spec = experiments::base_spec(nl, "parallel-sim", /*seed=*/11,
                                            /*quick=*/true);
    spec.parallel.num_tsws = 2;
    spec.parallel.clws_per_tsw = 2;
    spec.parallel.global_iterations = 3;
    spec.parallel.local_iterations = 3;
    ASSERT_EQ(spec.parallel.diversify.batch, 8u);
    const std::size_t width = spec.parallel.diversify.width;
    const auto reference = Solver().solve(spec);
    for (const std::size_t batch : {std::size_t{1}, std::size_t{3},
                                    std::size_t{8}, width + 1}) {
      SCOPED_TRACE("batch=" + std::to_string(batch));
      SolveSpec varied = spec;
      varied.parallel.diversify.batch = batch;
      const auto result = Solver().solve(varied);
      EXPECT_EQ(result.best_cost, reference.best_cost);
      EXPECT_EQ(result.best_slots, reference.best_slots);
      expect_same_y(result.best_vs_global, reference.best_vs_global);
      expect_same_y(result.best_vs_time, reference.best_vs_time);
    }
  }
}

// -- run control ------------------------------------------------------------

TEST(SharedEngine, IterationBudgetTruncatesBitIdentically) {
  const auto& nl = experiments::circuit("highway");
  auto spec = shared_spec(nl, 2, /*seed=*/31, /*iterations=*/80);
  const auto full = Solver().solve(spec);
  ASSERT_EQ(full.stop_reason, StopReason::Completed);

  spec.stop.max_iterations = 30;
  const auto capped = Solver().solve(spec);
  EXPECT_EQ(capped.stop_reason, StopReason::IterationBudget);
  EXPECT_EQ(capped.iterations, 30u);
  ASSERT_EQ(capped.best_trace.size(), 30u);
  for (std::size_t i = 0; i < 30; ++i) {
    EXPECT_EQ(capped.best_trace.y[i], full.best_trace.y[i]);
    EXPECT_EQ(capped.cost_trace.y[i], full.cost_trace.y[i]);
  }
}

TEST(SharedEngine, PreCancelledTokenStopsBeforeFirstIteration) {
  const auto& nl = experiments::circuit("highway");
  CancelToken token;
  token.cancel();
  auto spec = shared_spec(nl, 4);
  spec.stop.cancel = &token;
  const auto result = Solver().solve(spec);
  EXPECT_EQ(result.stop_reason, StopReason::Cancelled);
  EXPECT_EQ(result.iterations, 0u);
  EXPECT_EQ(result.best_cost, result.initial_cost);
}

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

TEST(SharedEngine, ObserverSeesEveryIterationWithoutPerturbing) {
  const auto& nl = experiments::circuit("highway");
  const auto plain = Solver().solve(shared_spec(nl, 2));

  auto observed_spec = shared_spec(nl, 2);
  CountingObserver observer;
  observed_spec.observer = &observer;
  observed_spec.stop.max_iterations = 1000000;  // engaged, never fires
  const auto observed = Solver().solve(observed_spec);

  expect_identical_outcome(plain, observed);
  EXPECT_EQ(observer.iteration_calls, observed.iterations);
  ASSERT_FALSE(observer.improvements.empty());
  EXPECT_EQ(observer.improvements.back(), observed.best_cost);
}

// -- oversubscription regression (workers > movable cells) ------------------

TEST(SharedEngine, OversubscribedThreadsClampAndSolve) {
  // highway has 56 movable cells; 64 threads must clamp, not abort.
  const auto& nl = experiments::circuit("highway");
  const auto result = Solver().solve(shared_spec(nl, 64, /*seed=*/3,
                                                 /*iterations=*/8));
  EXPECT_LE(result.best_cost, result.initial_cost);
  EXPECT_EQ(result.iterations, 8u);
  EXPECT_EQ(result.best_slots.size(), nl.num_movable());

  // And the clamped run is still the same search (thread-count invariance).
  const auto one = Solver().solve(shared_spec(nl, 1, /*seed=*/3,
                                              /*iterations=*/8));
  EXPECT_EQ(result.best_cost, one.best_cost);
  EXPECT_EQ(result.best_slots, one.best_slots);
}

TEST(SharedEngine, OversubscribedSimEngineSolves) {
  // partition_cells(n, workers) with workers > n used to hand empty ranges
  // to sample_move, which aborts. Both paper circuits small enough to
  // oversubscribe cheaply.
  for (const char* name : {"highway", "c532"}) {
    SCOPED_TRACE(name);
    const auto& nl = experiments::circuit(name);
    SolveSpec spec = experiments::base_spec(nl, "parallel-sim", /*seed=*/5,
                                            /*quick=*/true);
    spec.parallel.num_tsws = nl.num_movable() + 8;
    spec.parallel.clws_per_tsw = 1;
    spec.parallel.global_iterations = 1;
    spec.parallel.local_iterations = 1;
    const auto result = Solver().solve(spec);
    EXPECT_LE(result.best_cost, result.initial_cost);
    EXPECT_EQ(result.best_slots.size(), nl.num_movable());
  }
}

}  // namespace
}  // namespace pts::solver
