// Shared-memory parallel tabu search (the "parallel-shared" backend).
//
// The paper's decomposition is reproduced faithfully over a PVM-style
// message protocol (SimEngine / ThreadedEngine); on one machine that
// protocol is pure overhead. This engine instead runs the *sequential*
// tabu search (TabuSearch, Figure 1) and parallelizes the one hot spot
// every iteration has: the width-many candidate probes of each compound
// level. Worker threads share the read-only CSR Topology and each own a
// private Evaluator replica; trials are distributed with the atomic-counter
// parallel-for in support/parallel_for.hpp (chunked grabs for cache
// locality) instead of mailbox messages. See DESIGN.md §8.
//
// Determinism contract — stronger than "deterministic for a fixed thread
// count": the cost trajectory is *independent of the thread count*, and the
// 1-thread run is bit-identical to the sequential "tabu" engine with the
// same seeds. Three properties make that hold (pinned by
// tests/shared_engine_test.cpp):
//
//  1. All candidate sampling happens on the coordinator, from the single
//     search stream, before the parallel region — probes consume no RNG, so
//     the draw order matches the sequential interleaved loop exactly.
//  2. probe_batch changes no observable state and is bit-identical against
//     equal committed state (DESIGN.md §3), so each trial's cost does not
//     depend on which thread probed it, in what sub-batch or in what
//     order. Replicas replay every coordinator mutation (an op log of
//     committed swaps) before probing, so their committed state is
//     bit-identical to the coordinator's — including the periodic
//     drift-control rebuild, which triggers at the same committed-swap
//     count everywhere.
//  3. The reduction runs on the coordinator in trial-index order with the
//     sequential rule (first strict minimum wins) — reduction order is part
//     of the API, exactly like summation order in the CSR layout (§7).
//
// Worker threads persist for the whole run (ThreadPool); a level dispatches
// one parallel region. Oversubscribed thread counts are clamped to the
// movable-cell count, mirroring the TSW/CLW engines' worker clamp.
#pragma once

#include <cstddef>
#include <cstdint>

#include "netlist/netlist.hpp"
#include "parallel/config.hpp"
#include "support/run_control.hpp"
#include "tabu/search.hpp"

namespace pts::parallel {

/// Everything one shared-memory run needs. The two seeds are the already
/// derived streams (the solver passes spec.seed ^ kInitStreamSalt /
/// kSearchStreamSalt, which is what makes the 1-thread run bit-identical to
/// the "tabu" engine); direct callers can pass any pair.
struct SharedConfig {
  SharedParams params;
  tabu::TabuParams tabu;
  cost::CostParams cost;
  std::uint64_t init_seed = 1;
  std::uint64_t search_seed = 1;
};

struct SharedResult {
  double initial_cost = 0.0;
  /// The sequential engine's result type, traces and stats included —
  /// the shared backend changes who evaluates trials, not what the search
  /// computes.
  tabu::SearchResult search;
  double makespan = 0.0;  ///< wall seconds
  std::size_t threads_used = 0;  ///< after the movable-cell clamp
};

class SharedEngine {
 public:
  SharedEngine(const netlist::Netlist& netlist, const SharedConfig& config);

  SharedResult run();
  SharedResult run(const RunControl& control);

  /// config.params.threads clamped to [1, num_movable].
  std::size_t effective_threads() const;

 private:
  const netlist::Netlist* netlist_;
  SharedConfig config_;
};

}  // namespace pts::parallel
