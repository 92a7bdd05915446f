// Configuration and result types for the parallel tabu search.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "cost/evaluator.hpp"
#include "parallel/policy.hpp"
#include "pvm/machine.hpp"
#include "support/fault.hpp"
#include "support/run_control.hpp"
#include "support/stats.hpp"
#include "tabu/search.hpp"

namespace pts::parallel {

/// Work-unit accounting of the virtual-time engine. The unit is "one
/// candidate trial swap"; everything else is expressed relative to it.
struct SimCosts {
  /// Work per CLW trial (apply + evaluate + undo one swap).
  double trial_work = 1.0;
  /// Work per forced diversification swap on the TSW.
  double diversify_work_per_swap = 1.0;
  /// TSW work per candidate examined during selection/tabu testing.
  double tsw_select_work = 0.25;
  /// Master work per TSW report examined during global selection.
  double master_select_work = 0.5;
  /// One-way message latency in virtual seconds (LAN hop).
  double message_latency = 0.02;
  /// Model time-sharing among co-resident tasks (see SimEngine docs). Each
  /// task contributes an *activity weight* to its machine — CLWs compute
  /// almost continuously (1.0), TSWs mostly wait on their CLWs
  /// (tsw_activity), the master is negligible — and every worker on a
  /// machine with total weight W > 1 runs at speed/W.
  bool model_contention = true;
  double tsw_activity = 0.15;
};

/// Parameters of the shared-memory backend ("parallel-shared"). Lives here
/// (not in shared_engine.hpp) so SolveSpec can embed it without pulling the
/// engine into the solver header.
struct SharedParams {
  /// Worker threads sharing the candidate evaluation; clamped to the number
  /// of movable cells (and to >= 1) by the engine. Results are independent
  /// of the thread count (see shared_engine.hpp), so this is purely a
  /// throughput knob.
  std::size_t threads = 4;
  /// Trials claimed per counter grab in the parallel region; 0 picks a
  /// chunk that spreads the level's width over the pool.
  std::size_t chunk = 0;
};

struct PtsConfig {
  /// High-level parallelization degree (multi-search threads).
  std::size_t num_tsws = 4;
  /// Low-level parallelization degree (candidate-list workers per TSW).
  std::size_t clws_per_tsw = 1;
  /// L — tabu iterations each TSW runs per global iteration.
  std::size_t local_iterations = 10;
  /// G — master collect/broadcast rounds.
  std::size_t global_iterations = 10;

  tabu::TabuParams tabu;
  tabu::DiversifyParams diversify;
  cost::CostParams cost;

  /// The emulated cluster (paper: 7 fast / 3 medium / 2 slow).
  pvm::ClusterConfig cluster = pvm::ClusterConfig::paper_cluster();

  /// Collection policy master -> TSWs and TSW -> CLWs. The paper applies
  /// the same rule at both levels (§4.2).
  PolicyParams master_policy;
  PolicyParams tsw_policy;

  SimCosts sim;
  std::uint64_t seed = 1;

  /// When true, every TSW (and its CLWs) draws from the *same* random
  /// stream, so without diversification all TSWs duplicate the same search
  /// exactly. This is the faithful reading of the paper's MPSS
  /// classification — diversification w.r.t. distinct cell ranges is what
  /// makes the search "multiple points" (§4.3) — and is what Figure 9
  /// ablates. Default false: each worker gets an independent stream.
  bool shared_tsw_streams = false;

  /// Scripted TSW stall/death faults replayed by the sim engine (see
  /// support/fault.hpp and SimEngine docs). Empty: the engine takes its
  /// historical fault-free path, bit-identical to the goldens.
  fault::WorkerFaultScript faults;

  /// Convenience: set both collection policies at once.
  void set_policy(CollectionPolicy policy, double threshold = 0.5) {
    master_policy = {policy, threshold};
    tsw_policy = {policy, threshold};
  }
};

struct PtsResult {
  double initial_cost = 0.0;
  double best_cost = 0.0;
  double best_quality = 0.0;
  cost::Objectives best_objectives;
  std::vector<netlist::CellId> best_slots;

  /// Virtual seconds from start to final collect.
  double makespan = 0.0;
  /// Global-best improvement trajectory over time; starts at (0, initial).
  Series best_vs_time;
  /// Global best after each global iteration (x = iteration index).
  Series best_vs_global;
  /// Aggregated TSW statistics.
  tabu::SearchStats stats;
  /// Completed unless a caller-supplied stop condition fired first (stop
  /// checks run at global-iteration granularity).
  StopReason stop_reason = StopReason::Completed;
  /// TSWs the master declared dead (missed their report deadline) and
  /// whose cell ranges were redistributed; 0 on fault-free runs.
  std::size_t workers_lost = 0;

  /// First time the global best reached `cost_threshold` (-1 if never);
  /// the paper's speedup uses t(1, x) / t(n, x) on this quantity.
  double time_to_cost(double cost_threshold) const {
    return best_vs_time.first_x_reaching(cost_threshold);
  }
};

/// Immutable per-run setup shared by all workers of one search: layout,
/// initial solution, monitored paths, calibrated goals. The stored config
/// has num_tsws / clws_per_tsw clamped to the movable-cell count (and to
/// >= 1): more workers than cells would give some of them empty
/// partition_cells ranges, which sample_move refuses.
struct SearchSetup {
  SearchSetup(const netlist::Netlist& netlist, const PtsConfig& config);

  /// Builds a worker-private evaluator seeded with `slots`.
  std::unique_ptr<cost::Evaluator> make_evaluator(
      const std::vector<netlist::CellId>& slots) const;

  const netlist::Netlist* netlist;
  PtsConfig config;
  placement::Layout layout;
  std::vector<netlist::CellId> initial_slots;
  std::shared_ptr<const timing::PathSet> paths;
  cost::FuzzyGoals goals;
  double initial_cost = 0.0;
};

}  // namespace pts::parallel
