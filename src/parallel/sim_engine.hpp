// Deterministic virtual-time engine for the parallel tabu search.
//
// Executes the paper's TSW/CLW message-passing algorithm — the worker state
// machines of worker_logic.hpp, the paper's selection/tabu logic and
// collection policies — on a discrete-event virtual clock instead of a
// cluster of workstations. Every CLW trial is charged
// `trial_work / machine_speed` (jittered) virtual seconds on the
// machine the task is bound to; the half-force policy cuts stragglers at
// the exact virtual instant the threshold report count is reached, and a
// cut CLW reports the best compound prefix it had completed *by that
// instant* (ClwSearch records per-step prefix snapshots for this).
//
// This is the engine behind every figure bench: on a one-core host, real
// threads cannot exhibit parallel speedup, but the paper's speedup and
// runtime shapes are fully determined by work/speed ratios and collection
// policy, which virtual time reproduces deterministically (DESIGN.md §2,5).
//
// Machine contention: when the search spawns more worker tasks (TSWs +
// CLWs) than the cluster has machines, co-resident workers time-share. The
// engine models this statically: a worker bound to a machine shared by k
// workers runs at speed/k (SimCosts::model_contention). This is what makes
// adding TSWs beyond the cluster capacity counter-productive — the paper's
// Figure 8 "critical point" at 4 TSWs on 12 machines.
//
// Fault tolerance: PtsConfig::faults scripts TSW stall/death faults
// (support/fault.hpp). A dead TSW stops producing reports; the master
// declares any TSW whose report would arrive more than
// `faults.report_deadline` virtual seconds after the earliest arrival dead,
// removes it permanently, and re-partitions the movable cells among the
// survivors (their diversification ranges), so the search completes on the
// remaining workers. The recovery is fully deterministic given the script;
// an empty script leaves the engine on its historical code path, so
// fault-free trajectories are bit-identical to the goldens.
//
// Simulation fidelity notes (documented deviations, none affect reported
// results):
//  - A cut worker's RNG stream advances as if it had finished its
//    investigation; only its *report* is truncated to the cutoff.
//  - A cut TSW's tabu list may contain post-cutoff entries when its best
//    snapshot wins the broadcast; the paper does not specify this case.
//  - Contention is static (idle phases not credited back).
#pragma once

#include "parallel/config.hpp"
#include "parallel/worker_logic.hpp"

namespace pts::parallel {

class SimEngine {
 public:
  SimEngine(const netlist::Netlist& netlist, const PtsConfig& config);

  /// Runs the full search and returns the result with virtual-time series.
  PtsResult run();

  /// Like run(), but honors caller stop conditions — checked before the
  /// run and after every non-final global iteration against the *virtual*
  /// clock, so time limits are deterministic — and streams progress
  /// (virtual-time improvements, per-global-iteration ticks) to the
  /// observer. Checks and callbacks are read-only: a run whose conditions
  /// never fire is bit-identical to run().
  PtsResult run(const RunControl& control);

 private:
  struct ClwSlot {
    ClwSearch search;
    Rng algo_rng;                  ///< candidate sampling
    Rng time_rng;                  ///< machine load jitter
    pvm::MachineProfile machine;   ///< effective profile (contention-scaled)
    double base_speed = 1.0;       ///< machine.speed before stall scaling
    std::vector<double> step_end;  ///< per-step completion offsets
    ClwSlot(tabu::CellRange range, const tabu::CompoundParams& params)
        : search(range, params), algo_rng(0), time_rng(0) {}
  };

  struct SimTsw {
    std::unique_ptr<cost::Evaluator> eval;
    std::unique_ptr<TswState> state;
    std::vector<ClwSlot> clws;
    pvm::MachineProfile machine;  ///< effective profile (contention-scaled)
    double base_speed = 1.0;      ///< machine.speed before stall scaling
    Rng time_rng{0};
    double clock = 0.0;      ///< this TSW's virtual time
    double report_time = 0.0;
    bool was_cut = false;
    // Report content for the current global iteration:
    double report_cost = 0.0;
    std::vector<netlist::CellId> report_slots;
    // Fault-injection state (only ever set when config.faults is enabled):
    bool dead_task = false;         ///< Death fault fired; produces no reports
    bool lost = false;              ///< master declared it dead; excluded
    std::size_t stall_left = 0;     ///< global iterations still stalled
    double stall_factor = 1.0;      ///< active slowdown while stalled
  };

  /// Simulates one local iteration of `tsw` (all its CLWs + selection);
  /// advances tsw.clock.
  void run_local_iteration(SimTsw& tsw);

  SearchSetup setup_;
  std::vector<SimTsw> tsws_;
};

}  // namespace pts::parallel
