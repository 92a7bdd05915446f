// Incremental multi-objective cost evaluation of a placement.
//
// The Evaluator owns a Placement and keeps the HPWL state and the K-paths
// delay estimate consistent with it across swaps. It is the single mutation
// point used by the tabu engine and by every candidate-list worker.
//
// Trial loops score candidate swaps with the probe/commit idiom
// (DESIGN.md §3). There is one scoring loop, probe_batch(): it computes the
// would-be cost of each candidate into member scratch without changing any
// observable state, and keeps the last candidate's scratch pending;
// commit_probe() promotes that pending candidate for the price of the
// bookkeeping alone — so a rejected trial costs one incremental pass instead
// of the mutate-and-undo pair's two. probe_swap() is the width-1 batch:
//
//   double after = eval.probe_swap(a, b);   // no observable state change
//   if (accept) eval.commit_probe();        // promote that probe; else: done
//
//   eval.probe_batch(moves, costs);         // N candidates, last one pending
//   eval.commit_swap(best.a, best.b);       // promote if last, else apply
//
// A probed cost is bit-identical to what apply_swap() would have returned
// against the same running totals (same floating-point summation order), and
// a commit leaves state bit-identical to the equivalent apply_swap() — the
// same-seed determinism guarantee does not care which path evaluated a move.
// Committed mutation stays available for non-trial uses:
//
//   double after = eval.apply_swap(a, b);   // mutate + incremental update
//   ...
//   eval.apply_swap(a, b);                  // swap is an involution: undo
//
// Each worker owns its own Evaluator (its private copy of the current
// solution); the PathSet is immutable and shared. Probe scratch lives in the
// Evaluator, so neither probe nor apply allocates in steady state.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "cost/fuzzy.hpp"
#include "netlist/netlist.hpp"
#include "placement/hpwl.hpp"
#include "placement/placement.hpp"
#include "timing/paths.hpp"

namespace pts::cost {

/// A candidate swap for batched evaluation (Evaluator::probe_batch).
struct Move {
  netlist::CellId a = netlist::kNoCell;
  netlist::CellId b = netlist::kNoCell;
};

struct CostParams {
  timing::DelayModel delay_model;
  /// Number of monitored critical paths for the delay estimate.
  std::size_t num_paths = 24;
  /// Goal calibration (see FuzzyGoals::calibrate).
  double target_improvement = 0.7;
  double initial_membership = 0.25;
  double beta = 0.6;
  /// Rebuild HPWL + path sums from scratch every this many swaps (caps
  /// floating-point drift in the running totals).
  std::size_t rebuild_interval = 1u << 14;
};

class Evaluator {
 public:
  /// Takes ownership of `placement`; goals are taken from `goals` so all
  /// workers of one search rank solutions identically.
  Evaluator(placement::Placement placement,
            std::shared_ptr<const timing::PathSet> paths, const CostParams& params,
            const FuzzyGoals& goals);

  Evaluator(const Evaluator&) = delete;
  Evaluator& operator=(const Evaluator&) = delete;

  const placement::Placement& placement() const { return placement_; }
  const FuzzyGoals& goals() const { return goals_; }
  const placement::HpwlState& hpwl() const { return hpwl_; }

  /// Current objective vector.
  Objectives objectives() const;
  /// Current scalar cost (1 - OWA of raw memberships); lower is better.
  double cost() const { return goals_.cost(objectives()); }
  /// Current quality in [0, 1]; higher is better.
  double quality() const { return goals_.quality(objectives()); }

  /// Swaps two movable cells, updates all incremental state, and returns
  /// the new scalar cost. Involution: calling again with the same pair
  /// undoes the move.
  double apply_swap(netlist::CellId a, netlist::CellId b);

  /// Returns the scalar cost apply_swap(a, b) would return, without
  /// changing any observable state: probe_batch() over the single candidate,
  /// which leaves it pending for commit_probe().
  double probe_swap(netlist::CellId a, netlist::CellId b);

  /// Scores N candidate swaps: costs[i] receives exactly what
  /// apply_swap(moves[i].a, moves[i].b) would return against the current
  /// committed state — bit-identical, pinned by tests/property_test.cpp —
  /// without mutating the placement geometry at all. Each candidate is
  /// described by a SwapOverlay (placement/overlay.hpp) staged into shadow
  /// position arrays (O(moved) writes, restored after the probe); its
  /// touched nets are recomputed by HpwlState::probe_nets, its net changes
  /// replayed by PathTimer::peek_delta, and FuzzyGoals::cost turns the
  /// objective tuple into a cost. A probe never triggers the periodic
  /// rebuild — probes add no floating-point drift, so only committed swaps
  /// count toward rebuild_interval. The last candidate's scratch (kept
  /// boxes, HPWL delta, moved cells, marked nets, peeked path sums) stays
  /// pending for commit_probe()/commit_swap(); earlier candidates leave
  /// nothing behind.
  void probe_batch(std::span<const Move> moves, std::span<double> costs);

  /// Promotes the pending probe (the last candidate of the immediately
  /// preceding probe_swap()/probe_batch()) into the committed state and
  /// returns the new scalar cost. The resulting state is bit-identical to
  /// apply_swap() of the probed pair, but costs only the geometry swap plus
  /// scratch promotion — no second incremental pass. Invalid after any
  /// intervening apply_swap()/reset_placement().
  double commit_probe();

  /// Commits the winning swap of a trial loop: promotes the pending probe
  /// when it is for this pair (either orientation — a swap is symmetric),
  /// otherwise falls back to apply_swap(a, b). Both paths leave
  /// bit-identical state, so callers need not track which trial won.
  double commit_swap(netlist::CellId a, netlist::CellId b);

  /// Replaces the current solution (e.g. with a broadcast best) and fully
  /// rebuilds incremental state.
  void reset_placement(const std::vector<netlist::CellId>& cell_at_slot);

  /// Number of swaps applied since construction (diagnostics).
  std::size_t swaps_applied() const { return swaps_applied_; }

  /// Everything needed to rebuild this evaluator's committed state bit for
  /// bit. The slot permutation and the derived geometry are exact stateless
  /// recomputes, but the running HPWL total and the per-path wire sums
  /// carry incremental summation-order drift, and the rebuild cadence
  /// depends on swaps_since_rebuild — so those are captured verbatim.
  struct CheckpointState {
    std::vector<netlist::CellId> slots;
    double hpwl_total = 0.0;
    std::vector<double> wire_sums;
    std::uint64_t swaps_applied = 0;
    std::uint64_t swaps_since_rebuild = 0;
  };

  CheckpointState checkpoint() const;

  /// Restores a checkpoint() image: after this, every probe/apply/commit
  /// produces bit-identical results to the evaluator the image was taken
  /// from. Must be called on an evaluator built over the same netlist,
  /// layout, paths, params, and goals.
  void restore_checkpoint(const CheckpointState& st);

  /// Measures the objectives of the initial placement of a search and
  /// calibrates shared fuzzy goals from them.
  static FuzzyGoals calibrate_goals(const placement::Placement& initial,
                                    const timing::PathSet& paths,
                                    const CostParams& params);

 private:
  void rebuild_all();
  /// Re-copies committed positions into the shadow arrays for `cells`.
  void refresh_shadow(std::span<const netlist::CellId> cells);

  placement::Placement placement_;
  std::shared_ptr<const timing::PathSet> paths_;
  CostParams params_;
  FuzzyGoals goals_;
  placement::HpwlState hpwl_;
  timing::PathTimer timer_;
  placement::NetMarker marker_;
  const netlist::Topology* topology_;  // CSR adjacency for the trial gather
  std::vector<netlist::CellId> moved_scratch_;
  std::vector<placement::NetChange> change_scratch_;
  std::vector<placement::NetBox> box_scratch_;
  // Shadow copy of the committed SoA positions. probe_batch overwrites
  // only a candidate's moved cells and restores them after the probe;
  // committed mutations (apply_swap/commit_probe) re-copy their moved cells,
  // and reset_placement re-copies everything, so the shadow always equals
  // the committed positions between calls.
  std::vector<double> shadow_x_;
  std::vector<double> shadow_y_;
  // Pending probe (the last candidate of the last probe_batch): the pair,
  // its weighted HPWL delta, and whether the scratch (moved_scratch_,
  // box_scratch_, marker_ nets, the timer's peek sums) still describes it.
  // Cleared by any committed mutation.
  netlist::CellId probe_a_ = netlist::kNoCell;
  netlist::CellId probe_b_ = netlist::kNoCell;
  double probe_delta_ = 0.0;
  bool probe_valid_ = false;
  std::size_t swaps_applied_ = 0;
  std::size_t swaps_since_rebuild_ = 0;
};

}  // namespace pts::cost
