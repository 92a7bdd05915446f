// Compound move construction (the candidate-list worker's core loop).
//
// Per the paper: a compound move is built over up to `depth` levels. At each
// level, `width` candidate pairs are scored with Evaluator::probe_batch (one
// incremental pass per trial, no mutate-and-undo) and the best one is kept
// and committed — promoted from the probe scratch when it was the level's
// last candidate, re-applied otherwise. If the running cost drops below the
// starting cost before reaching max depth, the compound move is accepted
// immediately without further investigation (early accept).
//
// On return the evaluator HAS the compound move applied; undo_compound()
// reverts it (swaps are involutions, so undo re-applies them in reverse).
#pragma once

#include "cost/evaluator.hpp"
#include "support/rng.hpp"
#include "tabu/candidate.hpp"
#include "tabu/frequency.hpp"
#include "tabu/move.hpp"

namespace pts::tabu {

struct CompoundParams {
  /// m — candidate pairs trialled per level.
  std::size_t width = 8;
  /// d — maximum number of levels (swaps) in a compound move.
  std::size_t depth = 3;
  /// Early accept: stop as soon as the cost improves on the start cost.
  bool early_accept = true;
  /// Candidate batch width for Evaluator::probe_batch: each level's trials
  /// are scored in chunks of up to this many candidates (<= 1: chunks of
  /// one). Every width yields bit-identical costs and trajectories (each
  /// candidate is scored against the same committed state, and the
  /// reduction is the same first-strict-min) — this knob is purely a
  /// throughput choice.
  std::size_t batch = 8;
};

/// Samples `width` trial pairs from (movable, range, rng), scores them
/// through Evaluator::probe_batch in chunks of `batch` (bit-identical for
/// every chunk width) and returns the first-strict-min winner and its cost
/// (memory-adjusted for ranking when `use_memory`). The last trial stays
/// pending on `eval`, so commit_swap() of the winner promotes it when the
/// last trial won. Shared by the compound and diversification trial
/// loops; uses thread_local scratch, so steady state does not allocate.
void best_of_trials(cost::Evaluator& eval,
                    std::span<const netlist::CellId> movable,
                    const CellRange& range, std::size_t width,
                    std::size_t batch, Rng& rng, const FrequencyMemory* memory,
                    bool use_memory, Move* best_out, double* best_cost_out);

/// Builds and applies a compound move on `eval`, sampling first cells from
/// `range`, writing the applied swaps and final cost into `*out` (cleared
/// first). Callers that run every iteration (TabuSearch) pass a reused
/// member buffer so the steady state does not allocate. When `memory` is
/// non-null and active, per-level trial ranking uses the long-term
/// frequency adjustment (true costs are still what the move reports).
void build_compound_move(cost::Evaluator& eval, const CellRange& range,
                         const CompoundParams& params, Rng& rng,
                         const FrequencyMemory* memory, CompoundMove* out);

/// Convenience wrapper returning a fresh CompoundMove.
CompoundMove build_compound_move(cost::Evaluator& eval, const CellRange& range,
                                 const CompoundParams& params, Rng& rng,
                                 const FrequencyMemory* memory = nullptr);

/// Reverts a compound move previously applied by build_compound_move.
void undo_compound(cost::Evaluator& eval, const CompoundMove& move);

}  // namespace pts::tabu
