#include "tabu/compound.hpp"

#include <algorithm>

namespace pts::tabu {
namespace {

/// Per-level trial scratch. thread_local so the free-function call sites
/// (every engine's workers call through here) stay allocation-free in
/// steady state without threading a buffer through each signature.
struct TrialScratch {
  std::vector<Move> moves;
  std::vector<cost::Move> cmoves;
  std::vector<double> costs;
};
TrialScratch& trial_scratch() {
  thread_local TrialScratch scratch;
  return scratch;
}

}  // namespace

// Draws every pair before probing — probes consume no RNG, so the sample
// stream is the one an interleaved sample/probe loop would read — then
// scores chunks of `batch` candidates per Evaluator::probe_batch call.
void best_of_trials(cost::Evaluator& eval,
                    std::span<const netlist::CellId> movable,
                    const CellRange& range, std::size_t width,
                    std::size_t batch, Rng& rng, const FrequencyMemory* memory,
                    bool use_memory, Move* best_out, double* best_cost_out) {
  TrialScratch& scratch = trial_scratch();
  scratch.moves.clear();
  scratch.cmoves.clear();
  for (std::size_t trial = 0; trial < width; ++trial) {
    const Move move = sample_move(movable, range, rng);
    scratch.moves.push_back(move);
    scratch.cmoves.push_back({move.a, move.b});
  }
  scratch.costs.resize(width);
  const std::size_t chunk = std::max<std::size_t>(batch, 1);
  for (std::size_t i = 0; i < width; i += chunk) {
    const std::size_t n = std::min(chunk, width - i);
    eval.probe_batch(std::span(scratch.cmoves).subspan(i, n),
                     std::span(scratch.costs).subspan(i, n));
  }

  Move best{};
  double best_cost = 0.0;
  bool have_best = false;
  for (std::size_t trial = 0; trial < width; ++trial) {
    double cost_after = scratch.costs[trial];
    if (use_memory) {
      cost_after = memory->adjusted_cost(scratch.moves[trial], cost_after);
    }
    if (!have_best || cost_after < best_cost) {
      best = scratch.moves[trial];
      best_cost = cost_after;
      have_best = true;
    }
  }
  PTS_CHECK(have_best);
  *best_out = best;
  *best_cost_out = best_cost;
}

void build_compound_move(cost::Evaluator& eval, const CellRange& range,
                         const CompoundParams& params, Rng& rng,
                         const FrequencyMemory* memory, CompoundMove* out) {
  PTS_CHECK(params.width >= 1);
  PTS_CHECK(params.depth >= 1);
  PTS_DCHECK(out != nullptr);
  const double start_cost = eval.cost();
  const bool use_memory = memory != nullptr && memory->active();
  const std::span<const netlist::CellId> movable =
      eval.placement().netlist().movable_cells();

  CompoundMove& compound = *out;
  compound.swaps.clear();
  compound.swaps.reserve(params.depth);
  compound.improved_early = false;
  compound.cost = start_cost;
  for (std::size_t level = 0; level < params.depth; ++level) {
    Move best{};
    double best_cost = 0.0;
    best_of_trials(eval, movable, range, params.width, params.batch, rng,
                   memory, use_memory, &best, &best_cost);
    // Keep the level's best move (even if it degrades cost — that is what
    // lets the compound move escape local minima).
    compound.cost = eval.commit_swap(best.a, best.b);
    compound.swaps.push_back(best);
    if (params.early_accept && compound.cost < start_cost) {
      compound.improved_early = true;
      break;
    }
  }
}

CompoundMove build_compound_move(cost::Evaluator& eval, const CellRange& range,
                                 const CompoundParams& params, Rng& rng,
                                 const FrequencyMemory* memory) {
  CompoundMove compound;
  build_compound_move(eval, range, params, rng, memory, &compound);
  return compound;
}

void undo_compound(cost::Evaluator& eval, const CompoundMove& move) {
  for (auto it = move.swaps.rbegin(); it != move.swaps.rend(); ++it) {
    eval.apply_swap(it->a, it->b);
  }
}

}  // namespace pts::tabu
