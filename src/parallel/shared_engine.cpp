#include "parallel/shared_engine.hpp"

#include <algorithm>
#include <memory>
#include <span>
#include <vector>

#include "cost/evaluator.hpp"
#include "placement/placement.hpp"
#include "support/parallel_for.hpp"
#include "support/stopwatch.hpp"
#include "timing/paths.hpp"

namespace pts::parallel {
namespace {

/// The parallel compound-move strategy (see shared_engine.hpp for the
/// determinism argument). evals[0] is the coordinator's evaluator — the one
/// TabuSearch owns and mutates; evals[1..] are per-thread replicas that
/// catch up with the coordinator's committed swaps through `oplog_` before
/// they probe.
class SharedCompoundStrategy final : public tabu::CompoundStrategy {
 public:
  SharedCompoundStrategy(ThreadPool& pool, std::vector<cost::Evaluator*> evals,
                         std::size_t chunk)
      : pool_(&pool), evals_(std::move(evals)), chunk_(chunk) {
    PTS_CHECK(evals_.size() == pool_->threads());
    cursors_.assign(evals_.size(), 0);
  }

  void build(cost::Evaluator& eval, const tabu::CellRange& range,
             const tabu::CompoundParams& params, Rng& rng,
             const tabu::FrequencyMemory* memory,
             tabu::CompoundMove* out) override {
    PTS_DCHECK(&eval == evals_[0]);
    const double start_cost = eval.cost();
    const bool use_memory = memory != nullptr && memory->active();
    const std::span<const netlist::CellId> movable =
        eval.placement().netlist().movable_cells();
    const std::size_t width = params.width;
    const std::size_t chunk = chunk_ != 0 ? chunk_ : auto_chunk(width);

    tabu::CompoundMove& compound = *out;
    compound.swaps.clear();
    compound.swaps.reserve(params.depth);
    compound.improved_early = false;
    compound.cost = start_cost;
    for (std::size_t level = 0; level < params.depth; ++level) {
      // Sampling stays on the coordinator, in trial order, from the single
      // search stream: probes consume no RNG, so this draws exactly the
      // sequence the sequential sample/probe interleave would.
      moves_.clear();
      cmoves_.clear();
      for (std::size_t trial = 0; trial < width; ++trial) {
        const tabu::Move move = tabu::sample_move(movable, range, rng);
        moves_.push_back(move);
        cmoves_.push_back({move.a, move.b});
      }
      costs_.resize(width);

      // Probe every trial against the current committed state. Probes are
      // state-independent of each other, so costs_[i] is the same number
      // whichever thread computes it, in whatever sub-batch. A thread scores
      // its claimed range in sub-batches of the configured batch width (the
      // same knob the sequential compound loop uses; <= 1 means one
      // candidate per call).
      const std::size_t batch = std::max<std::size_t>(params.batch, 1);
      parallel_for_chunked(
          *pool_, 0, width, chunk,
          [this, batch](std::size_t worker, std::size_t lo, std::size_t hi) {
            cost::Evaluator& ev = synced_evaluator(worker);
            for (std::size_t i = lo; i < hi; i += batch) {
              const std::size_t n = std::min(batch, hi - i);
              ev.probe_batch(std::span(cmoves_).subspan(i, n),
                             std::span(costs_).subspan(i, n));
            }
          });

      // Sequential reduction, trial-index order, first strict minimum wins
      // — the exact build_compound_move selection rule.
      tabu::Move best{};
      double best_cost = 0.0;
      bool have_best = false;
      for (std::size_t i = 0; i < width; ++i) {
        double cost_after = costs_[i];
        if (use_memory) cost_after = memory->adjusted_cost(moves_[i], cost_after);
        if (!have_best || cost_after < best_cost) {
          best = moves_[i];
          best_cost = cost_after;
          have_best = true;
        }
      }
      PTS_CHECK(have_best);
      compound.cost = eval.commit_swap(best.a, best.b);
      oplog_.push_back(best);
      compound.swaps.push_back(best);
      if (params.early_accept && compound.cost < start_cost) {
        compound.improved_early = true;
        break;
      }
    }
  }

  void undo(cost::Evaluator& eval, const tabu::CompoundMove& move) override {
    tabu::undo_compound(eval, move);
    // Log the undo swaps in the order undo_compound applied them so the
    // replicas replay the coordinator's mutation history verbatim (same
    // apply count keeps the drift-control rebuild cadence identical too).
    for (auto it = move.swaps.rbegin(); it != move.swaps.rend(); ++it) {
      oplog_.push_back(*it);
    }
  }

 private:
  /// One chunk per thread and change — coarse enough that the counter is
  /// bumped O(threads) times per level, fine enough to rebalance when one
  /// thread stalls.
  std::size_t auto_chunk(std::size_t width) const {
    const std::size_t grabs = pool_->threads() * 4;
    const std::size_t chunk = width / grabs;
    return chunk >= 1 ? chunk : 1;
  }

  /// Replays the coordinator's op log suffix onto this worker's replica.
  /// Worker 0 probes on the coordinator's evaluator itself, which is always
  /// current. Replay is lazy (a worker that claims no work this level
  /// catches up next time it does); the cursor guarantees every op is
  /// applied exactly once, in order.
  cost::Evaluator& synced_evaluator(std::size_t worker) {
    cost::Evaluator& ev = *evals_[worker];
    if (worker != 0) {
      std::size_t& cursor = cursors_[worker];
      while (cursor < oplog_.size()) {
        const tabu::Move& op = oplog_[cursor++];
        ev.apply_swap(op.a, op.b);
      }
    }
    return ev;
  }

  ThreadPool* pool_;
  std::vector<cost::Evaluator*> evals_;
  std::size_t chunk_;
  /// Every committed mutation of evals_[0], in application order (commits
  /// and undo re-applies alike). Grows by at most 2*depth moves per tabu
  /// iteration — bytes per iteration, never compacted.
  std::vector<tabu::Move> oplog_;
  std::vector<std::size_t> cursors_;  ///< per-worker oplog replay position
  std::vector<tabu::Move> moves_;     ///< level scratch: sampled trials
  std::vector<cost::Move> cmoves_;    ///< level scratch: trials as cost::Moves
  std::vector<double> costs_;         ///< level scratch: probed costs
};

}  // namespace

SharedEngine::SharedEngine(const netlist::Netlist& netlist,
                           const SharedConfig& config)
    : netlist_(&netlist), config_(config) {
  PTS_CHECK(config_.tabu.compound.width >= 1);
  PTS_CHECK(config_.tabu.compound.depth >= 1);
}

std::size_t SharedEngine::effective_threads() const {
  const std::size_t cap =
      netlist_->num_movable() >= 1 ? netlist_->num_movable() : 1;
  const std::size_t requested = config_.params.threads;
  if (requested < 1) return 1;
  return requested < cap ? requested : cap;
}

SharedResult SharedEngine::run() { return run(RunControl{}); }

SharedResult SharedEngine::run(const RunControl& control) {
  const netlist::Netlist& nl = *netlist_;
  const std::size_t threads = effective_threads();

  // Setup recipe identical to the solver's sequential engines: layout,
  // init-stream random placement, K critical paths, goals calibrated
  // against the initial solution.
  const placement::Layout layout(nl);
  Rng init_rng(config_.init_seed);
  auto initial = placement::Placement::random(nl, layout, init_rng);
  auto paths = timing::extract_critical_paths(nl, config_.cost.num_paths,
                                              config_.cost.delay_model);
  const cost::FuzzyGoals goals =
      cost::Evaluator::calibrate_goals(initial, *paths, config_.cost);
  const std::vector<netlist::CellId> initial_slots = initial.slots();
  cost::Evaluator coordinator(std::move(initial), paths, config_.cost, goals);

  // Per-thread replicas of the initial solution. Construction rebuilds all
  // incremental state from the placement, so replica totals are
  // bit-identical to the coordinator's.
  std::vector<std::unique_ptr<cost::Evaluator>> replicas;
  replicas.reserve(threads - 1);
  for (std::size_t t = 1; t < threads; ++t) {
    placement::Placement p(nl, layout);
    p.assign_slots(initial_slots);
    replicas.push_back(std::make_unique<cost::Evaluator>(std::move(p), paths,
                                                         config_.cost, goals));
  }
  std::vector<cost::Evaluator*> evals;
  evals.reserve(threads);
  evals.push_back(&coordinator);
  for (auto& r : replicas) evals.push_back(r.get());

  SharedResult out;
  out.initial_cost = coordinator.cost();
  out.threads_used = threads;

  ThreadPool pool(threads);
  SharedCompoundStrategy strategy(pool, std::move(evals),
                                  config_.params.chunk);
  tabu::TabuSearch search(coordinator, config_.tabu, Rng(config_.search_seed));
  search.set_compound_strategy(&strategy);
  const Stopwatch watch;
  out.search = search.run(control);
  out.makespan = watch.seconds();
  return out;
}

}  // namespace pts::parallel
