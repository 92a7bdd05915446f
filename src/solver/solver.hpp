// pts::solver — the unified front door over every search engine.
//
// One call runs any registered engine on any circuit and returns one result
// type:
//
//   const auto& circuit = pts::netlist::make_benchmark("c532");
//   pts::solver::SolveSpec spec;
//   spec.engine = "parallel-sim";   // Solver::engines() lists the registry
//   spec.netlist = &circuit;
//   spec.seed = 7;
//   const auto result = pts::solver::Solver().solve(spec);
//
// Built-in registry entries:
//   "tabu"              sequential tabu search (paper Fig. 1)
//   "anneal"            simulated-annealing baseline
//   "local"             steepest-descent local-search baseline
//   "constructive"      greedy constructive placement (no search)
//   "parallel-sim"      TSW/CLW decomposition, deterministic virtual time
//   "parallel-shared"   shared-memory threads over the CSR topology
//
// Every built-in engine is deterministic: the same spec gives bit-identical
// slots, costs, stats and traces (engine-clock x values aside), pinned for
// the whole registry by tests/determinism_test.cpp.
//
// The spec is validated before anything runs: Solver::validate() returns
// the full list of problems (empty = valid) so callers can report them;
// Solver::solve() refuses (PTS_CHECK-style abort) on an invalid spec
// instead of silently accepting nonsense.
//
// Run control (support/run_control.hpp) is threaded through every engine:
// StopConditions (iteration budget, wall/virtual time limit, target
// cost/quality, cooperative CancelToken) and an Observer streaming
// improvements and per-iteration progress. Stop checks and observer
// callbacks are read-only — a run whose conditions never fire is
// bit-identical to the same run without them, and Solver runs are
// bit-identical to direct engine invocation with the same seed (pinned by
// tests/solver_test.cpp).
//
// Seed derivation for the sequential engines ("tabu", "anneal", "local",
// "constructive") is part of the public contract so direct invocations can
// reproduce a Solver run:
//   initial placement rng = Rng(spec.seed ^ kInitStreamSalt)
//   engine search rng     = Rng(spec.seed ^ kSearchStreamSalt)
// The parallel engines receive spec.parallel with the shared seed/cost/tabu
// blocks overridden (see SolveSpec::parallel) and derive worker streams
// from PtsConfig exactly as a direct SimEngine run does.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "baselines/annealing.hpp"
#include "baselines/local_search.hpp"
#include "cost/evaluator.hpp"
#include "netlist/netlist.hpp"
#include "parallel/config.hpp"
#include "support/run_control.hpp"
#include "support/stats.hpp"
#include "tabu/search.hpp"

namespace pts::solver {

/// Salts for the sequential-engine RNG streams (see file comment).
inline constexpr std::uint64_t kInitStreamSalt = 0x696e'6974'2d70'6c63ULL;
inline constexpr std::uint64_t kSearchStreamSalt = 0x7365'6172'6368'2d73ULL;

/// Everything a run needs. Only the parameter block of the selected engine
/// is read; the shared fields apply to every engine.
struct SolveSpec {
  /// Registry key ("tabu", "anneal", "local", "constructive",
  /// "parallel-sim", "parallel-shared", or a custom registered engine).
  std::string engine = "tabu";
  /// Circuit to place; must outlive the call and its results.
  const netlist::Netlist* netlist = nullptr;

  // -- shared by every engine ---------------------------------------------
  std::uint64_t seed = 1;
  cost::CostParams cost;

  /// Warm start (ECO mode): when non-empty, the sequential search engines
  /// ("tabu", "anneal", "local") seed from this slot assignment — typically
  /// a prior SolveResult::best_slots — instead of the constructive random
  /// init. Must be a permutation of the netlist's movable cells (validated).
  /// Goal calibration still runs against the same-seed *random* placement,
  /// so warm and cold runs of one circuit rank solutions on an identical
  /// cost scale, and an empty vector leaves the cold path bit-identical to
  /// before this field existed. Rejected by "constructive" and the
  /// parallel engines.
  std::vector<netlist::CellId> initial_slots;

  // -- per-engine parameter blocks ----------------------------------------
  /// "tabu" and, as the TSW inner loop, both parallel engines.
  tabu::TabuParams tabu;
  baselines::AnnealParams anneal;       ///< "anneal"
  baselines::LocalSearchParams local;   ///< "local"
  /// "parallel-sim". The shared `seed`, `cost`, and
  /// `tabu` blocks above are authoritative: they overwrite the copies
  /// nested inside this config when the run starts.
  parallel::PtsConfig parallel;
  /// "parallel-shared" — thread count and chunking of the shared-memory
  /// backend (it reuses the `tabu` block as its search parameters and the
  /// sequential seed salts, so a 1-thread run is bit-identical to "tabu").
  parallel::SharedParams shared;

  // -- run control --------------------------------------------------------
  StopConditions stop;
  Observer* observer = nullptr;  ///< not owned; may be null
};

/// Superset of the engines' native result types (tabu::SearchResult,
/// baselines::AnnealResult/LocalSearchResult, parallel::PtsResult). Fields
/// an engine does not produce are left default (empty series, zero stats).
struct SolveResult {
  std::string engine;  ///< registry key that produced this result

  double initial_cost = 0.0;
  double best_cost = 0.0;
  double best_quality = 0.0;
  cost::Objectives best_objectives;
  /// Slot assignment (cell ids by slot) of the best solution.
  std::vector<netlist::CellId> best_slots;

  Series cost_trace;      ///< "tabu": current cost per traced iteration
  Series best_trace;      ///< sequential engines: best cost per iteration
  Series best_vs_time;    ///< best vs engine clock (tabu-family + parallel)
  Series best_vs_global;  ///< parallel engines: best per global iteration

  tabu::SearchStats stats;     ///< tabu-family engines (anneal maps moves)
  std::size_t iterations = 0;  ///< unified iteration/move count
  /// Engine seconds: virtual time for "parallel-sim", wall time otherwise.
  double makespan = 0.0;
  StopReason stop_reason = StopReason::Completed;
  bool converged = false;  ///< "local": stopped by patience

  /// First engine-clock instant the best reached `cost_threshold` (-1 if
  /// never, or if the engine does not record a best-vs-time series).
  double time_to_cost(double cost_threshold) const {
    return best_vs_time.first_x_reaching(cost_threshold);
  }
};

/// One search engine behind the front door. Implementations must be
/// stateless across solve() calls (one registered instance serves every
/// caller, possibly concurrently).
class Engine {
 public:
  virtual ~Engine() = default;

  virtual std::string_view name() const = 0;
  virtual std::string_view description() const = 0;

  /// Appends engine-specific spec problems to `errors`. The shared fields
  /// (netlist, cost, stop) are checked by Solver::validate before this.
  virtual void validate(const SolveSpec& spec,
                        std::vector<std::string>& errors) const {
    (void)spec;
    (void)errors;
  }

  /// Runs the engine; `spec` has passed validation. Implementations fill
  /// everything except SolveResult::engine (stamped by the Solver).
  virtual SolveResult solve(const SolveSpec& spec) const = 0;
};

/// Registers a custom engine under engine->name(). Returns false (and
/// discards the engine) if the name is already taken. Registered engines
/// live for the process; there is no unregister.
bool register_engine(std::unique_ptr<Engine> engine);

/// Looks up a registered engine; nullptr if unknown. The pointer stays
/// valid for the process lifetime.
const Engine* find_engine(std::string_view name);

/// Sorted names of every registered engine (built-ins plus custom).
std::vector<std::string> engine_names();

/// The front door. Stateless; cheap to construct wherever needed.
class Solver {
 public:
  /// Full list of problems with `spec` (empty = valid): unknown engine,
  /// missing/degenerate netlist, out-of-range parameters, nonsense stop
  /// conditions, plus the selected engine's own checks.
  std::vector<std::string> validate(const SolveSpec& spec) const;

  /// Validates, then dispatches to the selected engine. Aborts with the
  /// full error list on an invalid spec — use validate() first when the
  /// spec comes from user input.
  SolveResult solve(const SolveSpec& spec) const;

  /// Convenience alias for engine_names().
  static std::vector<std::string> engines() { return engine_names(); }
};

namespace detail {
/// Implemented in engines.cpp; called once by the registry bootstrap.
std::vector<std::unique_ptr<Engine>> make_builtin_engines();

/// Shared setup for the sequential engines: layout, the seed-derived
/// initial placement (random, or spec.initial_slots when warm-starting),
/// goals calibrated against the same-seed random placement, and an
/// evaluator carrying it all. Exposed for the checkpoint runner
/// (solver/checkpoint.hpp), which must replicate the engine recipe exactly.
struct SequentialSetup {
  std::unique_ptr<placement::Layout> layout;
  std::unique_ptr<cost::Evaluator> eval;
};

SequentialSetup make_sequential_setup(const SolveSpec& spec);
}  // namespace detail

}  // namespace pts::solver
