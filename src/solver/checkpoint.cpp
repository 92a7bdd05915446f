#include "solver/checkpoint.hpp"

#include <utility>

#include "netlist/io.hpp"
#include "solver/fields.hpp"
#include "support/check.hpp"
#include "support/json.hpp"
#include "support/stopwatch.hpp"
#include "timing/paths.hpp"

namespace pts::solver {
namespace {

// ---------------------------------------------------------------------------
// Trace splicing.

Series splice(const Series& before, Series&& after, double x_offset = 0.0) {
  Series out;
  out.name = before.name.empty() ? after.name : before.name;
  out.x = before.x;
  out.y = before.y;
  out.x.reserve(out.x.size() + after.x.size());
  out.y.reserve(out.y.size() + after.y.size());
  for (double xv : after.x) out.x.push_back(xv + x_offset);
  out.y.insert(out.y.end(), after.y.begin(), after.y.end());
  return out;
}

// One code path for fresh and resumed runs keeps the recipes identical by
// construction: `from == nullptr` is a cold run (bit-identical to
// TabuEngine::solve), otherwise the engine state is restored before run().
CheckpointedSolve run_tabu_segment(const SolveSpec& spec, const Checkpoint* from) {
  auto setup = detail::make_sequential_setup(spec);
  tabu::TabuSearch search(*setup.eval, spec.tabu,
                          Rng(spec.seed ^ kSearchStreamSalt));

  double initial_cost = 0.0;
  double base_elapsed = 0.0;
  if (from != nullptr) {
    setup.eval->restore_checkpoint(from->eval);
    search.restore(from->search);
    initial_cost = from->initial_cost;
    base_elapsed = from->elapsed_seconds;
  } else {
    initial_cost = setup.eval->cost();
  }

  const Stopwatch watch;
  auto r = search.run(RunControl{spec.stop, spec.observer});
  const double segment_seconds = watch.seconds();

  CheckpointedSolve out;
  SolveResult& res = out.result;
  res.engine = "tabu";
  res.initial_cost = initial_cost;
  res.makespan = base_elapsed + segment_seconds;
  res.best_cost = r.best_cost;
  res.best_quality = r.best_quality;
  res.best_objectives = r.best_objectives;
  res.best_slots = std::move(r.best_slots);
  // stats_ is cumulative across restore (the checkpoint carries it), so the
  // segment's result.stats already covers the whole run.
  res.stats = r.stats;
  res.iterations = r.stats.iterations;
  res.stop_reason = r.stop_reason;
  if (from != nullptr) {
    // Iteration-indexed traces concatenate directly (the resumed loop
    // counts absolute iterations); the time trail shifts by the seconds the
    // interrupted run had already consumed.
    res.cost_trace = splice(from->cost_trace, std::move(r.cost_trace));
    res.best_trace = splice(from->best_trace, std::move(r.best_trace));
    res.best_vs_time =
        splice(from->best_vs_time, std::move(r.best_vs_time), base_elapsed);
  } else {
    res.cost_trace = std::move(r.cost_trace);
    res.best_trace = std::move(r.best_trace);
    res.best_vs_time = std::move(r.best_vs_time);
  }

  Checkpoint& ck = out.checkpoint;
  ck.engine = "tabu";
  ck.seed = spec.seed;
  ck.circuit_hash = netlist::content_hash(*spec.netlist);
  ck.initial_cost = initial_cost;
  ck.elapsed_seconds = res.makespan;
  ck.eval = setup.eval->checkpoint();
  ck.search = search.state();
  ck.cost_trace = res.cost_trace;
  ck.best_trace = res.best_trace;
  ck.best_vs_time = res.best_vs_time;
  return out;
}

// True when `slots` places every movable cell of `nl` exactly once (the
// length is checked by the caller).
bool is_movable_permutation(const netlist::Netlist& nl,
                            const std::vector<netlist::CellId>& slots) {
  std::vector<char> seen(nl.num_cells(), 0);
  for (const netlist::CellId c : slots) {
    if (c >= seen.size() || !nl.cell(c).movable() || seen[c]) return false;
    seen[c] = 1;
  }
  return true;
}

}  // namespace

CheckpointedSolve solve_with_checkpoint(const SolveSpec& spec) {
  PTS_CHECK_MSG(spec.engine == "tabu",
                "solve_with_checkpoint supports only the 'tabu' engine");
  const auto errors = Solver().validate(spec);
  PTS_CHECK_MSG(errors.empty(), "invalid SolveSpec for solve_with_checkpoint");
  return run_tabu_segment(spec, nullptr);
}

std::string check_resume_compatible(const SolveSpec& spec,
                                    const Checkpoint& checkpoint) {
  if (spec.engine != "tabu") {
    return "resume requires engine 'tabu', spec has '" + spec.engine + "'";
  }
  if (checkpoint.engine != "tabu") {
    return "checkpoint was taken by engine '" + checkpoint.engine +
           "', only 'tabu' checkpoints resume";
  }
  if (spec.netlist == nullptr) return "spec.netlist is null";
  if (spec.seed != checkpoint.seed) {
    return "seed mismatch: spec " + std::to_string(spec.seed) + ", checkpoint " +
           std::to_string(checkpoint.seed);
  }
  const std::uint64_t hash = netlist::content_hash(*spec.netlist);
  if (hash != checkpoint.circuit_hash) {
    return "circuit content hash mismatch: the checkpoint was taken against "
           "different circuit content";
  }
  const netlist::Netlist& nl = *spec.netlist;
  const std::size_t movable = nl.num_movable();
  if (checkpoint.eval.slots.size() != movable ||
      checkpoint.search.best_slots.size() != movable) {
    return "checkpoint slot vectors do not match the netlist's movable cell "
           "count";
  }
  // The remaining checks refuse what restoring would otherwise abort on.
  if (!is_movable_permutation(nl, checkpoint.eval.slots)) {
    return "checkpoint eval.slots is not a permutation of the movable cells";
  }
  if (!is_movable_permutation(nl, checkpoint.search.best_slots)) {
    return "checkpoint search.best_slots is not a permutation of the movable "
           "cells";
  }
  const auto& frequency = checkpoint.search.frequency;
  if (frequency.counts.size() != nl.num_cells() ||
      frequency.improving_counts.size() != nl.num_cells()) {
    return "checkpoint frequency counts do not match the netlist's cell count";
  }
  if (spec.cost.num_paths >= 1) {
    const auto paths = timing::extract_critical_paths(
        nl, spec.cost.num_paths, spec.cost.delay_model);
    if (checkpoint.eval.wire_sums.size() != paths->size()) {
      return "checkpoint has " + std::to_string(checkpoint.eval.wire_sums.size()) +
             " wire sums, the spec monitors " + std::to_string(paths->size()) +
             " paths";
    }
  }
  return {};
}

CheckpointedSolve resume_from_checkpoint(const SolveSpec& spec,
                                         const Checkpoint& checkpoint) {
  const std::string incompatible = check_resume_compatible(spec, checkpoint);
  PTS_CHECK_MSG(incompatible.empty(), incompatible.c_str());
  const auto errors = Solver().validate(spec);
  PTS_CHECK_MSG(errors.empty(), "invalid SolveSpec for resume_from_checkpoint");
  return run_tabu_segment(spec, &checkpoint);
}

// The checkpoint's field lists (the shared ones are in solver/fields.hpp).
// Checkpoints are read under Presence::Required: a checkpoint missing any
// member is damaged, not partial.

template <typename IO, Of<cost::Evaluator::CheckpointState> T>
void fields(IO& io, T& eval) {
  io.field("slots", eval.slots);
  io.field("hpwl_total", eval.hpwl_total);
  io.field("wire_sums", eval.wire_sums);
  io.field("swaps_applied", eval.swaps_applied);
  io.field("swaps_since_rebuild", eval.swaps_since_rebuild);
}

template <typename IO, Of<Rng::State> T>
void fields(IO& io, T& rng) {
  io.field("s", hex(rng.s));
  io.field("spare", rng.spare);
  io.field("has_spare", rng.has_spare);
}

template <typename IO, Of<tabu::FrequencyMemory::State> T>
void fields(IO& io, T& frequency) {
  io.field("counts", frequency.counts);
  io.field("improving_counts", frequency.improving_counts);
  io.field("transitions", frequency.transitions);
  io.field("max_count", frequency.max_count);
  io.field("max_improving", frequency.max_improving);
}

template <typename IO, Of<tabu::TabuSearch::State> T>
void fields(IO& io, T& search) {
  io.field("rng", search.rng);
  io.field("tabu_entries", search.tabu_entries);
  io.field("frequency", search.frequency);
  io.field("best_cost", search.best_cost);
  io.field("best_quality", search.best_quality);
  io.field("best_objectives", search.best_objectives);
  io.field("best_slots", search.best_slots);
  io.field("stats", search.stats);
}

template <typename IO, Of<Checkpoint> T>
void fields(IO& io, T& ck) {
  double version = 1.0;  // the format version; the reader overwrites it
  io.field("version", version);
  io.require(version == 1.0, "unsupported version");
  io.field("engine", ck.engine);
  io.require(ck.engine == "tabu", "engine must be 'tabu'");
  io.field("seed", hex(ck.seed));
  io.field("circuit_hash", hex(ck.circuit_hash));
  io.field("initial_cost", ck.initial_cost);
  io.field("elapsed_seconds", ck.elapsed_seconds);
  io.field("eval", ck.eval);
  io.field("search", ck.search);
  io.field("cost_trace", ck.cost_trace);
  io.field("best_trace", ck.best_trace);
  io.field("best_vs_time", ck.best_vs_time);
}

std::string encode_checkpoint(const Checkpoint& ck) { return encode_fields(ck); }

std::string decode_checkpoint(const std::string& text, Checkpoint* out) {
  PTS_CHECK(out != nullptr);
  Checkpoint ck;
  std::string error =
      decode_fields(text, "checkpoint", json::Reader::Presence::Required, ck);
  if (error.empty()) *out = std::move(ck);
  return error;
}

}  // namespace pts::solver
