#include "solver/checkpoint.hpp"

#include <charconv>
#include <cmath>
#include <limits>
#include <utility>

#include "netlist/io.hpp"
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

// ---------------------------------------------------------------------------
// JSON encode.

std::string hex_u64(std::uint64_t v) {
  char buf[17];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v, 16);
  return std::string(buf, res.ptr);
}

/// `key` followed by the numbers of `vs` as an array.
template <typename T>
void write_numbers(json::Writer& w, std::string_view key, const std::vector<T>& vs) {
  w.key(key).begin_array();
  for (const T v : vs) w.value(v);
  w.end_array();
}

void write_series(json::Writer& w, std::string_view key, const Series& s) {
  w.key(key).begin_object();
  w.field("name", s.name);
  write_numbers(w, "x", s.x);
  write_numbers(w, "y", s.y);
  w.end_object();
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

std::string encode_checkpoint(const Checkpoint& ck) {
  // Member order is the checkpoint format (tests/codec_test.cpp pins a
  // golden encoding).
  json::Writer w;
  w.begin_object();
  w.field("version", 1.0);
  w.field("engine", ck.engine);
  w.field("seed", hex_u64(ck.seed));
  w.field("circuit_hash", hex_u64(ck.circuit_hash));
  w.field("initial_cost", ck.initial_cost);
  w.field("elapsed_seconds", ck.elapsed_seconds);

  w.key("eval").begin_object();
  write_numbers(w, "slots", ck.eval.slots);
  w.field("hpwl_total", ck.eval.hpwl_total);
  write_numbers(w, "wire_sums", ck.eval.wire_sums);
  w.field("swaps_applied", ck.eval.swaps_applied);
  w.field("swaps_since_rebuild", ck.eval.swaps_since_rebuild);
  w.end_object();

  const tabu::TabuSearch::State& search = ck.search;
  w.key("search").begin_object();
  w.key("rng").begin_object();
  w.key("s").begin_array();
  for (std::uint64_t word : search.rng.s) w.value(hex_u64(word));
  w.end_array();
  w.field("spare", search.rng.spare);
  w.field("has_spare", search.rng.has_spare);
  w.end_object();
  w.key("tabu_entries").begin_array();
  for (const tabu::Move& m : search.tabu_entries) {
    w.begin_array().value(m.a).value(m.b).end_array();
  }
  w.end_array();
  w.key("frequency").begin_object();
  write_numbers(w, "counts", search.frequency.counts);
  write_numbers(w, "improving_counts", search.frequency.improving_counts);
  w.field("transitions", search.frequency.transitions);
  w.field("max_count", search.frequency.max_count);
  w.field("max_improving", search.frequency.max_improving);
  w.end_object();
  w.field("best_cost", search.best_cost);
  w.field("best_quality", search.best_quality);
  w.key("best_objectives").begin_object();
  w.field("wirelength", search.best_objectives.wirelength);
  w.field("delay", search.best_objectives.delay);
  w.field("area", search.best_objectives.area);
  w.end_object();
  write_numbers(w, "best_slots", search.best_slots);
  w.key("stats").begin_object();
  w.field("iterations", search.stats.iterations);
  w.field("accepted", search.stats.accepted);
  w.field("rejected_tabu", search.stats.rejected_tabu);
  w.field("aspirated", search.stats.aspirated);
  w.field("early_accepts", search.stats.early_accepts);
  w.field("trials", search.stats.trials);
  w.end_object();
  w.end_object();

  write_series(w, "cost_trace", ck.cost_trace);
  write_series(w, "best_trace", ck.best_trace);
  write_series(w, "best_vs_time", ck.best_vs_time);
  w.end_object();
  return w.take();
}

namespace {

// ---------------------------------------------------------------------------
// JSON decode. First-error-wins; every helper returns false after recording.

struct Dec {
  std::string error;

  bool fail(std::string why) {
    if (error.empty()) error = "checkpoint: " + std::move(why);
    return false;
  }

  const json::Value* get_object(const json::Value& obj, const char* key) {
    const json::Value* v = obj.find(key);
    if (v == nullptr || !v->is_object()) {
      fail(std::string("'") + key + "' must be an object");
      return nullptr;
    }
    return v;
  }

  bool get_finite(const json::Value& obj, const char* key, double* out) {
    const json::Value* v = obj.find(key);
    if (v == nullptr || !v->is_number()) {
      return fail(std::string("'") + key + "' must be a number");
    }
    if (!std::isfinite(v->as_number())) {
      return fail(std::string("'") + key + "' must be finite");
    }
    *out = v->as_number();
    return true;
  }

  bool get_bool(const json::Value& obj, const char* key, bool* out) {
    const json::Value* v = obj.find(key);
    if (v == nullptr || !v->is_bool()) {
      return fail(std::string("'") + key + "' must be a boolean");
    }
    *out = v->as_bool();
    return true;
  }

  bool get_string(const json::Value& obj, const char* key, std::string* out) {
    const json::Value* v = obj.find(key);
    if (v == nullptr || !v->is_string()) {
      return fail(std::string("'") + key + "' must be a string");
    }
    *out = v->as_string();
    return true;
  }

  bool hex_to_u64(const std::string& text, const char* what, std::uint64_t* out) {
    const char* begin = text.data();
    const char* end = begin + text.size();
    const auto res = std::from_chars(begin, end, *out, 16);
    if (res.ec != std::errc{} || res.ptr != end || text.empty()) {
      return fail(std::string("'") + what + "' must be a hex u64 string");
    }
    return true;
  }

  bool get_hex_u64(const json::Value& obj, const char* key, std::uint64_t* out) {
    std::string text;
    if (!get_string(obj, key, &text)) return false;
    return hex_to_u64(text, key, out);
  }

  bool number_to_uint(const json::Value& v, const char* what, std::uint64_t* out) {
    if (!v.is_number()) return fail(std::string("'") + what + "' must be a number");
    const double d = v.as_number();
    if (!(d >= 0.0) || d != std::floor(d) || d > 9007199254740992.0) {
      return fail(std::string("'") + what +
                  "' must be a non-negative integer within 2^53");
    }
    *out = static_cast<std::uint64_t>(d);
    return true;
  }

  bool get_uint(const json::Value& obj, const char* key, std::uint64_t* out) {
    const json::Value* v = obj.find(key);
    if (v == nullptr) return fail(std::string("'") + key + "' is required");
    return number_to_uint(*v, key, out);
  }

  bool get_doubles(const json::Value& obj, const char* key,
                   std::vector<double>* out) {
    const json::Value* v = obj.find(key);
    if (v == nullptr || !v->is_array()) {
      return fail(std::string("'") + key + "' must be an array");
    }
    out->clear();
    out->reserve(v->items().size());
    for (const json::Value& item : v->items()) {
      if (!item.is_number() || !std::isfinite(item.as_number())) {
        return fail(std::string("'") + key + "' must hold finite numbers");
      }
      out->push_back(item.as_number());
    }
    return true;
  }

  template <typename T>
  bool get_uints(const json::Value& obj, const char* key, std::vector<T>* out) {
    const json::Value* v = obj.find(key);
    if (v == nullptr || !v->is_array()) {
      return fail(std::string("'") + key + "' must be an array");
    }
    out->clear();
    out->reserve(v->items().size());
    for (const json::Value& item : v->items()) {
      std::uint64_t u = 0;
      if (!number_to_uint(item, key, &u)) return false;
      if (u > std::numeric_limits<T>::max()) {
        return fail(std::string("'") + key + "' element out of range");
      }
      out->push_back(static_cast<T>(u));
    }
    return true;
  }

  bool get_series(const json::Value& obj, const char* key, Series* out) {
    const json::Value* v = get_object(obj, key);
    if (v == nullptr) return false;
    if (!get_string(*v, "name", &out->name)) return false;
    if (!get_doubles(*v, "x", &out->x)) return false;
    if (!get_doubles(*v, "y", &out->y)) return false;
    if (out->x.size() != out->y.size()) {
      return fail(std::string("'") + key + "' x/y lengths differ");
    }
    return true;
  }
};

}  // namespace

std::string decode_checkpoint(const std::string& text, Checkpoint* out) {
  PTS_CHECK(out != nullptr);
  std::string parse_error;
  const auto root = json::parse(text, &parse_error);
  if (!root.has_value()) return "checkpoint: invalid JSON: " + parse_error;
  if (!root->is_object()) return "checkpoint: top level must be an object";

  Dec dec;
  Checkpoint ck;
  double version = 0.0;
  if (!dec.get_finite(*root, "version", &version)) return dec.error;
  if (version != 1.0) return "checkpoint: unsupported version";
  if (!dec.get_string(*root, "engine", &ck.engine)) return dec.error;
  if (ck.engine != "tabu") return "checkpoint: engine must be 'tabu'";
  if (!dec.get_hex_u64(*root, "seed", &ck.seed)) return dec.error;
  if (!dec.get_hex_u64(*root, "circuit_hash", &ck.circuit_hash)) return dec.error;
  if (!dec.get_finite(*root, "initial_cost", &ck.initial_cost)) return dec.error;
  if (!dec.get_finite(*root, "elapsed_seconds", &ck.elapsed_seconds)) {
    return dec.error;
  }

  const json::Value* eval = dec.get_object(*root, "eval");
  if (eval == nullptr) return dec.error;
  if (!dec.get_uints(*eval, "slots", &ck.eval.slots)) return dec.error;
  if (!dec.get_finite(*eval, "hpwl_total", &ck.eval.hpwl_total)) return dec.error;
  if (!dec.get_doubles(*eval, "wire_sums", &ck.eval.wire_sums)) return dec.error;
  if (!dec.get_uint(*eval, "swaps_applied", &ck.eval.swaps_applied)) {
    return dec.error;
  }
  if (!dec.get_uint(*eval, "swaps_since_rebuild", &ck.eval.swaps_since_rebuild)) {
    return dec.error;
  }

  const json::Value* search = dec.get_object(*root, "search");
  if (search == nullptr) return dec.error;
  const json::Value* rng = dec.get_object(*search, "rng");
  if (rng == nullptr) return dec.error;
  {
    const json::Value* words = rng->find("s");
    if (words == nullptr || !words->is_array() || words->items().size() != 4) {
      return "checkpoint: 'rng.s' must be an array of 4 hex strings";
    }
    for (int i = 0; i < 4; ++i) {
      const json::Value& w = words->items()[static_cast<std::size_t>(i)];
      if (!w.is_string()) return "checkpoint: 'rng.s' must hold hex strings";
      if (!dec.hex_to_u64(w.as_string(), "rng.s", &ck.search.rng.s[i])) {
        return dec.error;
      }
    }
    if (!dec.get_finite(*rng, "spare", &ck.search.rng.spare)) return dec.error;
    if (!dec.get_bool(*rng, "has_spare", &ck.search.rng.has_spare)) {
      return dec.error;
    }
  }
  {
    const json::Value* entries = search->find("tabu_entries");
    if (entries == nullptr || !entries->is_array()) {
      return "checkpoint: 'tabu_entries' must be an array";
    }
    ck.search.tabu_entries.clear();
    ck.search.tabu_entries.reserve(entries->items().size());
    for (const json::Value& pair : entries->items()) {
      if (!pair.is_array() || pair.items().size() != 2) {
        return "checkpoint: each tabu entry must be a [a, b] pair";
      }
      std::uint64_t a = 0, b = 0;
      if (!dec.number_to_uint(pair.items()[0], "tabu_entries", &a) ||
          !dec.number_to_uint(pair.items()[1], "tabu_entries", &b)) {
        return dec.error;
      }
      if (a > std::numeric_limits<netlist::CellId>::max() ||
          b > std::numeric_limits<netlist::CellId>::max()) {
        return "checkpoint: tabu entry cell id out of range";
      }
      ck.search.tabu_entries.push_back(
          tabu::Move{static_cast<netlist::CellId>(a),
                     static_cast<netlist::CellId>(b)});
    }
  }
  const json::Value* freq = dec.get_object(*search, "frequency");
  if (freq == nullptr) return dec.error;
  if (!dec.get_uints(*freq, "counts", &ck.search.frequency.counts)) {
    return dec.error;
  }
  if (!dec.get_uints(*freq, "improving_counts",
                     &ck.search.frequency.improving_counts)) {
    return dec.error;
  }
  if (!dec.get_uint(*freq, "transitions", &ck.search.frequency.transitions)) {
    return dec.error;
  }
  if (!dec.get_uint(*freq, "max_count", &ck.search.frequency.max_count)) {
    return dec.error;
  }
  if (!dec.get_uint(*freq, "max_improving", &ck.search.frequency.max_improving)) {
    return dec.error;
  }
  if (!dec.get_finite(*search, "best_cost", &ck.search.best_cost)) {
    return dec.error;
  }
  if (!dec.get_finite(*search, "best_quality", &ck.search.best_quality)) {
    return dec.error;
  }
  const json::Value* objectives = dec.get_object(*search, "best_objectives");
  if (objectives == nullptr) return dec.error;
  if (!dec.get_finite(*objectives, "wirelength",
                      &ck.search.best_objectives.wirelength) ||
      !dec.get_finite(*objectives, "delay", &ck.search.best_objectives.delay) ||
      !dec.get_finite(*objectives, "area", &ck.search.best_objectives.area)) {
    return dec.error;
  }
  if (!dec.get_uints(*search, "best_slots", &ck.search.best_slots)) {
    return dec.error;
  }
  const json::Value* stats = dec.get_object(*search, "stats");
  if (stats == nullptr) return dec.error;
  {
    std::uint64_t u = 0;
    if (!dec.get_uint(*stats, "iterations", &u)) return dec.error;
    ck.search.stats.iterations = static_cast<std::size_t>(u);
    if (!dec.get_uint(*stats, "accepted", &u)) return dec.error;
    ck.search.stats.accepted = static_cast<std::size_t>(u);
    if (!dec.get_uint(*stats, "rejected_tabu", &u)) return dec.error;
    ck.search.stats.rejected_tabu = static_cast<std::size_t>(u);
    if (!dec.get_uint(*stats, "aspirated", &u)) return dec.error;
    ck.search.stats.aspirated = static_cast<std::size_t>(u);
    if (!dec.get_uint(*stats, "early_accepts", &u)) return dec.error;
    ck.search.stats.early_accepts = static_cast<std::size_t>(u);
    if (!dec.get_uint(*stats, "trials", &u)) return dec.error;
    ck.search.stats.trials = static_cast<std::size_t>(u);
  }

  if (!dec.get_series(*root, "cost_trace", &ck.cost_trace)) return dec.error;
  if (!dec.get_series(*root, "best_trace", &ck.best_trace)) return dec.error;
  if (!dec.get_series(*root, "best_vs_time", &ck.best_vs_time)) return dec.error;

  *out = std::move(ck);
  return {};
}

}  // namespace pts::solver
