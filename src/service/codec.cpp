#include "service/codec.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <vector>

#include "support/json.hpp"

namespace pts::service {

namespace {

using json::Value;

// -- strict field reading ---------------------------------------------------

/// Reads fields out of one JSON object, accumulating errors instead of
/// aborting. Every read marks its key as known; finish() rejects keys the
/// schema never asked about, so typos ("iteratons") surface as errors.
class ObjectReader {
 public:
  /// `context` names the object in error messages ("spec.tabu"); it must
  /// outlive the reader (every caller passes a literal).
  ObjectReader(const Value& value, std::string_view context, std::string& error)
      : value_(value), context_(context), error_(error) {
    known_keys_.reserve(16);  // the widest schema object has 15 keys
    if (!value_.is_object()) fail("expected an object");
  }

  bool ok() const { return error_.empty(); }

  void read_string(const char* key, std::string& out) {
    if (const Value* v = known(key)) {
      if (v->is_string()) {
        out = v->as_string();
      } else {
        fail(std::string(key) + " must be a string");
      }
    }
  }

  void read_bool(const char* key, bool& out) {
    if (const Value* v = known(key)) {
      if (v->is_bool()) {
        out = v->as_bool();
      } else {
        fail(std::string(key) + " must be a boolean");
      }
    }
  }

  void read_double(const char* key, double& out) {
    if (const Value* v = known(key)) {
      if (v->is_number() && std::isfinite(v->as_number())) {
        out = v->as_number();
      } else {
        // Non-finite values cannot come off the wire (the JSON grammar has
        // no NaN/Inf and the number parser rejects overflow), but an
        // in-process Value can carry one; reject it so no spec or result
        // with poisoned arithmetic gets past decoding.
        fail(std::string(key) + " must be a finite number");
      }
    }
  }

  template <typename UInt>
  void read_uint(const char* key, UInt& out) {
    if (const Value* v = known(key)) {
      double n = 0.0;
      if (!v->is_number() || !integral_in_range(v->as_number(), n)) {
        fail(std::string(key) + " must be a non-negative integer");
        return;
      }
      out = static_cast<UInt>(n);
    }
  }

  void read_opt_double(const char* key, std::optional<double>& out) {
    if (const Value* v = known(key)) {
      if (v->is_null()) {
        out.reset();
      } else if (v->is_number() && std::isfinite(v->as_number())) {
        out = v->as_number();
      } else {
        fail(std::string(key) + " must be a finite number or null");
      }
    }
  }

  /// Nested object; returns nullptr when absent (defaults apply).
  const Value* read_object(const char* key) {
    if (const Value* v = known(key)) {
      if (v->is_object()) return v;
      fail(std::string(key) + " must be an object");
    }
    return nullptr;
  }

  const Value* read_array(const char* key) {
    if (const Value* v = known(key)) {
      if (v->is_array()) return v;
      fail(std::string(key) + " must be an array");
    }
    return nullptr;
  }

  bool has(const char* key) const { return value_.find(key) != nullptr; }

  /// Call last: rejects members no read_* asked about.
  void finish() {
    for (const auto& [key, member] : value_.members()) {
      (void)member;
      if (std::find(known_keys_.begin(), known_keys_.end(), key) ==
          known_keys_.end()) {
        fail("unknown key '" + key + "'");
        return;
      }
    }
  }

 private:
  static bool integral_in_range(double v, double& out) {
    if (!(v >= 0.0 && v <= 9007199254740992.0)) return false;  // 2^53
    if (std::nearbyint(v) != v) return false;
    out = v;
    return true;
  }

  const Value* known(std::string_view key) {
    known_keys_.push_back(key);
    return value_.find(key);
  }

  void fail(const std::string& why) {
    if (!error_.empty()) return;  // first error wins; it has the most context
    error_ = std::string(context_) + ": " + why;
  }

  const Value& value_;
  std::string_view context_;
  std::string& error_;
  std::vector<std::string_view> known_keys_;
};

// -- series -----------------------------------------------------------------

void write_series(json::Writer& w, std::string_view key, const Series& series) {
  w.key(key).begin_object();
  w.field("name", series.name);
  w.key("x").begin_array();
  for (const double x : series.x) w.value(x);
  w.end_array();
  w.key("y").begin_array();
  for (const double y : series.y) w.value(y);
  w.end_array();
  w.end_object();
}

bool series_from_json(const Value& value, std::string_view context, Series& out,
                      std::string& error) {
  ObjectReader reader(value, context, error);
  reader.read_string("name", out.name);
  for (const char* axis : {"x", "y"}) {
    auto& dst = axis[0] == 'x' ? out.x : out.y;
    if (const Value* arr = reader.read_array(axis)) {
      dst.clear();
      dst.reserve(arr->items().size());
      for (const auto& item : arr->items()) {
        if (!item.is_number() || !std::isfinite(item.as_number())) {
          error = std::string(context) + "." + axis +
                  " must contain only finite numbers";
          return false;
        }
        dst.push_back(item.as_number());
      }
    }
  }
  reader.finish();
  if (!error.empty()) return false;
  if (out.x.size() != out.y.size()) {
    error = std::string(context) + ": x and y lengths differ";
    return false;
  }
  return true;
}

// -- stop reason ------------------------------------------------------------

bool stop_reason_from_name(const std::string& name, StopReason& out) {
  for (const StopReason reason :
       {StopReason::Completed, StopReason::IterationBudget, StopReason::TimeLimit,
        StopReason::TargetCost, StopReason::TargetQuality, StopReason::Cancelled,
        StopReason::DeadlineExpired}) {
    if (name == stop_reason_name(reason)) {
      out = reason;
      return true;
    }
  }
  return false;
}

// -- spec -------------------------------------------------------------------

std::optional<JobRequest> spec_from_json(const json::Value& value,
                                         std::string* error) {
  std::string err;
  JobRequest job;
  solver::SolveSpec& spec = job.spec;

  ObjectReader reader(value, "spec", err);
  reader.read_string("circuit", job.circuit);
  reader.read_string("engine", spec.engine);
  reader.read_uint("seed", spec.seed);
  reader.read_double("deadline_seconds", job.deadline_seconds);
  if (const Value* slots = reader.read_array("initial_slots")) {
    spec.initial_slots.reserve(slots->items().size());
    for (const auto& item : slots->items()) {
      const double n = item.is_number() ? item.as_number() : -1.0;
      if (!(n >= 0.0 && n <= 4294967295.0) || std::nearbyint(n) != n) {
        err = "spec.initial_slots must contain cell ids (u32)";
        break;
      }
      spec.initial_slots.push_back(static_cast<netlist::CellId>(n));
    }
  }

  if (const Value* v = reader.read_object("cost")) {
    ObjectReader cost(*v, "spec.cost", err);
    cost.read_uint("num_paths", spec.cost.num_paths);
    cost.read_double("target_improvement", spec.cost.target_improvement);
    cost.read_double("initial_membership", spec.cost.initial_membership);
    cost.read_double("beta", spec.cost.beta);
    cost.read_uint("rebuild_interval", spec.cost.rebuild_interval);
    cost.finish();
  }
  if (const Value* v = reader.read_object("tabu")) {
    ObjectReader tabu(*v, "spec.tabu", err);
    tabu.read_uint("tenure", spec.tabu.tenure);
    tabu.read_uint("iterations", spec.tabu.iterations);
    tabu.read_bool("aspiration", spec.tabu.aspiration);
    tabu.read_uint("trace_stride", spec.tabu.trace_stride);
    if (const Value* c = tabu.read_object("compound")) {
      ObjectReader compound(*c, "spec.tabu.compound", err);
      compound.read_uint("width", spec.tabu.compound.width);
      compound.read_uint("depth", spec.tabu.compound.depth);
      compound.read_bool("early_accept", spec.tabu.compound.early_accept);
      compound.read_uint("batch", spec.tabu.compound.batch);
      compound.finish();
    }
    tabu.finish();
  }
  if (const Value* v = reader.read_object("anneal")) {
    ObjectReader anneal(*v, "spec.anneal", err);
    anneal.read_double("initial_acceptance", spec.anneal.initial_acceptance);
    anneal.read_double("cooling", spec.anneal.cooling);
    anneal.read_uint("moves_per_temp", spec.anneal.moves_per_temp);
    anneal.read_double("final_temp_ratio", spec.anneal.final_temp_ratio);
    anneal.read_uint("trace_stride", spec.anneal.trace_stride);
    anneal.finish();
  }
  if (const Value* v = reader.read_object("local")) {
    ObjectReader local(*v, "spec.local", err);
    local.read_uint("candidates_per_iteration", spec.local.candidates_per_iteration);
    local.read_uint("patience", spec.local.patience);
    local.read_uint("max_iterations", spec.local.max_iterations);
    local.read_uint("trace_stride", spec.local.trace_stride);
    local.finish();
  }
  if (const Value* v = reader.read_object("parallel")) {
    ObjectReader parallel(*v, "spec.parallel", err);
    parallel.read_uint("num_tsws", spec.parallel.num_tsws);
    parallel.read_uint("clws_per_tsw", spec.parallel.clws_per_tsw);
    parallel.read_uint("local_iterations", spec.parallel.local_iterations);
    parallel.read_uint("global_iterations", spec.parallel.global_iterations);
    if (const Value* d = parallel.read_object("diversify")) {
      ObjectReader diversify(*d, "spec.parallel.diversify", err);
      diversify.read_uint("depth", spec.parallel.diversify.depth);
      diversify.read_uint("width", spec.parallel.diversify.width);
      diversify.read_bool("enabled", spec.parallel.diversify.enabled);
      diversify.read_uint("batch", spec.parallel.diversify.batch);
      diversify.finish();
    }
    parallel.finish();
  }
  if (const Value* v = reader.read_object("shared")) {
    ObjectReader shared(*v, "spec.shared", err);
    shared.read_uint("threads", spec.shared.threads);
    shared.read_uint("chunk", spec.shared.chunk);
    shared.finish();
  }
  if (const Value* v = reader.read_object("stop")) {
    ObjectReader stop(*v, "spec.stop", err);
    stop.read_uint("max_iterations", spec.stop.max_iterations);
    stop.read_double("max_seconds", spec.stop.max_seconds);
    stop.read_opt_double("target_cost", spec.stop.target_cost);
    stop.read_opt_double("target_quality", spec.stop.target_quality);
    stop.finish();
  }
  reader.finish();

  if (err.empty() && job.circuit.empty()) {
    err = "spec: 'circuit' is required";
  }
  if (!err.empty()) {
    if (error != nullptr) *error = err;
    return std::nullopt;
  }
  return job;
}

// -- result -----------------------------------------------------------------

std::optional<solver::SolveResult> result_from_json(const json::Value& value,
                                                    std::string* error) {
  std::string err;
  solver::SolveResult result;

  ObjectReader reader(value, "result", err);
  reader.read_string("engine", result.engine);
  reader.read_double("initial_cost", result.initial_cost);
  reader.read_double("best_cost", result.best_cost);
  reader.read_double("best_quality", result.best_quality);

  if (const Value* v = reader.read_object("best_objectives")) {
    ObjectReader objectives(*v, "result.best_objectives", err);
    objectives.read_double("wirelength", result.best_objectives.wirelength);
    objectives.read_double("delay", result.best_objectives.delay);
    objectives.read_double("area", result.best_objectives.area);
    objectives.finish();
  }

  if (const Value* slots = reader.read_array("best_slots")) {
    result.best_slots.reserve(slots->items().size());
    for (const auto& item : slots->items()) {
      const double n = item.is_number() ? item.as_number() : -1.0;
      if (!(n >= 0.0 && n <= 4294967295.0) || std::nearbyint(n) != n) {
        err = "result.best_slots must contain cell ids (u32)";
        break;
      }
      result.best_slots.push_back(static_cast<netlist::CellId>(n));
    }
  }

  struct SeriesField {
    const char* key;
    const char* context;
    Series* series;
  };
  for (const SeriesField& field :
       {SeriesField{"cost_trace", "result.cost_trace", &result.cost_trace},
        SeriesField{"best_trace", "result.best_trace", &result.best_trace},
        SeriesField{"best_vs_time", "result.best_vs_time", &result.best_vs_time},
        SeriesField{"best_vs_global", "result.best_vs_global",
                    &result.best_vs_global}}) {
    if (!err.empty()) break;
    if (const Value* v = reader.read_object(field.key)) {
      if (!series_from_json(*v, field.context, *field.series, err)) break;
    }
  }

  if (const Value* v = reader.read_object("stats")) {
    ObjectReader stats(*v, "result.stats", err);
    stats.read_uint("iterations", result.stats.iterations);
    stats.read_uint("accepted", result.stats.accepted);
    stats.read_uint("rejected_tabu", result.stats.rejected_tabu);
    stats.read_uint("aspirated", result.stats.aspirated);
    stats.read_uint("early_accepts", result.stats.early_accepts);
    stats.read_uint("trials", result.stats.trials);
    stats.finish();
  }

  reader.read_uint("iterations", result.iterations);
  reader.read_double("makespan", result.makespan);
  std::string stop_reason;
  reader.read_string("stop_reason", stop_reason);
  if (err.empty() && !stop_reason.empty() &&
      !stop_reason_from_name(stop_reason, result.stop_reason)) {
    err = "result.stop_reason: unknown value '" + stop_reason + "'";
  }
  reader.read_bool("converged", result.converged);
  reader.finish();

  if (!err.empty()) {
    if (error != nullptr) *error = err;
    return std::nullopt;
  }
  return result;
}

// -- encoders ---------------------------------------------------------------
//
// Member order is part of the wire format: cache keys compare encoded
// specs byte for byte, and tests/codec_test.cpp (WireGolden.*) pins golden
// encodings.

void write_optional(json::Writer& w, std::string_view key,
                    const std::optional<double>& value) {
  w.key(key);
  if (value) {
    w.value(*value);
  } else {
    w.null();
  }
}

void write_spec(json::Writer& w, const JobRequest& job, double deadline_seconds) {
  const solver::SolveSpec& spec = job.spec;
  w.begin_object();
  w.field("circuit", job.circuit);
  w.field("engine", spec.engine);
  w.field("seed", spec.seed);
  w.field("deadline_seconds", deadline_seconds);
  if (!spec.initial_slots.empty()) {
    // Warm start (ECO mode): omitted when empty so pre-existing encodings
    // stay byte-stable.
    w.key("initial_slots").begin_array();
    for (const netlist::CellId cell : spec.initial_slots) w.value(cell);
    w.end_array();
  }

  w.key("cost").begin_object();
  w.field("num_paths", spec.cost.num_paths);
  w.field("target_improvement", spec.cost.target_improvement);
  w.field("initial_membership", spec.cost.initial_membership);
  w.field("beta", spec.cost.beta);
  w.field("rebuild_interval", spec.cost.rebuild_interval);
  w.end_object();

  w.key("tabu").begin_object();
  w.field("tenure", spec.tabu.tenure);
  w.field("iterations", spec.tabu.iterations);
  w.field("aspiration", spec.tabu.aspiration);
  w.field("trace_stride", spec.tabu.trace_stride);
  w.key("compound").begin_object();
  w.field("width", spec.tabu.compound.width);
  w.field("depth", spec.tabu.compound.depth);
  w.field("early_accept", spec.tabu.compound.early_accept);
  w.field("batch", spec.tabu.compound.batch);
  w.end_object();
  w.end_object();

  w.key("anneal").begin_object();
  w.field("initial_acceptance", spec.anneal.initial_acceptance);
  w.field("cooling", spec.anneal.cooling);
  w.field("moves_per_temp", spec.anneal.moves_per_temp);
  w.field("final_temp_ratio", spec.anneal.final_temp_ratio);
  w.field("trace_stride", spec.anneal.trace_stride);
  w.end_object();

  w.key("local").begin_object();
  w.field("candidates_per_iteration", spec.local.candidates_per_iteration);
  w.field("patience", spec.local.patience);
  w.field("max_iterations", spec.local.max_iterations);
  w.field("trace_stride", spec.local.trace_stride);
  w.end_object();

  w.key("parallel").begin_object();
  w.field("num_tsws", spec.parallel.num_tsws);
  w.field("clws_per_tsw", spec.parallel.clws_per_tsw);
  w.field("local_iterations", spec.parallel.local_iterations);
  w.field("global_iterations", spec.parallel.global_iterations);
  w.key("diversify").begin_object();
  w.field("depth", spec.parallel.diversify.depth);
  w.field("width", spec.parallel.diversify.width);
  w.field("enabled", spec.parallel.diversify.enabled);
  w.field("batch", spec.parallel.diversify.batch);
  w.end_object();
  w.end_object();

  w.key("shared").begin_object();
  w.field("threads", spec.shared.threads);
  w.field("chunk", spec.shared.chunk);
  w.end_object();

  w.key("stop").begin_object();
  w.field("max_iterations", spec.stop.max_iterations);
  w.field("max_seconds", spec.stop.max_seconds);
  write_optional(w, "target_cost", spec.stop.target_cost);
  write_optional(w, "target_quality", spec.stop.target_quality);
  w.end_object();
  w.end_object();
}

void write_result(json::Writer& w, const solver::SolveResult& result) {
  w.begin_object();
  w.field("engine", result.engine);
  w.field("initial_cost", result.initial_cost);
  w.field("best_cost", result.best_cost);
  w.field("best_quality", result.best_quality);

  w.key("best_objectives").begin_object();
  w.field("wirelength", result.best_objectives.wirelength);
  w.field("delay", result.best_objectives.delay);
  w.field("area", result.best_objectives.area);
  w.end_object();

  w.key("best_slots").begin_array();
  for (const netlist::CellId cell : result.best_slots) w.value(cell);
  w.end_array();

  write_series(w, "cost_trace", result.cost_trace);
  write_series(w, "best_trace", result.best_trace);
  write_series(w, "best_vs_time", result.best_vs_time);
  write_series(w, "best_vs_global", result.best_vs_global);

  w.key("stats").begin_object();
  w.field("iterations", result.stats.iterations);
  w.field("accepted", result.stats.accepted);
  w.field("rejected_tabu", result.stats.rejected_tabu);
  w.field("aspirated", result.stats.aspirated);
  w.field("early_accepts", result.stats.early_accepts);
  w.field("trials", result.stats.trials);
  w.end_object();

  w.field("iterations", result.iterations);
  w.field("makespan", result.makespan);
  w.field("stop_reason", stop_reason_name(result.stop_reason));
  w.field("converged", result.converged);
  w.end_object();
}

}  // namespace

// -- result cache keying ----------------------------------------------------

bool spec_cacheable(const JobRequest& job) {
  // A wall-clock stop condition makes the outcome depend on machine speed
  // and load; every other stop reason is a pure function of the spec. No
  // engine is special-cased: every registered engine is deterministic per
  // spec (determinism_test solves each one twice and pins bit-identity).
  return job.spec.stop.max_seconds <= 0.0;
}

std::string cache_key(const JobRequest& job, std::uint64_t circuit_hash) {
  // Canonical form: the content hash pins the circuit *bytes* (the name in
  // the spec only pins the registry entry), and the deadline is zeroed —
  // it changes when a job is killed, never what it computes. The spec
  // writer emits members in one fixed order, so the text is canonical.
  char hex[17] = {};
  const auto [end, ec] =
      std::to_chars(hex, hex + sizeof(hex), circuit_hash, 16);
  (void)ec;  // 16 digits always fit a u64
  json::Writer w;
  write_spec(w, job, /*deadline_seconds=*/0.0);
  std::string key(hex, end);
  key += '|';
  key += w.take();
  return key;
}

// -- the codec --------------------------------------------------------------

std::string encode_spec(const JobRequest& job) {
  json::Writer w;
  write_spec(w, job, job.deadline_seconds);
  return w.take();
}

std::optional<JobRequest> decode_spec(std::string_view text, std::string* error) {
  const auto value = json::parse(text, error);
  if (!value) return std::nullopt;
  return spec_from_json(*value, error);
}

std::string encode_result(const solver::SolveResult& result) {
  json::Writer w;
  write_result(w, result);
  return w.take();
}

std::optional<solver::SolveResult> decode_result(std::string_view text,
                                                 std::string* error) {
  const auto value = json::parse(text, error);
  if (!value) return std::nullopt;
  return result_from_json(*value, error);
}

}  // namespace pts::service
