#include "service/codec.hpp"

#include <charconv>
#include <cmath>
#include <cstring>

namespace pts::service {

namespace {

using json::Value;

// -- strict field reading ---------------------------------------------------

/// Reads fields out of one JSON object, accumulating errors instead of
/// aborting. Every read marks its key as known; finish() rejects keys the
/// schema never asked about, so typos ("iteratons") surface as errors.
class ObjectReader {
 public:
  ObjectReader(const Value& value, std::string context, std::string& error)
      : value_(value), context_(std::move(context)), error_(error) {
    if (!value_.is_object()) {
      fail("expected an object");
    }
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
    if (!value_.is_object()) return;
    for (const auto& [key, member] : value_.members()) {
      (void)member;
      bool seen = false;
      for (const auto& k : known_keys_) {
        if (k == key) {
          seen = true;
          break;
        }
      }
      if (!seen) fail("unknown key '" + key + "'");
    }
  }

 private:
  static bool integral_in_range(double v, double& out) {
    if (!(v >= 0.0 && v <= 9007199254740992.0)) return false;  // 2^53
    if (std::nearbyint(v) != v) return false;
    out = v;
    return true;
  }

  const Value* known(const char* key) {
    known_keys_.emplace_back(key);
    return value_.find(key);
  }

  void fail(const std::string& why) {
    if (!error_.empty()) return;  // first error wins; it has the most context
    error_ = context_ + ": " + why;
  }

  const Value& value_;
  std::string context_;
  std::string& error_;
  std::vector<std::string> known_keys_;
};

// -- series -----------------------------------------------------------------

Value series_to_json(const Series& series) {
  Value out = Value::object();
  out.set("name", Value(series.name));
  Value xs = Value::array();
  for (const double x : series.x) xs.push_back(Value(x));
  Value ys = Value::array();
  for (const double y : series.y) ys.push_back(Value(y));
  out.set("x", std::move(xs));
  out.set("y", std::move(ys));
  return out;
}

bool series_from_json(const Value& value, const char* key, Series& out,
                      std::string& error) {
  ObjectReader reader(value, std::string("result.") + key, error);
  reader.read_string("name", out.name);
  for (const char* axis : {"x", "y"}) {
    auto& dst = axis[0] == 'x' ? out.x : out.y;
    if (const Value* arr = reader.read_array(axis)) {
      dst.clear();
      dst.reserve(arr->items().size());
      for (const auto& item : arr->items()) {
        if (!item.is_number() || !std::isfinite(item.as_number())) {
          error = std::string("result.") + key + "." + axis +
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
    error = std::string("result.") + key + ": x and y lengths differ";
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

}  // namespace

// -- spec -------------------------------------------------------------------

json::Value spec_to_json(const JobRequest& job) {
  const solver::SolveSpec& spec = job.spec;
  Value out = Value::object();
  out.set("circuit", Value(job.circuit));
  out.set("engine", Value(spec.engine));
  out.set("seed", Value(static_cast<double>(spec.seed)));
  out.set("deadline_seconds", Value(job.deadline_seconds));
  if (!spec.initial_slots.empty()) {
    // Warm start (ECO mode): omitted when empty so pre-existing encodings
    // stay byte-stable.
    Value slots = Value::array();
    for (const netlist::CellId cell : spec.initial_slots) {
      slots.push_back(Value(static_cast<double>(cell)));
    }
    out.set("initial_slots", std::move(slots));
  }

  Value cost = Value::object();
  cost.set("num_paths", Value(static_cast<double>(spec.cost.num_paths)));
  cost.set("target_improvement", Value(spec.cost.target_improvement));
  cost.set("initial_membership", Value(spec.cost.initial_membership));
  cost.set("beta", Value(spec.cost.beta));
  cost.set("rebuild_interval", Value(static_cast<double>(spec.cost.rebuild_interval)));
  out.set("cost", std::move(cost));

  Value compound = Value::object();
  compound.set("width", Value(static_cast<double>(spec.tabu.compound.width)));
  compound.set("depth", Value(static_cast<double>(spec.tabu.compound.depth)));
  compound.set("early_accept", Value(spec.tabu.compound.early_accept));
  compound.set("batch", Value(static_cast<double>(spec.tabu.compound.batch)));
  Value tabu = Value::object();
  tabu.set("tenure", Value(static_cast<double>(spec.tabu.tenure)));
  tabu.set("iterations", Value(static_cast<double>(spec.tabu.iterations)));
  tabu.set("aspiration", Value(spec.tabu.aspiration));
  tabu.set("trace_stride", Value(static_cast<double>(spec.tabu.trace_stride)));
  tabu.set("compound", std::move(compound));
  out.set("tabu", std::move(tabu));

  Value anneal = Value::object();
  anneal.set("initial_acceptance", Value(spec.anneal.initial_acceptance));
  anneal.set("cooling", Value(spec.anneal.cooling));
  anneal.set("moves_per_temp", Value(static_cast<double>(spec.anneal.moves_per_temp)));
  anneal.set("final_temp_ratio", Value(spec.anneal.final_temp_ratio));
  anneal.set("trace_stride", Value(static_cast<double>(spec.anneal.trace_stride)));
  out.set("anneal", std::move(anneal));

  Value local = Value::object();
  local.set("candidates_per_iteration",
            Value(static_cast<double>(spec.local.candidates_per_iteration)));
  local.set("patience", Value(static_cast<double>(spec.local.patience)));
  local.set("max_iterations", Value(static_cast<double>(spec.local.max_iterations)));
  local.set("trace_stride", Value(static_cast<double>(spec.local.trace_stride)));
  out.set("local", std::move(local));

  Value diversify = Value::object();
  diversify.set("depth", Value(static_cast<double>(spec.parallel.diversify.depth)));
  diversify.set("width", Value(static_cast<double>(spec.parallel.diversify.width)));
  diversify.set("enabled", Value(spec.parallel.diversify.enabled));
  diversify.set("batch", Value(static_cast<double>(spec.parallel.diversify.batch)));
  Value parallel = Value::object();
  parallel.set("num_tsws", Value(static_cast<double>(spec.parallel.num_tsws)));
  parallel.set("clws_per_tsw", Value(static_cast<double>(spec.parallel.clws_per_tsw)));
  parallel.set("local_iterations",
               Value(static_cast<double>(spec.parallel.local_iterations)));
  parallel.set("global_iterations",
               Value(static_cast<double>(spec.parallel.global_iterations)));
  parallel.set("diversify", std::move(diversify));
  out.set("parallel", std::move(parallel));

  Value shared = Value::object();
  shared.set("threads", Value(static_cast<double>(spec.shared.threads)));
  shared.set("chunk", Value(static_cast<double>(spec.shared.chunk)));
  out.set("shared", std::move(shared));

  Value stop = Value::object();
  stop.set("max_iterations", Value(static_cast<double>(spec.stop.max_iterations)));
  stop.set("max_seconds", Value(spec.stop.max_seconds));
  stop.set("target_cost", spec.stop.target_cost ? Value(*spec.stop.target_cost)
                                                : Value());
  stop.set("target_quality",
           spec.stop.target_quality ? Value(*spec.stop.target_quality) : Value());
  out.set("stop", std::move(stop));
  return out;
}

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

json::Value result_to_json(const solver::SolveResult& result) {
  Value out = Value::object();
  out.set("engine", Value(result.engine));
  out.set("initial_cost", Value(result.initial_cost));
  out.set("best_cost", Value(result.best_cost));
  out.set("best_quality", Value(result.best_quality));

  Value objectives = Value::object();
  objectives.set("wirelength", Value(result.best_objectives.wirelength));
  objectives.set("delay", Value(result.best_objectives.delay));
  objectives.set("area", Value(result.best_objectives.area));
  out.set("best_objectives", std::move(objectives));

  Value slots = Value::array();
  for (const netlist::CellId cell : result.best_slots) {
    slots.push_back(Value(static_cast<double>(cell)));
  }
  out.set("best_slots", std::move(slots));

  out.set("cost_trace", series_to_json(result.cost_trace));
  out.set("best_trace", series_to_json(result.best_trace));
  out.set("best_vs_time", series_to_json(result.best_vs_time));
  out.set("best_vs_global", series_to_json(result.best_vs_global));

  Value stats = Value::object();
  stats.set("iterations", Value(static_cast<double>(result.stats.iterations)));
  stats.set("accepted", Value(static_cast<double>(result.stats.accepted)));
  stats.set("rejected_tabu", Value(static_cast<double>(result.stats.rejected_tabu)));
  stats.set("aspirated", Value(static_cast<double>(result.stats.aspirated)));
  stats.set("early_accepts", Value(static_cast<double>(result.stats.early_accepts)));
  stats.set("trials", Value(static_cast<double>(result.stats.trials)));
  out.set("stats", std::move(stats));

  out.set("iterations", Value(static_cast<double>(result.iterations)));
  out.set("makespan", Value(result.makespan));
  out.set("stop_reason", Value(std::string(stop_reason_name(result.stop_reason))));
  out.set("converged", Value(result.converged));
  return out;
}

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

  for (const auto& [key, series] :
       {std::pair<const char*, Series*>{"cost_trace", &result.cost_trace},
        {"best_trace", &result.best_trace},
        {"best_vs_time", &result.best_vs_time},
        {"best_vs_global", &result.best_vs_global}}) {
    if (!err.empty()) break;
    if (const Value* v = reader.read_object(key)) {
      if (!series_from_json(*v, key, *series, err)) break;
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
  // it changes when a job is killed, never what it computes. spec_to_json
  // emits members in one fixed order, so the dump is canonical.
  JobRequest canonical = job;
  canonical.deadline_seconds = 0.0;
  char hex[17] = {};
  const auto [end, ec] =
      std::to_chars(hex, hex + sizeof(hex), circuit_hash, 16);
  (void)ec;  // 16 digits always fit a u64
  return std::string(hex, end) + "|" + encode_spec(canonical);
}

// -- string conveniences ----------------------------------------------------

std::string encode_spec(const JobRequest& job) { return json::dump(spec_to_json(job)); }

std::optional<JobRequest> decode_spec(std::string_view text, std::string* error) {
  const auto value = json::parse(text, error);
  if (!value) return std::nullopt;
  return spec_from_json(*value, error);
}

std::string encode_result(const solver::SolveResult& result) {
  return json::dump(result_to_json(result));
}

std::optional<solver::SolveResult> decode_result(std::string_view text,
                                                 std::string* error) {
  const auto value = json::parse(text, error);
  if (!value) return std::nullopt;
  return result_from_json(*value, error);
}

}  // namespace pts::service
