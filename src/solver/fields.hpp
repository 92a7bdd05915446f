// One JSON field list per type. Every type that crosses a process boundary
// as JSON lists its members once, as a template visitor `fields(io, obj)`,
// and two adapters walk that same list: FieldWriter streams the members
// into a json::Writer (no DOM is built), FieldReader reads them back
// through the strict json::Reader. The list's order is the wire order —
// cache keys compare encoded specs byte for byte, and tests/codec_test.cpp
// (WireGolden.*) pins spec, result and checkpoint bytes.
//
// This header lists Series, cost::Objectives, tabu::SearchStats, each
// SolveSpec block and SolveResult. service/codec.cpp lists its JobRequest
// (a spec plus circuit name and deadline) and solver/checkpoint.cpp the
// Checkpoint with the engine state inside it; both reuse these lists for
// the members they share. Besides members, a list can state a rule only the
// reader checks (io.require) and mark a u64 that may exceed 2^53 for its
// hex string form (hex()). Blocks list only what a served solve needs: the
// emulation-only parts of PtsConfig (cluster, policies, sim costs, faults)
// and the cost block's delay model keep their defaults.
#pragma once

#include <charconv>
#include <concepts>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "solver/solver.hpp"
#include "support/json.hpp"
#include "support/run_control.hpp"
#include "support/stats.hpp"
#include "tabu/move.hpp"

namespace pts::solver {

/// `T` is `U` or `const U`: one list serves the writer (const) and the
/// reader (mutable).
template <typename T, typename U>
concept Of = std::same_as<std::remove_const_t<T>, U>;

/// A u64 (or an array of them) carried as hex strings, since JSON numbers
/// are exact only to 2^53.
template <typename T>
struct Hex {
  T& value;
};
template <typename T>
Hex<T> hex(T& value) {
  return {value};
}

/// `word` in lowercase hex, without leading zeros.
inline std::string hex_text(std::uint64_t word) {
  char buf[16];
  char* end = std::to_chars(buf, buf + sizeof(buf), word, 16).ptr;
  return std::string(buf, end);
}

// -- the lists ----------------------------------------------------------------

template <typename IO, Of<Series> T>
void fields(IO& io, T& series) {
  io.field("name", series.name);
  io.field("x", series.x);
  io.field("y", series.y);
  io.require(series.x.size() == series.y.size(), "x and y lengths differ");
}

template <typename IO, Of<cost::Objectives> T>
void fields(IO& io, T& objectives) {
  io.field("wirelength", objectives.wirelength);
  io.field("delay", objectives.delay);
  io.field("area", objectives.area);
}

template <typename IO, Of<tabu::SearchStats> T>
void fields(IO& io, T& stats) {
  io.field("iterations", stats.iterations);
  io.field("accepted", stats.accepted);
  io.field("rejected_tabu", stats.rejected_tabu);
  io.field("aspirated", stats.aspirated);
  io.field("early_accepts", stats.early_accepts);
  io.field("trials", stats.trials);
}

template <typename IO, Of<cost::CostParams> T>
void fields(IO& io, T& cost) {
  io.field("num_paths", cost.num_paths);
  io.field("target_improvement", cost.target_improvement);
  io.field("initial_membership", cost.initial_membership);
  io.field("beta", cost.beta);
  io.field("rebuild_interval", cost.rebuild_interval);
}

template <typename IO, Of<tabu::CompoundParams> T>
void fields(IO& io, T& compound) {
  io.field("width", compound.width);
  io.field("depth", compound.depth);
  io.field("early_accept", compound.early_accept);
  io.field("batch", compound.batch);
}

template <typename IO, Of<tabu::TabuParams> T>
void fields(IO& io, T& tabu) {
  io.field("tenure", tabu.tenure);
  io.field("iterations", tabu.iterations);
  io.field("aspiration", tabu.aspiration);
  io.field("trace_stride", tabu.trace_stride);
  io.field("compound", tabu.compound);
}

template <typename IO, Of<baselines::AnnealParams> T>
void fields(IO& io, T& anneal) {
  io.field("initial_acceptance", anneal.initial_acceptance);
  io.field("cooling", anneal.cooling);
  io.field("moves_per_temp", anneal.moves_per_temp);
  io.field("final_temp_ratio", anneal.final_temp_ratio);
  io.field("trace_stride", anneal.trace_stride);
}

template <typename IO, Of<baselines::LocalSearchParams> T>
void fields(IO& io, T& local) {
  io.field("candidates_per_iteration", local.candidates_per_iteration);
  io.field("patience", local.patience);
  io.field("max_iterations", local.max_iterations);
  io.field("trace_stride", local.trace_stride);
}

template <typename IO, Of<tabu::DiversifyParams> T>
void fields(IO& io, T& diversify) {
  io.field("depth", diversify.depth);
  io.field("width", diversify.width);
  io.field("enabled", diversify.enabled);
  io.field("batch", diversify.batch);
}

template <typename IO, Of<parallel::PtsConfig> T>
void fields(IO& io, T& parallel) {
  io.field("num_tsws", parallel.num_tsws);
  io.field("clws_per_tsw", parallel.clws_per_tsw);
  io.field("local_iterations", parallel.local_iterations);
  io.field("global_iterations", parallel.global_iterations);
  io.field("diversify", parallel.diversify);
}

template <typename IO, Of<parallel::SharedParams> T>
void fields(IO& io, T& shared) {
  io.field("threads", shared.threads);
  io.field("chunk", shared.chunk);
}

template <typename IO, Of<StopConditions> T>
void fields(IO& io, T& stop) {
  io.field("max_iterations", stop.max_iterations);
  io.field("max_seconds", stop.max_seconds);
  io.field("target_cost", stop.target_cost);
  io.field("target_quality", stop.target_quality);
}

template <typename IO, Of<SolveResult> T>
void fields(IO& io, T& result) {
  io.field("engine", result.engine);
  io.field("initial_cost", result.initial_cost);
  io.field("best_cost", result.best_cost);
  io.field("best_quality", result.best_quality);
  io.field("best_objectives", result.best_objectives);
  io.field("best_slots", result.best_slots);
  io.field("cost_trace", result.cost_trace);
  io.field("best_trace", result.best_trace);
  io.field("best_vs_time", result.best_vs_time);
  io.field("best_vs_global", result.best_vs_global);
  io.field("stats", result.stats);
  io.field("iterations", result.iterations);
  io.field("makespan", result.makespan);
  io.field("stop_reason", result.stop_reason);
  io.field("converged", result.converged);
}

// -- the adapters -------------------------------------------------------------

/// Streams a field list into a json::Writer.
class FieldWriter {
 public:
  explicit FieldWriter(json::Writer& w) : w_(w) {}

  template <typename T>
  void field(std::string_view key, const T& value) {
    w_.key(key);
    put(value);
  }
  /// Written only when non-empty, so encodings from before the member
  /// existed stay byte-stable. The reader treats it as any other field.
  template <typename T>
  void nonempty_field(std::string_view key, const std::vector<T>& value) {
    if (!value.empty()) field(key, value);
  }
  void require(bool, std::string_view) {}

  template <typename T>
  void object(const T& obj) {
    w_.begin_object();
    fields(*this, obj);
    w_.end_object();
  }

 private:
  /// Scalars go straight to the Writer; anything else is a listed type.
  template <typename T>
  void put(const T& value) {
    if constexpr (requires { w_.value(value); }) {
      w_.value(value);
    } else {
      object(value);
    }
  }
  void put(const std::optional<double>& n) {
    if (n) {
      w_.value(*n);
    } else {
      w_.null();
    }
  }
  void put(StopReason reason) { w_.value(stop_reason_name(reason)); }
  void put(const tabu::Move& move) {
    w_.begin_array().value(move.a).value(move.b).end_array();
  }
  void put(Hex<const std::uint64_t> h) { w_.value(hex_text(h.value)); }
  void put(Hex<const std::uint64_t[4]> h) {
    w_.begin_array();
    for (const std::uint64_t word : h.value) w_.value(hex_text(word));
    w_.end_array();
  }
  template <typename T>
  void put(const std::vector<T>& items) {
    w_.begin_array();
    for (const T& item : items) put(item);
    w_.end_array();
  }

  json::Writer& w_;
};

/// Reads a field list through a json::Reader (its strictness and presence
/// rules apply to every member, nested objects included).
class FieldReader {
 public:
  explicit FieldReader(json::Reader& reader) : r_(reader) {}

  template <typename T>
  void nonempty_field(std::string_view key, std::vector<T>& value) {
    field(key, value);
  }
  void require(bool holds, std::string_view why) {
    if (!holds) r_.fail(why);
  }

  template <typename T>
  void object(T& obj) {
    fields(*this, obj);
    r_.finish();
  }

  template <typename T>
  void field(std::string_view key, T& value) {
    if constexpr (requires { r_.read(key, value); }) {
      r_.read(key, value);
    } else {
      json::Reader nested(r_, key);
      FieldReader(nested).object(value);
    }
  }
  void field(std::string_view key, StopReason& reason) {
    if (const json::Value* v = r_.member(key)) {
      if (const auto named = stop_reason_from_name(v->as_string())) {
        reason = *named;
      } else {
        r_.fail("'" + std::string(key) + "' names no stop reason");
      }
    }
  }
  void field(std::string_view key, std::vector<tabu::Move>& moves) {
    const json::Value* v = r_.member(key);
    if (v == nullptr) return;
    moves.clear();
    moves.reserve(v->items().size());
    bool good = v->is_array();
    for (const json::Value& pair : v->items()) {
      tabu::Move& move = moves.emplace_back();
      const auto& ids = pair.items();
      good = good && ids.size() == 2 && json::convert(ids[0], move.a) &&
             json::convert(ids[1], move.b);
    }
    if (!good) {
      r_.fail("'" + std::string(key) + "' must be an array of [a, b] cell-id pairs");
    }
  }
  template <typename T>
  void field(std::string_view key, Hex<T> h) {
    const json::Value* v = r_.member(key);
    if (v != nullptr && !from_hex(*v, h.value)) {
      r_.fail("'" + std::string(key) + "' must be in hex u64 form");
    }
  }

 private:
  static bool from_hex(const json::Value& v, std::uint64_t& out) {
    const std::string& text = v.as_string();
    const char* end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, out, 16);
    return v.is_string() && !text.empty() && ec == std::errc{} && ptr == end;
  }
  static bool from_hex(const json::Value& v, std::uint64_t (&out)[4]) {
    const auto& words = v.items();
    return words.size() == 4 && from_hex(words[0], out[0]) &&
           from_hex(words[1], out[1]) && from_hex(words[2], out[2]) &&
           from_hex(words[3], out[3]);
  }

  json::Reader& r_;
};

/// `obj` as one JSON object.
template <typename T>
std::string encode_fields(const T& obj) {
  json::Writer w;
  FieldWriter(w).object(obj);
  return w.take();
}

/// Parses `text` and reads it into `out` under `presence`, naming it
/// `context` in errors; returns the first error, or "" on success.
template <typename T>
std::string decode_fields(std::string_view text, std::string_view context,
                          json::Reader::Presence presence, T& out) {
  std::string error;
  const auto value = json::parse(text, &error);
  if (!value) return std::string(context) + ": invalid JSON: " + error;
  json::Reader reader(*value, context, presence, error);
  FieldReader(reader).object(out);
  return error;
}

}  // namespace pts::solver
