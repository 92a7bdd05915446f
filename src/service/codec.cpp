#include "service/codec.hpp"

#include <utility>

#include "solver/fields.hpp"
#include "support/json.hpp"

namespace pts::service {

// The spec's members in wire order. `deadline` stands in for
// job.deadline_seconds, so cache_key can write it as 0 without copying the
// job.
template <typename IO, solver::Of<JobRequest> J, typename D>
void spec_fields(IO& io, J& job, D& deadline) {
  auto& spec = job.spec;
  io.field("circuit", job.circuit);
  io.field("engine", spec.engine);
  io.field("seed", spec.seed);
  io.field("deadline_seconds", deadline);
  // Warm start (ECO mode).
  io.nonempty_field("initial_slots", spec.initial_slots);
  io.field("cost", spec.cost);
  io.field("tabu", spec.tabu);
  io.field("anneal", spec.anneal);
  io.field("local", spec.local);
  io.field("parallel", spec.parallel);
  io.field("shared", spec.shared);
  io.field("stop", spec.stop);
  io.require(!job.circuit.empty(), "'circuit' is required");
}

// In pts::service, not a file-local namespace: the solver's field adapters
// find it by argument-dependent lookup.
template <typename IO, solver::Of<JobRequest> J>
void fields(IO& io, J& job) {
  spec_fields(io, job, job.deadline_seconds);
}

namespace {

/// Specs and results default every absent member: clients send partial
/// specs.
template <typename T>
std::optional<T> decode(std::string_view text, std::string_view context,
                        std::string* error) {
  T out;
  std::string failure =
      solver::decode_fields(text, context, json::Reader::Presence::Optional, out);
  if (failure.empty()) return out;
  if (error != nullptr) *error = std::move(failure);
  return std::nullopt;
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
  json::Writer w;
  solver::FieldWriter io(w);
  constexpr double kNoDeadline = 0.0;
  w.begin_object();
  spec_fields(io, job, kNoDeadline);
  w.end_object();
  return solver::hex_text(circuit_hash) + '|' + w.take();
}

// -- the codec --------------------------------------------------------------

std::string encode_spec(const JobRequest& job) { return solver::encode_fields(job); }

std::optional<JobRequest> decode_spec(std::string_view text, std::string* error) {
  return decode<JobRequest>(text, "spec", error);
}

std::string encode_result(const solver::SolveResult& result) {
  return solver::encode_fields(result);
}

std::optional<solver::SolveResult> decode_result(std::string_view text,
                                                 std::string* error) {
  return decode<solver::SolveResult>(text, "result", error);
}

}  // namespace pts::service
