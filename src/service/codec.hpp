// JSON (de)serialization of solve jobs and results, shared by the ptsd
// daemon and the pts_client CLI so both sides agree on one schema.
//
// A job crosses the wire as a JobRequest: a benchmark circuit *name* plus a
// SolveSpec with the non-serializable fields left empty (the daemon resolves
// the name against the benchmark registry and attaches its own CancelToken /
// Observer). The schema is one field list per type: JobRequest's in
// codec.cpp, the SolveSpec blocks and SolveResult in solver/fields.hpp
// (which also says what the spec leaves out). Encoding streams those lists
// into one json::Writer — no DOM is built. Decoding walks the same lists
// through the strict json::Reader: unknown keys, repeated keys, wrong types
// and out-of-range numbers are errors naming their path, never silently
// ignored — the daemon must not accept a spec it half-understood. Absent
// members keep their defaults (clients send partial specs); only the
// circuit is required.
//
// Integers ride as doubles, exact to 2^53: the reader refuses a larger
// one, and Client::submit refuses a seed above 2^53 before sending it,
// since it would arrive rounded and solve (and cache under) another seed.
// Doubles round-trip bit-exactly through support/json.hpp, so
// decode(encode(result)) == result field-for-field — the property behind
// the daemon-vs-direct bit-identity guarantee (tests/service_test.cpp).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "solver/solver.hpp"

namespace pts::service {

/// A solve job as submitted by a client. `spec.netlist` and
/// `spec.stop.cancel` / `spec.observer` stay null — the daemon fills them.
struct JobRequest {
  std::string circuit;
  solver::SolveSpec spec;
  /// Serving-layer wall-clock deadline in seconds (queue wait + solve).
  /// <= 0: use the daemon's default. An overdue session is cancelled and
  /// finishes with stop_reason == DeadlineExpired.
  double deadline_seconds = 0.0;
};

/// True when the job's result is a pure function of the spec — no
/// wall-clock stop condition and a deterministic engine — and therefore
/// eligible for the daemon's result cache (ECO mode).
bool spec_cacheable(const JobRequest& job);

/// Canonical cache key for a cacheable job: the circuit's content hash
/// (netlist::content_hash — the name alone would go stale if the registry
/// entry changed) joined with the canonicalized spec JSON, deadline zeroed
/// (a deadline changes when a job fails, not what it computes).
std::string cache_key(const JobRequest& job, std::uint64_t circuit_hash);

// The codec proper. decode_* never abort: malformed text or a schema
// violation returns nullopt and, when `error` is non-null, a description.
std::string encode_spec(const JobRequest& job);
std::optional<JobRequest> decode_spec(std::string_view text, std::string* error);
std::string encode_result(const solver::SolveResult& result);
std::optional<solver::SolveResult> decode_result(std::string_view text,
                                                 std::string* error);

}  // namespace pts::service
