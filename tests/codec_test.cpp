// The wire and checkpoint encodings, byte for byte, and the JSON core's
// number text and duplicate-key policy.
//
// The golden strings below were produced by the DOM-building encoders that
// the streaming json::Writer replaced; the writers must reproduce them
// exactly, because cache keys compare encoded specs byte for byte, clients
// of other builds parse the results, and persisted checkpoints must stay
// readable. A change here is a wire-format change: re-pin in the open.
#include <gtest/gtest.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "service/codec.hpp"
#include "solver/checkpoint.hpp"
#include "support/json.hpp"
#include "support/rng.hpp"

namespace pts::service {
namespace {

// -- fixtures ----------------------------------------------------------------

/// Every SolveResult field set, with the values whose text is easiest to
/// get wrong: -0.0, 0.1, 1e-300, 100000 (to_chars prints "1e+05"), 2^53,
/// an id above 2^32, escaped characters and empty series.
solver::SolveResult golden_result() {
  solver::SolveResult r;
  r.engine = "tabu";
  r.initial_cost = 0.1;
  r.best_cost = -0.0;
  r.best_quality = 1e-300;
  r.best_objectives.wirelength = 100000.0;
  r.best_objectives.delay = 9007199254740992.0;
  r.best_objectives.area = -2.5;
  r.best_slots = {0, 7, 100000, 4294967295u};
  r.cost_trace.name = "cost \"q\"\\\n\t\x01";
  r.cost_trace.x = {0.0, 1.0, 2.0, 1200000.0, 12000000.0};
  r.cost_trace.y = {0.5, -1.25e-7, 1e21, 1e15, 123456789012345.0};
  r.best_trace.name = "best";
  r.best_vs_time.x = {1e-3, 123456.789};
  r.best_vs_time.y = {-9007199254740992.0, 3.0};
  r.stats.iterations = 1;
  r.stats.accepted = 2;
  r.stats.rejected_tabu = 3;
  r.stats.aspirated = 4;
  r.stats.early_accepts = 5;
  r.stats.trials = 600000;
  r.iterations = 12345678901;
  r.makespan = 0.30000000000000004;
  r.stop_reason = StopReason::TargetQuality;
  r.converged = true;
  return r;
}

/// Every encoded SolveSpec field away from its default.
JobRequest golden_spec() {
  JobRequest job;
  job.circuit = "c532";
  job.deadline_seconds = 1.5;
  solver::SolveSpec& spec = job.spec;
  spec.engine = "parallel-sim";
  spec.seed = 9007199254740992ull;
  spec.initial_slots = {3, 1, 2};
  spec.cost.num_paths = 12;
  spec.cost.target_improvement = 0.25;
  spec.cost.initial_membership = 0.1;
  spec.cost.beta = 0.75;
  spec.cost.rebuild_interval = 100000;
  spec.tabu.tenure = 17;
  spec.tabu.iterations = 333;
  spec.tabu.aspiration = false;
  spec.tabu.trace_stride = 3;
  spec.tabu.compound.width = 5;
  spec.tabu.compound.depth = 4;
  spec.tabu.compound.early_accept = false;
  spec.tabu.compound.batch = 16;
  spec.anneal.initial_acceptance = 0.8;
  spec.anneal.cooling = 0.95;
  spec.anneal.moves_per_temp = 1000;
  spec.anneal.final_temp_ratio = 1e-4;
  spec.anneal.trace_stride = 7;
  spec.local.candidates_per_iteration = 9;
  spec.local.patience = 11;
  spec.local.max_iterations = 1300;
  spec.local.trace_stride = 2;
  spec.parallel.num_tsws = 3;
  spec.parallel.clws_per_tsw = 2;
  spec.parallel.local_iterations = 6;
  spec.parallel.global_iterations = 8;
  spec.parallel.diversify.depth = 2;
  spec.parallel.diversify.width = 3;
  spec.parallel.diversify.enabled = true;
  spec.parallel.diversify.batch = 4;
  spec.shared.threads = 2;
  spec.shared.chunk = 64;
  spec.stop.max_iterations = 1000000;
  spec.stop.max_seconds = -0.0;
  spec.stop.target_cost = 0.1;
  return job;
}

/// Every Checkpoint field set.
solver::Checkpoint golden_checkpoint() {
  solver::Checkpoint ck;
  ck.seed = 0xfedcba9876543210ull;
  ck.circuit_hash = 0x0123456789abcdefull;
  ck.initial_cost = 0.1;
  ck.elapsed_seconds = 1e-300;
  ck.eval.slots = {2, 0, 1};
  ck.eval.hpwl_total = 100000.0;
  ck.eval.wire_sums = {9007199254740992.0, -0.0};
  ck.eval.swaps_applied = 42;
  ck.eval.swaps_since_rebuild = 7;
  ck.search.rng.s[0] = 1;
  ck.search.rng.s[1] = 0xffffffffffffffffull;
  ck.search.rng.s[2] = 0;
  ck.search.rng.s[3] = 0x8000000000000000ull;
  ck.search.rng.spare = -1.5;
  ck.search.rng.has_spare = true;
  ck.search.tabu_entries = {{0, 1}, {2, 4294967295u}};
  ck.search.frequency.counts = {0, 3, 100000};
  ck.search.frequency.improving_counts = {1, 0, 2};
  ck.search.frequency.transitions = 5;
  ck.search.frequency.max_count = 100000;
  ck.search.frequency.max_improving = 2;
  ck.search.best_cost = 0.5;
  ck.search.best_quality = 0.25;
  ck.search.best_objectives.wirelength = 1.0;
  ck.search.best_objectives.delay = 2.0;
  ck.search.best_objectives.area = 3.0;
  ck.search.best_slots = {1, 2, 0};
  ck.search.stats.iterations = 10;
  ck.search.stats.accepted = 9;
  ck.search.stats.rejected_tabu = 8;
  ck.search.stats.aspirated = 7;
  ck.search.stats.early_accepts = 6;
  ck.search.stats.trials = 500;
  ck.cost_trace.name = "cost";
  ck.cost_trace.x = {0.0, 1.0};
  ck.cost_trace.y = {0.5, 0.25};
  ck.best_vs_time.x = {0.001};
  ck.best_vs_time.y = {0.125};
  return ck;
}

// -- goldens -----------------------------------------------------------------

constexpr std::string_view kGoldenResult =
    R"({"engine":"tabu","initial_cost":0.1,"best_cost":-0,"best_quality)"
    R"(":1e-300,"best_objectives":{"wirelength":1e+05,"delay":900719925)"
    R"(4740992,"area":-2.5},"best_slots":[0,7,1e+05,4294967295],"cost_t)"
    R"(race":{"name":"cost \"q\"\\\n\t\u0001","x":[0,1,2,1200000,1.2e+0)"
    R"(7],"y":[0.5,-1.25e-07,1e+21,1e+15,123456789012345]},"best_trace")"
    R"(:{"name":"best","x":[],"y":[]},"best_vs_time":{"name":"","x":[0.)"
    R"(001,123456.789],"y":[-9007199254740992,3]},"best_vs_global":{"na)"
    R"(me":"","x":[],"y":[]},"stats":{"iterations":1,"accepted":2,"reje)"
    R"(cted_tabu":3,"aspirated":4,"early_accepts":5,"trials":6e+05},"it)"
    R"(erations":12345678901,"makespan":0.30000000000000004,"stop_reaso)"
    R"(n":"target-quality","converged":true})";

constexpr std::string_view kGoldenDefaultResult =
    R"({"engine":"","initial_cost":0,"best_cost":0,"best_quality":0,"be)"
    R"(st_objectives":{"wirelength":0,"delay":0,"area":0},"best_slots":)"
    R"([],"cost_trace":{"name":"","x":[],"y":[]},"best_trace":{"name":")"
    R"(","x":[],"y":[]},"best_vs_time":{"name":"","x":[],"y":[]},"best_)"
    R"(vs_global":{"name":"","x":[],"y":[]},"stats":{"iterations":0,"ac)"
    R"(cepted":0,"rejected_tabu":0,"aspirated":0,"early_accepts":0,"tri)"
    R"(als":0},"iterations":0,"makespan":0,"stop_reason":"completed","c)"
    R"(onverged":false})";

constexpr std::string_view kGoldenSpec =
    R"({"circuit":"c532","engine":"parallel-sim","seed":900719925474099)"
    R"(2,"deadline_seconds":1.5,"initial_slots":[3,1,2],"cost":{"num_pa)"
    R"(ths":12,"target_improvement":0.25,"initial_membership":0.1,"beta)"
    R"(":0.75,"rebuild_interval":1e+05},"tabu":{"tenure":17,"iterations)"
    R"(":333,"aspiration":false,"trace_stride":3,"compound":{"width":5,)"
    R"("depth":4,"early_accept":false,"batch":16}},"anneal":{"initial_a)"
    R"(cceptance":0.8,"cooling":0.95,"moves_per_temp":1000,"final_temp_)"
    R"(ratio":1e-04,"trace_stride":7},"local":{"candidates_per_iteratio)"
    R"(n":9,"patience":11,"max_iterations":1300,"trace_stride":2},"para)"
    R"(llel":{"num_tsws":3,"clws_per_tsw":2,"local_iterations":6,"globa)"
    R"(l_iterations":8,"diversify":{"depth":2,"width":3,"enabled":true,)"
    R"("batch":4}},"shared":{"threads":2,"chunk":64},"stop":{"max_itera)"
    R"(tions":1e+06,"max_seconds":-0,"target_cost":0.1,"target_quality")"
    R"(:null}})";

constexpr std::string_view kGoldenCacheKey =
    R"(deadbeef|{"circuit":"c532","engine":"parallel-sim","seed":900719)"
    R"(9254740992,"deadline_seconds":0,"initial_slots":[3,1,2],"cost":{)"
    R"("num_paths":12,"target_improvement":0.25,"initial_membership":0.)"
    R"(1,"beta":0.75,"rebuild_interval":1e+05},"tabu":{"tenure":17,"ite)"
    R"(rations":333,"aspiration":false,"trace_stride":3,"compound":{"wi)"
    R"(dth":5,"depth":4,"early_accept":false,"batch":16}},"anneal":{"in)"
    R"(itial_acceptance":0.8,"cooling":0.95,"moves_per_temp":1000,"fina)"
    R"(l_temp_ratio":1e-04,"trace_stride":7},"local":{"candidates_per_i)"
    R"(teration":9,"patience":11,"max_iterations":1300,"trace_stride":2)"
    R"(},"parallel":{"num_tsws":3,"clws_per_tsw":2,"local_iterations":6)"
    R"(,"global_iterations":8,"diversify":{"depth":2,"width":3,"enabled)"
    R"(":true,"batch":4}},"shared":{"threads":2,"chunk":64},"stop":{"ma)"
    R"(x_iterations":1e+06,"max_seconds":-0,"target_cost":0.1,"target_q)"
    R"(uality":null}})";

constexpr std::string_view kGoldenCheckpoint =
    R"({"version":1,"engine":"tabu","seed":"fedcba9876543210","circuit_)"
    R"(hash":"123456789abcdef","initial_cost":0.1,"elapsed_seconds":1e-)"
    R"(300,"eval":{"slots":[2,0,1],"hpwl_total":1e+05,"wire_sums":[9007)"
    R"(199254740992,-0],"swaps_applied":42,"swaps_since_rebuild":7},"se)"
    R"(arch":{"rng":{"s":["1","ffffffffffffffff","0","8000000000000000")"
    R"(],"spare":-1.5,"has_spare":true},"tabu_entries":[[0,1],[2,429496)"
    R"(7295]],"frequency":{"counts":[0,3,1e+05],"improving_counts":[1,0)"
    R"(,2],"transitions":5,"max_count":1e+05,"max_improving":2},"best_c)"
    R"(ost":0.5,"best_quality":0.25,"best_objectives":{"wirelength":1,")"
    R"(delay":2,"area":3},"best_slots":[1,2,0],"stats":{"iterations":10)"
    R"(,"accepted":9,"rejected_tabu":8,"aspirated":7,"early_accepts":6,)"
    R"("trials":500}},"cost_trace":{"name":"cost","x":[0,1],"y":[0.5,0.)"
    R"(25]},"best_trace":{"name":"","x":[],"y":[]},"best_vs_time":{"nam)"
    R"(e":"","x":[0.001],"y":[0.125]}})";

// -- wire bytes ----------------------------------------------------------------

TEST(WireGolden, ResultBytes) {
  EXPECT_EQ(encode_result(golden_result()), kGoldenResult);
  EXPECT_EQ(encode_result(solver::SolveResult{}), kGoldenDefaultResult);
}

TEST(WireGolden, SpecBytesAndCacheKey) {
  EXPECT_EQ(encode_spec(golden_spec()), kGoldenSpec);
  EXPECT_EQ(cache_key(golden_spec(), 0xdeadbeefull), kGoldenCacheKey);
}

TEST(WireGolden, CheckpointBytes) {
  EXPECT_EQ(solver::encode_checkpoint(golden_checkpoint()), kGoldenCheckpoint);
}

TEST(WireGolden, GoldensDecodeAndReencodeUnchanged) {
  std::string error;
  const auto result = decode_result(kGoldenResult, &error);
  ASSERT_TRUE(result.has_value()) << error;
  EXPECT_EQ(encode_result(*result), kGoldenResult);
  EXPECT_TRUE(std::signbit(result->best_cost));
  EXPECT_TRUE(result->best_trace.x.empty());

  const auto spec = decode_spec(kGoldenSpec, &error);
  ASSERT_TRUE(spec.has_value()) << error;
  EXPECT_EQ(encode_spec(*spec), kGoldenSpec);
  EXPECT_EQ(spec->spec.seed, 9007199254740992ull);

  solver::Checkpoint ck;
  ASSERT_EQ(solver::decode_checkpoint(std::string(kGoldenCheckpoint), &ck), "");
  EXPECT_EQ(solver::encode_checkpoint(ck), kGoldenCheckpoint);
}

TEST(WireGolden, EveryStopReasonRoundTrips) {
  for (const StopReason reason :
       {StopReason::Completed, StopReason::IterationBudget, StopReason::TimeLimit,
        StopReason::TargetCost, StopReason::TargetQuality, StopReason::Cancelled,
        StopReason::DeadlineExpired}) {
    solver::SolveResult result = golden_result();
    result.stop_reason = reason;
    const std::string text = encode_result(result);
    const std::string name = stop_reason_name(reason);
    EXPECT_NE(text.find("\"stop_reason\":\"" + name + "\""), std::string::npos);
    std::string error;
    const auto back = decode_result(text, &error);
    ASSERT_TRUE(back.has_value()) << name << ": " << error;
    EXPECT_EQ(back->stop_reason, reason) << name;
    EXPECT_EQ(stop_reason_from_name(name), reason);
  }
  EXPECT_FALSE(stop_reason_from_name("unknown").has_value());
  std::string bogus(kGoldenResult);
  bogus.replace(bogus.find("target-quality"), 14, "finished");
  std::string error;
  EXPECT_FALSE(decode_result(bogus, &error).has_value());
  EXPECT_NE(error.find("stop_reason"), std::string::npos) << error;
}

// -- number text -------------------------------------------------------------

std::string to_chars_text(double v) {
  char buf[32];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  EXPECT_EQ(ec, std::errc());
  return std::string(buf, end);
}

std::string writer_text(double v) {
  json::Writer w;
  w.value(v);
  return w.take();
}

TEST(JsonNumbers, WriterMatchesToCharsSweep) {
  std::vector<double> values = {0.0, -0.0, 0.5, -0.5, 1.0, -1.0};
  // +-2^53 boundaries: the integral fast path ends at 2^53.
  constexpr double kTwo53 = 9007199254740992.0;
  for (const double base : {kTwo53, 4503599627370496.0, 1e15, 1e16}) {
    for (double d = -4.0; d <= 4.0; d += 1.0) {
      values.push_back(base + d);
      values.push_back(-(base + d));
    }
  }
  // Powers of ten, their neighbours, and scaled mantissas (the f-versus-e
  // tie-break: "10000" and "1e+04" are the same length).
  double p = 1.0;
  for (int e = 0; e <= 22; ++e, p *= 10.0) {
    for (const double m : {1.0, 1.2, 12.0, 123.0, 9.0, 99.0, 101.0}) {
      values.push_back(m * p);
      values.push_back(-m * p);
    }
    values.push_back(p - 1.0);
    values.push_back(p + 1.0);
    values.push_back(1.0 / p);
  }
  // Half-integers (never integral: the to_chars path).
  for (double h = -1000.5; h <= 1000.5; h += 1.0) values.push_back(h);
  values.push_back(4503599627370495.5);
  // Every integer to 2 * 10^5, and random integers below 2^53.
  for (int i = 0; i <= 200000; ++i) values.push_back(static_cast<double>(i));
  Rng rng(53);
  for (int i = 0; i < 20000; ++i) {
    const int bits = static_cast<int>(rng.below(54));
    const auto n = static_cast<double>(rng.next() >> (64 - std::max(bits, 1)));
    values.push_back(n);
    values.push_back(-n);
    values.push_back(n * 1000.0);
  }
  for (const double v : values) {
    ASSERT_EQ(writer_text(v), to_chars_text(v)) << "value " << v;
  }
}

TEST(JsonNumbers, NonFiniteWritesNull) {
  EXPECT_EQ(writer_text(std::nan("")), "null");
  EXPECT_EQ(writer_text(HUGE_VAL), "null");
}

TEST(JsonNumbers, RfcGrammarAccepted) {
  const std::vector<std::pair<std::string, double>> cases = {
      {"0", 0.0},
      {"-0", -0.0},
      {"0.5", 0.5},
      {"-0.5e-3", -0.5e-3},
      {"10", 10.0},
      {"1e5", 1e5},
      {"1E+5", 1e5},
      {"2.50E-1", 0.25},
      {"999999999999999", 999999999999999.0},
      {"9007199254740993", 9007199254740992.0},  // rounds to even
      {"123456789012345678901234567890", 1.2345678901234568e29}};
  for (const auto& [text, expected] : cases) {
    std::string error;
    const auto value = json::parse(text, &error);
    ASSERT_TRUE(value.has_value()) << text << ": " << error;
    ASSERT_TRUE(value->is_number()) << text;
    EXPECT_EQ(value->as_number(), expected) << text;
    EXPECT_EQ(std::signbit(value->as_number()), std::signbit(expected)) << text;
  }
}

// -- the lean node -------------------------------------------------------------

TEST(JsonValue, LeanNode) {
  // A tagged variant over a std::string (32 bytes on LP64) plus its index.
  EXPECT_LE(sizeof(json::Value), sizeof(std::string) + 8);
  // Mismatched accessors return empty values instead of aborting.
  const json::Value number(2.0);
  EXPECT_EQ(number.as_string(), "");
  EXPECT_TRUE(number.items().empty());
  EXPECT_TRUE(number.members().empty());
  EXPECT_FALSE(number.as_bool());
  EXPECT_EQ(json::Value("x").as_number(), 0.0);
}

// -- duplicate keys ------------------------------------------------------------

TEST(JsonDuplicateKeys, ParseRefusesThem) {
  std::string error;
  EXPECT_FALSE(json::parse(R"({"a":1,"b":2,"a":3})", &error).has_value());
  EXPECT_NE(error.find("duplicate key 'a'"), std::string::npos) << error;
  EXPECT_FALSE(json::parse(R"([{"x":{"k":1,"k":1}}])", &error).has_value());
  EXPECT_NE(error.find("duplicate key 'k'"), std::string::npos) << error;
  // The same key in sibling or nested objects is not a repeat.
  EXPECT_TRUE(json::parse(R"({"a":{"a":1},"b":[{"a":2},{"a":3}]})", &error))
      << error;

  std::string wide = "{";
  for (int i = 0; i < 100; ++i) wide += "\"k" + std::to_string(i) + "\":0,";
  const auto unique = json::parse(wide + "\"last\":0}", &error);
  ASSERT_TRUE(unique.has_value()) << error;
  EXPECT_EQ(unique->members().size(), 101u);
  EXPECT_EQ(unique->members()[42].first, "k42");  // document order
  EXPECT_FALSE(json::parse(wide + "\"k42\":1}", &error).has_value());
  EXPECT_NE(error.find("duplicate key 'k42'"), std::string::npos) << error;
}

TEST(JsonDuplicateKeys, CodecRefusesThem) {
  std::string error;
  EXPECT_FALSE(decode_spec(R"({"circuit":"highway","seed":1,"seed":2})", &error));
  EXPECT_NE(error.find("duplicate key 'seed'"), std::string::npos) << error;
  EXPECT_FALSE(decode_spec(R"({"circuit":"highway","tabu":{"tenure":3,"tenure":4}})",
                           &error));
  EXPECT_NE(error.find("duplicate key 'tenure'"), std::string::npos) << error;

  // Repeating the last member of a valid result: every copy is identical,
  // and it is still refused.
  std::string text(kGoldenResult);
  text.insert(text.size() - 1, R"(,"converged":true)");
  EXPECT_FALSE(decode_result(text, &error));
  EXPECT_NE(error.find("duplicate key 'converged'"), std::string::npos) << error;
}

TEST(JsonDuplicateKeys, CheckpointReaderRefusesThem) {
  solver::Checkpoint sink;
  std::string top(kGoldenCheckpoint);
  top.insert(top.size() - 1, R"(,"seed":"1")");
  EXPECT_NE(solver::decode_checkpoint(top, &sink).find("duplicate key 'seed'"),
            std::string::npos);

  std::string nested(kGoldenCheckpoint);
  const std::string at = R"("swaps_applied":42)";
  const auto pos = nested.find(at);
  ASSERT_NE(pos, std::string::npos);
  nested.insert(pos, at + ",");
  EXPECT_NE(solver::decode_checkpoint(nested, &sink).find(
                "duplicate key 'swaps_applied'"),
            std::string::npos);
}

}  // namespace
}  // namespace pts::service
