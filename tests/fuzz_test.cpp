// Seeded mutation fuzzer for the JSON decoders that read untrusted bytes:
// json::parse, decode_spec, decode_result (the wire) and decode_checkpoint
// (files). The corpus is valid encodings generated here — specs, results
// of real solves, a real checkpoint — and each mutant comes from bit
// flips, truncations, splices, duplicate-key injection or digit-run
// inflation. Seeds and budgets are fixed, so a failure replays exactly.
//
// Beyond "never aborts" (the ASan+UBSan job runs this suite), every
// accepted input must be a fixed point of its codec — re-encoding what was
// decoded and decoding that again gives the same bytes — and DOM-level
// edits must be refused by name: an injected duplicate or unknown key in
// any document, and a dropped member anywhere in a checkpoint.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "experiments/workloads.hpp"
#include "service/codec.hpp"
#include "solver/checkpoint.hpp"
#include "solver/solver.hpp"
#include "support/json.hpp"
#include "support/rng.hpp"

namespace pts::service {
namespace {

enum class Doc { Spec, Result, Checkpoint };

struct Sample {
  Doc doc;
  std::string text;
};

solver::SolveSpec highway_spec(const std::string& engine, std::uint64_t seed) {
  solver::SolveSpec spec;
  spec.engine = engine;
  spec.netlist = &experiments::circuit("highway");
  spec.seed = seed;
  spec.tabu.iterations = 20;
  spec.local.max_iterations = 40;
  return spec;
}

const std::vector<Sample>& corpus() {
  static const std::vector<Sample> samples = [] {
    std::vector<Sample> out;
    JobRequest plain;
    plain.circuit = "highway";
    out.push_back({Doc::Spec, encode_spec(plain)});
    JobRequest eco = plain;
    eco.circuit = "c532";
    eco.deadline_seconds = 2.5;
    eco.spec.engine = "parallel-sim";
    eco.spec.seed = 123456789;
    eco.spec.initial_slots = {4, 0, 3, 1, 2};
    eco.spec.stop.target_cost = 0.125;
    out.push_back({Doc::Spec, encode_spec(eco)});

    const solver::Solver solver;
    out.push_back({Doc::Result, encode_result(solver.solve(highway_spec("tabu", 3)))});
    out.push_back({Doc::Result, encode_result(solver.solve(highway_spec("local", 4)))});

    const auto checkpointed = solver::solve_with_checkpoint(highway_spec("tabu", 5));
    out.push_back(
        {Doc::Checkpoint, solver::encode_checkpoint(checkpointed.checkpoint)});
    return out;
  }();
  return samples;
}

// -- mutations ------------------------------------------------------------------

void flip_bits(std::string& text, Rng& rng) {
  if (text.empty()) return;
  const auto flips = 1 + rng.below(4);
  for (std::uint64_t i = 0; i < flips; ++i) {
    text[rng.below(text.size())] ^= static_cast<char>(1u << rng.below(8));
  }
}

void truncate(std::string& text, Rng& rng) { text.resize(rng.below(text.size() + 1)); }

/// Replaces a random range with a random slice of another sample.
void splice(std::string& text, Rng& rng) {
  const std::string& donor = corpus()[rng.below(corpus().size())].text;
  const auto from = rng.below(donor.size());
  const auto length = rng.below(std::min<std::uint64_t>(donor.size() - from, 256) + 1);
  const auto at = rng.below(text.size() + 1);
  const auto erase = rng.below(std::min<std::uint64_t>(text.size() - at, 64) + 1);
  text.replace(at, erase, donor, from, length);
}

/// Lengthens a run of digits by up to a few thousand more.
void inflate_digits(std::string& text, Rng& rng) {
  std::vector<std::size_t> digits;
  for (std::size_t i = 0; i < text.size(); ++i) {
    if (text[i] >= '0' && text[i] <= '9') digits.push_back(i);
  }
  if (digits.empty()) return;
  const std::size_t at = digits[rng.below(digits.size())];
  std::string run(1 + rng.below(rng.below(2) == 0 ? 24 : 4000), '0');
  for (char& c : run) c = static_cast<char>('0' + rng.below(10));
  text.insert(at, run);
}

/// Copies `value`, rebuilding the `target`-th object visited (pre-order)
/// from its members as `edit` leaves them. `seen` counts the objects
/// visited so far.
template <typename Edit>
json::Value with_edit(const json::Value& value, std::size_t target, std::size_t& seen,
                      const Edit& edit) {
  if (value.is_array()) {
    json::Value out = json::Value::array();
    for (const auto& item : value.items()) {
      out.push_back(with_edit(item, target, seen, edit));
    }
    return out;
  }
  if (!value.is_object()) return value;
  const bool here = seen++ == target;
  std::vector<json::Member> members;
  for (const auto& [key, member] : value.members()) {
    members.emplace_back(key, with_edit(member, target, seen, edit));
  }
  if (here) edit(members);
  json::Value out = json::Value::object();
  for (auto& [key, member] : members) out.append(std::move(key), std::move(member));
  return out;
}

std::size_t count_objects(const json::Value& value) {
  std::size_t n = value.is_object() ? 1 : 0;
  for (const auto& item : value.items()) n += count_objects(item);
  for (const auto& [key, member] : value.members()) n += count_objects(member);
  return n;
}

/// Repeats one member of a random object.
std::string inject_duplicate(const std::string& text, Rng& rng) {
  const auto value = json::parse(text, nullptr);
  if (!value) return text;
  std::size_t seen = 0;
  return json::dump(with_edit(*value, rng.below(count_objects(*value)), seen,
                              [&](std::vector<json::Member>& members) {
                                if (members.empty()) return;
                                members.push_back(members[rng.below(members.size())]);
                              }));
}

std::string mutate(const std::string& text, Rng& rng) {
  std::string out = text;
  const auto rounds = 1 + rng.below(3);
  for (std::uint64_t r = 0; r < rounds; ++r) {
    switch (rng.below(5)) {
      case 0: flip_bits(out, rng); break;
      case 1: truncate(out, rng); break;
      case 2: splice(out, rng); break;
      case 3: out = inject_duplicate(out, rng); break;
      default: inflate_digits(out, rng); break;
    }
  }
  return out;
}

// -- oracles ------------------------------------------------------------------

/// Feeds `text` to every decoder; whatever one accepts must re-encode to a
/// fixed point of that codec.
void check_all_decoders(const std::string& text) {
  std::string error;
  if (const auto value = json::parse(text, &error)) {
    const std::string once = json::dump(*value);
    const auto again = json::parse(once, &error);
    ASSERT_TRUE(again.has_value()) << error;
    ASSERT_EQ(json::dump(*again), once);
  } else {
    ASSERT_FALSE(error.empty());
  }

  if (const auto job = decode_spec(text, &error)) {
    const std::string once = encode_spec(*job);
    const auto again = decode_spec(once, &error);
    ASSERT_TRUE(again.has_value()) << error;
    ASSERT_EQ(encode_spec(*again), once);
  }

  if (const auto result = decode_result(text, &error)) {
    const std::string once = encode_result(*result);
    const auto again = decode_result(once, &error);
    ASSERT_TRUE(again.has_value()) << error;
    ASSERT_EQ(encode_result(*again), once);
  }

  solver::Checkpoint ck;
  if (solver::decode_checkpoint(text, &ck).empty()) {
    const std::string once = solver::encode_checkpoint(ck);
    solver::Checkpoint again;
    ASSERT_EQ(solver::decode_checkpoint(once, &again), "");
    ASSERT_EQ(solver::encode_checkpoint(again), once);
  }
}

std::string decode_error(Doc doc, const std::string& text) {
  std::string error;
  switch (doc) {
    case Doc::Spec:
      return decode_spec(text, &error) ? std::string() : error;
    case Doc::Result:
      return decode_result(text, &error) ? std::string() : error;
    case Doc::Checkpoint: {
      solver::Checkpoint ck;
      return solver::decode_checkpoint(text, &ck);
    }
  }
  return {};
}

// -- tests --------------------------------------------------------------------

constexpr std::uint64_t kSeeds[] = {1, 2, 3, 4};
constexpr int kMutantsPerSample = 100;

TEST(JsonFuzz, CorpusDecodes) {
  for (const Sample& sample : corpus()) {
    EXPECT_EQ(decode_error(sample.doc, sample.text), "");
    check_all_decoders(sample.text);
  }
}

TEST(JsonFuzz, MutantsNeverAbortAndAcceptedInputsAreFixedPoints) {
  for (const std::uint64_t seed : kSeeds) {
    Rng rng(seed);
    for (const Sample& sample : corpus()) {
      for (int i = 0; i < kMutantsPerSample; ++i) {
        const std::string mutant = mutate(sample.text, rng);
        SCOPED_TRACE("seed " + std::to_string(seed) + " mutant " + std::to_string(i));
        check_all_decoders(mutant);
        if (HasFatalFailure()) return;
      }
    }
  }
}

TEST(JsonFuzz, InjectedDuplicateKeysAreAlwaysRefused) {
  // Every object in these documents belongs to the schema, so a repeated
  // key anywhere must surface as a decode error naming it.
  for (const std::uint64_t seed : kSeeds) {
    Rng rng(seed);
    for (const Sample& sample : corpus()) {
      for (int i = 0; i < kMutantsPerSample; ++i) {
        const std::string mutant = inject_duplicate(sample.text, rng);
        const std::string error = decode_error(sample.doc, mutant);
        ASSERT_NE(error.find("duplicate key"), std::string::npos)
            << "seed " << seed << ": accepted " << mutant << " (" << error << ")";
      }
    }
  }
}

TEST(JsonFuzz, InjectedUnknownKeysAreAlwaysRefused) {
  // An extra member anywhere in a spec, result or checkpoint, at any
  // position among its siblings, must be refused by name.
  for (const std::uint64_t seed : kSeeds) {
    Rng rng(seed);
    for (const Sample& sample : corpus()) {
      const auto value = json::parse(sample.text, nullptr);
      ASSERT_TRUE(value.has_value());
      for (int i = 0; i < kMutantsPerSample; ++i) {
        const std::string key = "injected" + std::to_string(i);
        std::size_t seen = 0;
        const std::string mutant = json::dump(
            with_edit(*value, rng.below(count_objects(*value)), seen,
                      [&](std::vector<json::Member>& members) {
                        const auto at = static_cast<std::ptrdiff_t>(
                            rng.below(members.size() + 1));
                        members.insert(members.begin() + at, {key, json::Value(1.0)});
                      }));
        const std::string error = decode_error(sample.doc, mutant);
        ASSERT_NE(error.find("unknown key '" + key + "'"), std::string::npos)
            << "seed " << seed << ": accepted " << mutant << " (" << error << ")";
      }
    }
  }
}

TEST(JsonFuzz, DroppedMembersAreRefusedInCheckpoints) {
  // Every member of a checkpoint, at every depth, is required: dropping any
  // one of them must be refused with an error naming it.
  for (const Sample& sample : corpus()) {
    if (sample.doc != Doc::Checkpoint) continue;
    const auto value = json::parse(sample.text, nullptr);
    ASSERT_TRUE(value.has_value());
    const std::size_t objects = count_objects(*value);
    std::size_t dropped = 0;
    for (std::size_t target = 0; target < objects; ++target) {
      for (std::size_t index = 0;; ++index) {
        std::string key;
        std::size_t seen = 0;
        const std::string mutant = json::dump(
            with_edit(*value, target, seen, [&](std::vector<json::Member>& members) {
              if (index >= members.size()) return;
              key = members[index].first;
              members.erase(members.begin() + static_cast<std::ptrdiff_t>(index));
            }));
        if (key.empty()) break;
        ++dropped;
        const std::string error = decode_error(sample.doc, mutant);
        ASSERT_NE(error.find("'" + key + "' is required"), std::string::npos)
            << "dropped '" << key << "' from object " << target << ": " << error;
      }
    }
    EXPECT_GE(dropped, 40u);  // every member of every object was tried
  }
}

}  // namespace
}  // namespace pts::service
