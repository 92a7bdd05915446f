// Property-based conformance fuzzing.
//
// The synthetic generator doubles as a fuzzer: ~25 seeded random
// GeneratorConfigs spanning 50–5,000 gates (varied fanin, locality, pad
// counts, cell widths) re-assert on every generated circuit the invariants
// PRs 2–4 pinned by hand on the four paper circuits:
//
//  1. Structure: the flat CSR Topology agrees with the Cell/Net object
//     model (DESIGN.md §7), and the generator keeps its documented
//     guarantees (exact gate/PI counts, >= requested POs, acyclic).
//  2. Probe/commit: Evaluator::probe_swap is bit-identical to apply_swap
//     along a random committed walk (DESIGN.md §3).
//  3. Incremental HPWL: probe_nets (with kept boxes) == a real swap plus
//     update_nets box-for-box, delta-for-delta and change-for-change, the
//     running total tracks a from-scratch recompute, and rebuild() lands
//     exactly on the fresh total.
//  4. Timing: PathTimer::peek_delta equals the committed
//     apply_net_change/max_delay sequence bit for bit.
//
// Everything is exact-equality where the probe/commit contract promises
// bit-identity; the only tolerance is incremental-vs-fresh HPWL *drift*,
// which is bounded but nonzero by design (rebuild_interval caps it).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "cost/evaluator.hpp"
#include "netlist/generator.hpp"
#include "solver/checkpoint.hpp"
#include "placement/hpwl.hpp"
#include "placement/placement.hpp"
#include "support/rng.hpp"
#include "timing/paths.hpp"

namespace pts {
namespace {

using netlist::CellId;
using netlist::GeneratorConfig;
using netlist::kNoNet;
using netlist::Netlist;
using netlist::NetId;
using netlist::Topology;

constexpr int kNumConfigs = 25;

/// Deterministic config family: sizes log-spread across [50, 5000] (the
/// first two pinned to the endpoints), every other knob drawn from the
/// seeded stream so the 25 circuits differ in fanin, locality, pads and
/// width mix.
GeneratorConfig random_config(int index, Rng& rng) {
  GeneratorConfig config;
  config.name = "fuzz" + std::to_string(index);
  if (index == 0) {
    config.num_gates = 50;
  } else if (index == 1) {
    config.num_gates = 5000;
  } else {
    const double log_gates = rng.uniform(std::log(50.0), std::log(5000.0));
    config.num_gates = static_cast<std::size_t>(std::lround(std::exp(log_gates)));
  }
  config.num_primary_inputs = static_cast<std::size_t>(rng.between(2, 40));
  config.num_primary_outputs = static_cast<std::size_t>(rng.between(2, 40));
  config.max_fanin = static_cast<std::size_t>(rng.between(2, 8));
  config.avg_fanin = rng.uniform(1.2, static_cast<double>(config.max_fanin));
  config.locality = rng.uniform(0.0, 0.95);
  config.locality_window = static_cast<std::size_t>(rng.between(4, 64));
  config.min_width = 1;
  config.max_width = static_cast<int>(rng.between(1, 6));
  config.critical_net_fraction = rng.uniform(0.0, 0.3);
  config.seed = 0xF022'0000ULL + static_cast<std::uint64_t>(index);
  return config;
}

std::vector<GeneratorConfig> fuzz_configs() {
  Rng rng(0xFA2'2E5ULL);
  std::vector<GeneratorConfig> configs;
  configs.reserve(kNumConfigs);
  for (int i = 0; i < kNumConfigs; ++i) configs.push_back(random_config(i, rng));
  return configs;
}

std::unique_ptr<cost::Evaluator> make_eval(const Netlist& nl,
                                           const placement::Layout& layout,
                                           std::uint64_t seed) {
  cost::CostParams params;
  Rng rng(seed);
  auto p = placement::Placement::random(nl, layout, rng);
  auto paths =
      timing::extract_critical_paths(nl, params.num_paths, params.delay_model);
  const auto goals = cost::Evaluator::calibrate_goals(p, *paths, params);
  return std::make_unique<cost::Evaluator>(std::move(p), std::move(paths), params,
                                           goals);
}

// -- property 1: generator guarantees + CSR vs reference adjacency ----------

void expect_topology_matches_reference(const Netlist& nl) {
  const Topology& topo = nl.topology();
  ASSERT_EQ(topo.num_cells(), nl.num_cells());
  ASSERT_EQ(topo.num_nets(), nl.num_nets());
  ASSERT_EQ(topo.num_pins(), nl.num_pins());

  for (NetId net = 0; net < nl.num_nets(); ++net) {
    const auto& n = nl.net(net);
    const auto pins = topo.pins(net);
    ASSERT_EQ(pins.size(), n.pin_count()) << "net " << net;
    ASSERT_EQ(pins.front(), n.driver) << "net " << net;
    const auto sinks = topo.sinks(net);
    ASSERT_EQ(sinks.size(), n.sinks.size()) << "net " << net;
    for (std::size_t i = 0; i < sinks.size(); ++i) {
      ASSERT_EQ(sinks[i], n.sinks[i]) << "net " << net << " sink " << i;
    }
    ASSERT_EQ(topo.net_weight(net), n.weight) << "net " << net;
  }

  for (CellId cell = 0; cell < nl.num_cells(); ++cell) {
    const auto& c = nl.cell(cell);
    // Reference incident-net order: out net first, inputs deduplicated in
    // first-seen order.
    std::vector<NetId> expected;
    if (c.out_net != kNoNet) expected.push_back(c.out_net);
    for (NetId in : c.in_nets) {
      if (std::find(expected.begin(), expected.end(), in) == expected.end()) {
        expected.push_back(in);
      }
    }
    const auto incident = topo.nets_of(cell);
    ASSERT_EQ(incident.size(), expected.size()) << "cell " << cell;
    for (std::size_t i = 0; i < incident.size(); ++i) {
      ASSERT_EQ(incident[i], expected[i]) << "cell " << cell << " net " << i;
    }
    ASSERT_EQ(topo.cell_width(cell), static_cast<double>(c.width));
    ASSERT_EQ(topo.cell_intrinsic_delay(cell), c.intrinsic_delay);
    ASSERT_EQ(topo.cell_load_factor(cell), c.load_factor);
    ASSERT_EQ(topo.cell_movable(cell), c.movable());
  }
}

TEST(PropertyFuzz, GeneratorInvariantsAndCsrAdjacency) {
  for (const GeneratorConfig& config : fuzz_configs()) {
    SCOPED_TRACE(config.name + " gates=" + std::to_string(config.num_gates));
    const Netlist nl = netlist::generate_circuit(config);

    // Documented generator guarantees (generator.hpp).
    EXPECT_EQ(nl.num_movable(), config.num_gates);
    std::size_t pis = 0, pos = 0;
    for (CellId pad : nl.pad_cells()) {
      (nl.cell(pad).kind == netlist::CellKind::PrimaryInput ? pis : pos) += 1;
    }
    EXPECT_EQ(pis, config.num_primary_inputs);
    EXPECT_GE(pos, config.num_primary_outputs);
    // Acyclic: finalize() would have aborted otherwise; the topological
    // order must cover every cell.
    EXPECT_EQ(nl.topological_order().size(), nl.num_cells());
    EXPECT_GE(nl.logic_depth(), 1u);
    // Fanin stays inside the configured cap.
    for (CellId gate : nl.movable_cells()) {
      EXPECT_LE(nl.cell(gate).in_nets.size(), config.max_fanin);
    }

    expect_topology_matches_reference(nl);
  }
}

// -- property 2: probe_swap == apply_swap bit for bit ------------------------

TEST(PropertyFuzz, ProbeMatchesApplyBitForBit) {
  for (const GeneratorConfig& config : fuzz_configs()) {
    SCOPED_TRACE(config.name + " gates=" + std::to_string(config.num_gates));
    const Netlist nl = netlist::generate_circuit(config);
    const placement::Layout layout(nl);
    auto eval = make_eval(nl, layout, config.seed ^ 0x9e37ULL);

    Rng rng(config.seed ^ 0x517cULL);
    const auto& movable = nl.movable_cells();
    for (int i = 0; i < 60; ++i) {
      const auto [ia, ib] = rng.distinct_pair(movable.size());
      const CellId a = movable[ia];
      const CellId b = movable[ib];
      const double probed = eval->probe_swap(a, b);
      const double applied = eval->apply_swap(a, b);
      ASSERT_EQ(probed, applied) << config.name << " swap " << i;
    }
  }
}

// -- properties 3 + 4: incremental HPWL and peek_delta vs recompute ----------

TEST(PropertyFuzz, IncrementalHpwlAndPeekDeltaMatchRecompute) {
  for (const GeneratorConfig& config : fuzz_configs()) {
    SCOPED_TRACE(config.name + " gates=" + std::to_string(config.num_gates));
    const Netlist nl = netlist::generate_circuit(config);
    const placement::Layout layout(nl);
    Rng init_rng(config.seed ^ 0xB0B0ULL);
    auto placement = placement::Placement::random(nl, layout, init_rng);

    placement::HpwlState hpwl(placement);
    const timing::DelayModel model;
    const auto paths = timing::extract_critical_paths(nl, 24, model);
    timing::PathTimer timer(paths, hpwl, model);
    placement::NetMarker marker(nl.num_nets());
    std::vector<placement::NetBox> boxes;
    std::vector<placement::NetChange> probe_changes;
    std::vector<placement::NetChange> apply_changes;
    std::vector<CellId> moved;

    Rng rng(config.seed ^ 0xC4C4ULL);
    const auto& movable = nl.movable_cells();
    for (int i = 0; i < 60; ++i) {
      const auto [ia, ib] = rng.distinct_pair(movable.size());
      moved.clear();
      placement.swap_cells(movable[ia], movable[ib], &moved);
      marker.begin();
      for (CellId cell : moved) marker.add_nets_of(nl, cell);

      // Probe the same nets against the swapped geometry (read as plain
      // position arrays) before the committed update recomputes them; the
      // probe's kept boxes, delta, per-net changes, and peeked delay must
      // equal the committed sequence exactly (the §3 contract).
      probe_changes.clear();
      const double probed_delta =
          hpwl.probe_nets(placement.positions_x(), placement.positions_y(),
                          marker.nets(), &probe_changes, &boxes);
      const double peeked = timer.peek_delta(probe_changes);

      apply_changes.clear();
      const double applied_delta = hpwl.update_nets(marker.nets(), &apply_changes);
      for (const auto& change : apply_changes) {
        timer.apply_net_change(change.net, change.old_hpwl, change.new_hpwl);
      }

      ASSERT_EQ(probed_delta, applied_delta) << "swap " << i;
      ASSERT_EQ(boxes.size(), marker.nets().size()) << "swap " << i;
      for (std::size_t k = 0; k < boxes.size(); ++k) {
        const placement::NetBox& committed = hpwl.net_box(marker.nets()[k]);
        ASSERT_EQ(boxes[k].min_x, committed.min_x) << "swap " << i;
        ASSERT_EQ(boxes[k].max_x, committed.max_x) << "swap " << i;
        ASSERT_EQ(boxes[k].min_y, committed.min_y) << "swap " << i;
        ASSERT_EQ(boxes[k].max_y, committed.max_y) << "swap " << i;
      }
      ASSERT_EQ(probe_changes.size(), apply_changes.size()) << "swap " << i;
      for (std::size_t c = 0; c < probe_changes.size(); ++c) {
        ASSERT_EQ(probe_changes[c].net, apply_changes[c].net);
        ASSERT_EQ(probe_changes[c].old_hpwl, apply_changes[c].old_hpwl);
        ASSERT_EQ(probe_changes[c].new_hpwl, apply_changes[c].new_hpwl);
      }
      ASSERT_EQ(peeked, timer.max_delay()) << "swap " << i;
    }

    // Incremental total vs from-scratch recompute: drift-bounded while
    // incremental, exact after rebuild().
    const double fresh = hpwl.compute_fresh_total();
    EXPECT_NEAR(hpwl.total(), fresh, 1e-9 * std::max(1.0, std::abs(fresh)));
    hpwl.rebuild();
    EXPECT_EQ(hpwl.total(), hpwl.compute_fresh_total());
  }
}

// -- property 5: probe_batch == N apply/undo pairs, bit for bit --------------

TEST(PropertyFuzz, ProbeBatchMatchesApplyUndoBitForBit) {
  for (const GeneratorConfig& config : fuzz_configs()) {
    SCOPED_TRACE(config.name + " gates=" + std::to_string(config.num_gates));
    const Netlist nl = netlist::generate_circuit(config);
    const placement::Layout layout(nl);
    // Two evaluators seeded identically: one scores through probe_batch,
    // the other takes each reference cost from a real apply_swap and is
    // then put back exactly. The undo is a checkpoint restore rather than
    // the involutive second apply_swap: pad coordinates are not dyadic, so
    // an apply/undo pair can leave the running totals a few ulps off, and
    // the reference must stay on the batch evaluator's exact state. Their
    // committed states must stay bit-identical round after round.
    auto batch_eval = make_eval(nl, layout, config.seed ^ 0xBA7CULL);
    auto ref_eval = make_eval(nl, layout, config.seed ^ 0xBA7CULL);

    // A gate on a pad-driven net, forced into every batch so nets with pad
    // pins (whose fixed positions an overlay must never shift) are always
    // exercised.
    const auto& movable = nl.movable_cells();
    CellId pad_adjacent = netlist::kNoCell;
    for (CellId gate : movable) {
      for (NetId net : nl.topology().nets_of(gate)) {
        if (!nl.cell(nl.topology().driver(net)).movable()) {
          pad_adjacent = gate;
          break;
        }
      }
      if (pad_adjacent != netlist::kNoCell) break;
    }

    Rng rng(config.seed ^ 0x8A7CULL);
    std::vector<cost::Move> moves;
    std::vector<double> batch_costs;
    for (int round = 0; round < 6; ++round) {
      const std::size_t width = static_cast<std::size_t>(rng.between(1, 12));
      moves.clear();
      for (std::size_t w = 0; w < width; ++w) {
        const auto [ia, ib] = rng.distinct_pair(movable.size());
        moves.push_back({movable[ia], movable[ib]});
      }
      if (pad_adjacent != netlist::kNoCell && moves[0].b != pad_adjacent) {
        moves[0].a = pad_adjacent;
      }
      // Overlapping-net candidates: candidates 0 and 1 share a cell, so
      // their marked-net sets intersect.
      if (moves.size() >= 2) {
        moves[1].a = moves[0].a;
        if (moves[1].b == moves[1].a) moves[1].b = moves[0].b;
      }

      batch_costs.assign(moves.size(), 0.0);
      batch_eval->probe_batch(moves, batch_costs);

      // Bit-identity per candidate; track the first-strict-min winner the
      // way every candidate loop does.
      std::size_t best = 0;
      const cost::Evaluator::CheckpointState before = ref_eval->checkpoint();
      for (std::size_t i = 0; i < moves.size(); ++i) {
        const double applied = ref_eval->apply_swap(moves[i].a, moves[i].b);
        ref_eval->restore_checkpoint(before);
        ASSERT_EQ(batch_costs[i], applied)
            << config.name << " round " << round << " candidate " << i;
        if (batch_costs[i] < batch_costs[best]) best = i;
      }

      // Batch-then-commit of the winning index: commit_swap promotes the
      // batch's pending last candidate only when it won, and falls back to
      // apply_swap otherwise, so both commit paths get exercised — and both
      // must leave state bit-identical to the reference's apply_swap.
      const double batch_committed =
          batch_eval->commit_swap(moves[best].a, moves[best].b);
      const double ref_committed =
          ref_eval->apply_swap(moves[best].a, moves[best].b);
      ASSERT_EQ(batch_committed, ref_committed)
          << config.name << " round " << round;
      ASSERT_EQ(batch_eval->hpwl().total(), ref_eval->hpwl().total());
      ASSERT_EQ(batch_eval->objectives().delay, ref_eval->objectives().delay);
      ASSERT_TRUE(batch_eval->placement() == ref_eval->placement());
    }
  }
}

// -- property 5: checkpoint/resume == uninterrupted, on random circuits ------

TEST(PropertyFuzz, ResumedSearchMatchesUninterruptedBitForBit) {
  const auto configs = fuzz_configs();
  // A handful of the smaller circuits: the property is per-iteration state
  // equality, which a big circuit does not make stronger, only slower.
  int tested = 0;
  for (const auto& config : configs) {
    if (config.num_gates > 400 || tested >= 5) continue;
    ++tested;
    const Netlist nl = netlist::generate_circuit(config);

    solver::SolveSpec spec;
    spec.engine = "tabu";
    spec.netlist = &nl;
    spec.seed = config.seed ^ 0xCE50'11ULL;
    spec.tabu.iterations = 70;

    const auto full = solver::solve_with_checkpoint(spec);

    // Interrupt at an arbitrary seeded point, round-trip through JSON,
    // resume, and require the whole-run result to be bit-identical.
    Rng rng(config.seed ^ 0x1D1ULL);
    solver::SolveSpec interrupted = spec;
    interrupted.stop.max_iterations = 1 + rng.below(69);
    const auto half = solver::solve_with_checkpoint(interrupted);

    solver::Checkpoint restored;
    ASSERT_EQ(solver::decode_checkpoint(
                  solver::encode_checkpoint(half.checkpoint), &restored),
              "")
        << config.name;
    const auto resumed = solver::resume_from_checkpoint(spec, restored);

    ASSERT_EQ(resumed.result.best_cost, full.result.best_cost) << config.name;
    ASSERT_EQ(resumed.result.best_slots, full.result.best_slots) << config.name;
    ASSERT_EQ(resumed.result.stats.accepted, full.result.stats.accepted)
        << config.name;
    ASSERT_EQ(resumed.result.stats.trials, full.result.stats.trials)
        << config.name;
    ASSERT_EQ(resumed.checkpoint.eval.slots, full.checkpoint.eval.slots)
        << config.name;
    ASSERT_EQ(resumed.checkpoint.eval.hpwl_total, full.checkpoint.eval.hpwl_total)
        << config.name;
    ASSERT_EQ(resumed.checkpoint.eval.wire_sums, full.checkpoint.eval.wire_sums)
        << config.name;
  }
  ASSERT_GT(tested, 0);
}

}  // namespace
}  // namespace pts
