// Micro-benchmarks (google-benchmark) for the search inner loop: swap
// evaluation, compound construction, HPWL/STA rebuilds, and one simulated
// local iteration. Not a paper figure — engineering data for the ablation
// discussion in DESIGN.md.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <string>
#include <vector>

#include "cost/evaluator.hpp"
#include "experiments/workloads.hpp"
#include "parallel/worker_logic.hpp"
#include "tabu/compound.hpp"
#include "timing/sta.hpp"

namespace {

using namespace pts;

std::unique_ptr<cost::Evaluator> make_eval(const netlist::Netlist& nl,
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

const netlist::Netlist& circuit_for(int index) {
  static const char* names[] = {"highway", "c532", "c1355", "c3540"};
  return experiments::circuit(names[index]);
}

template <typename SwapFn>
void run_swap_bench(benchmark::State& state, SwapFn&& swap) {
  const auto& nl = circuit_for(static_cast<int>(state.range(0)));
  static std::map<const netlist::Netlist*, std::unique_ptr<placement::Layout>>
      layouts;
  auto& layout = layouts[&nl];
  if (!layout) layout = std::make_unique<placement::Layout>(nl);
  auto eval = make_eval(nl, *layout, 1);
  Rng rng(2);
  const auto& movable = nl.movable_cells();
  for (auto _ : state) {
    const auto [ia, ib] = rng.distinct_pair(movable.size());
    benchmark::DoNotOptimize(swap(*eval, movable[ia], movable[ib]));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.SetLabel(nl.name());
}

void BM_ApplySwap(benchmark::State& state) {
  run_swap_bench(state, [](cost::Evaluator& e, netlist::CellId a,
                           netlist::CellId b) { return e.apply_swap(a, b); });
}
BENCHMARK(BM_ApplySwap)->DenseRange(0, 3);

void BM_ProbeSwap(benchmark::State& state) {
  run_swap_bench(state, [](cost::Evaluator& e, netlist::CellId a,
                           netlist::CellId b) { return e.probe_swap(a, b); });
}
BENCHMARK(BM_ProbeSwap)->DenseRange(0, 3);

// Batched candidate scoring vs BM_ProbeSwap (the width-1 batch): one
// iteration samples `width` pairs (same stream discipline as BM_ProbeSwap —
// one draw per trial) and scores them in a single Evaluator::probe_batch
// call, so items/s are directly comparable between the two families.
// dump_json.py tracks the batch-8 per-candidate time against BM_ProbeSwap
// as probe_batch_speedup: what a wider call amortizes over width 1.
void run_probe_batch_bench(benchmark::State& state, std::size_t width) {
  const auto& nl = circuit_for(static_cast<int>(state.range(0)));
  static std::map<const netlist::Netlist*, std::unique_ptr<placement::Layout>>
      layouts;
  auto& layout = layouts[&nl];
  if (!layout) layout = std::make_unique<placement::Layout>(nl);
  auto eval = make_eval(nl, *layout, 1);
  Rng rng(2);
  const auto& movable = nl.movable_cells();
  std::vector<cost::Move> moves(width);
  std::vector<double> costs(width);
  for (auto _ : state) {
    for (std::size_t w = 0; w < width; ++w) {
      const auto [ia, ib] = rng.distinct_pair(movable.size());
      moves[w] = {movable[ia], movable[ib]};
    }
    eval->probe_batch(moves, costs);
    benchmark::DoNotOptimize(costs.data());
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * width));
  state.SetLabel(nl.name());
}

void BM_ProbeBatch4(benchmark::State& state) {
  run_probe_batch_bench(state, 4);
}
BENCHMARK(BM_ProbeBatch4)->DenseRange(0, 3);

void BM_ProbeBatch8(benchmark::State& state) {
  run_probe_batch_bench(state, 8);
}
BENCHMARK(BM_ProbeBatch8)->DenseRange(0, 3);

void BM_ProbeBatch16(benchmark::State& state) {
  run_probe_batch_bench(state, 16);
}
BENCHMARK(BM_ProbeBatch16)->DenseRange(0, 3);

void BM_ProbeBatch32(benchmark::State& state) {
  run_probe_batch_bench(state, 32);
}
BENCHMARK(BM_ProbeBatch32)->DenseRange(0, 3);

// -- CSR vs vector-of-vectors probe throughput ------------------------------
//
// The core of one trial probe is: gather the union of nets incident to the
// two swapped cells, recompute each net's bounding box over its pins, and
// accumulate the weighted half-perimeters. BM_ProbeCsr runs that pass as
// the library ships it — flat netlist::Topology adjacency and the flat
// per-cell position arrays. BM_ProbeVecOfVec runs the identical arithmetic
// through a faithful replica of the pre-Topology data path: per-net Net
// structs (name string included, as Netlist stores them) with
// heap-allocated sink vectors, a vector-of-vectors incident-net index, and
// the old per-pin position lookup (Cell-struct movable check, then
// slot -> row division and row_y for gates, layout pad table for pads).
// The pair measures what the layout refactor bought end to end on one
// probe pass. Expected >=1.3x on c3540 (tracked in BENCH_baseline.json via
// bench/dump_json.py).

struct VecOfVecNet {
  std::string name;  // the old Net struct carried its name before the pins
  netlist::CellId driver = netlist::kNoCell;
  std::vector<netlist::CellId> sinks;
  double weight = 1.0;
};

struct VecOfVecTopology {
  const netlist::Netlist* nl;
  std::vector<VecOfVecNet> nets;
  std::vector<std::vector<netlist::NetId>> nets_of;

  explicit VecOfVecTopology(const netlist::Netlist& netlist) : nl(&netlist) {
    nets.reserve(nl->num_nets());
    for (netlist::NetId n = 0; n < nl->num_nets(); ++n) {
      const auto& net = nl->net(n);
      nets.push_back({net.name, net.driver, net.sinks, net.weight});
    }
    nets_of.resize(nl->num_cells());
    for (netlist::CellId c = 0; c < nl->num_cells(); ++c) {
      const auto incident = nl->nets_of(c);
      nets_of[c].assign(incident.begin(), incident.end());
    }
  }

  // The pre-refactor Placement::position(): a Cell-struct load for the
  // movable check, then slot -> row division + row_y recomputation per pin
  // (pads from the layout table).
  placement::Point position(const placement::Placement& p,
                            netlist::CellId cell) const {
    if (!nl->cell(cell).movable()) return p.layout().pad_position(cell);
    const placement::SlotId slot = p.slot_of(cell);
    const placement::Point modern = p.position(cell);
    return placement::Point{modern.x,
                            p.layout().row_y(p.layout().row_of_slot(slot))};
  }
};

struct ProbeScratch {
  std::vector<std::uint64_t> stamp;
  std::uint64_t epoch = 0;
  std::vector<netlist::NetId> nets;

  explicit ProbeScratch(std::size_t num_nets) : stamp(num_nets, 0) {
    nets.reserve(num_nets);
  }
};

inline void grow_box(placement::NetBox& box, const placement::Point p) {
  box.min_x = std::min(box.min_x, p.x);
  box.max_x = std::max(box.max_x, p.x);
  box.min_y = std::min(box.min_y, p.y);
  box.max_y = std::max(box.max_y, p.y);
}

double probe_pair_csr(const netlist::Topology& topo, const placement::Placement& p,
                      netlist::CellId a, netlist::CellId b, ProbeScratch& fx) {
  ++fx.epoch;
  fx.nets.clear();
  for (netlist::CellId cell : {a, b}) {
    for (netlist::NetId net : topo.nets_of(cell)) {
      if (fx.stamp[net] != fx.epoch) {
        fx.stamp[net] = fx.epoch;
        fx.nets.push_back(net);
      }
    }
  }
  double total = 0.0;
  for (netlist::NetId net : fx.nets) {
    const auto pins = topo.pins(net);
    const placement::Point d = p.position(pins.front());
    placement::NetBox box{d.x, d.x, d.y, d.y};
    for (netlist::CellId sink : pins.subspan(1)) grow_box(box, p.position(sink));
    total += topo.net_weight(net) * box.half_perimeter();
  }
  return total;
}

double probe_pair_vecofvec(const VecOfVecTopology& topo,
                           const placement::Placement& p, netlist::CellId a,
                           netlist::CellId b, ProbeScratch& fx) {
  ++fx.epoch;
  fx.nets.clear();
  for (netlist::CellId cell : {a, b}) {
    for (netlist::NetId net : topo.nets_of[cell]) {
      if (fx.stamp[net] != fx.epoch) {
        fx.stamp[net] = fx.epoch;
        fx.nets.push_back(net);
      }
    }
  }
  double total = 0.0;
  for (netlist::NetId net : fx.nets) {
    const VecOfVecNet& n = topo.nets[net];
    const placement::Point d = topo.position(p, n.driver);
    placement::NetBox box{d.x, d.x, d.y, d.y};
    for (netlist::CellId sink : n.sinks) grow_box(box, topo.position(p, sink));
    total += n.weight * box.half_perimeter();
  }
  return total;
}

template <typename ProbeFn>
void run_probe_topology_bench(benchmark::State& state, ProbeFn&& probe) {
  const auto& nl = circuit_for(static_cast<int>(state.range(0)));
  const placement::Layout layout(nl);
  Rng rng(11);
  const auto p = placement::Placement::random(nl, layout, rng);
  ProbeScratch fx(nl.num_nets());
  const auto& movable = nl.movable_cells();
  for (auto _ : state) {
    const auto [ia, ib] = rng.distinct_pair(movable.size());
    benchmark::DoNotOptimize(probe(p, movable[ia], movable[ib], fx));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.SetLabel(nl.name());
}

void BM_ProbeCsr(benchmark::State& state) {
  const auto& nl = circuit_for(static_cast<int>(state.range(0)));
  const auto& topo = nl.topology();
  run_probe_topology_bench(
      state, [&topo](const placement::Placement& p, netlist::CellId a,
                     netlist::CellId b, ProbeScratch& fx) {
        return probe_pair_csr(topo, p, a, b, fx);
      });
}
BENCHMARK(BM_ProbeCsr)->DenseRange(0, 3);

void BM_ProbeVecOfVec(benchmark::State& state) {
  const auto& nl = circuit_for(static_cast<int>(state.range(0)));
  const VecOfVecTopology topo(nl);
  run_probe_topology_bench(
      state, [&topo](const placement::Placement& p, netlist::CellId a,
                     netlist::CellId b, ProbeScratch& fx) {
        return probe_pair_vecofvec(topo, p, a, b, fx);
      });
}
BENCHMARK(BM_ProbeVecOfVec)->DenseRange(0, 3);

// The compound-move trial loop, both ways, at one level of `width` trials
// plus the committed winner (the winner is applied and immediately undone so
// each iteration measures the same distribution of states). The probe-based
// loop is the shipped code path; the apply/undo loop is the pre-refactor
// baseline kept for regression tracking — the probe loop is expected to stay
// >=1.5x faster at c3540 scale.
void trial_level_apply_undo(cost::Evaluator& eval, const tabu::CellRange& range,
                            std::size_t width, Rng& rng) {
  tabu::Move best{};
  double best_cost = 0.0;
  bool have = false;
  for (std::size_t t = 0; t < width; ++t) {
    const auto move = tabu::sample_move(eval.placement().netlist(), range, rng);
    const double after = eval.apply_swap(move.a, move.b);
    eval.apply_swap(move.a, move.b);  // undo trial
    if (!have || after < best_cost) {
      best = move;
      best_cost = after;
      have = true;
    }
  }
  eval.apply_swap(best.a, best.b);
  eval.apply_swap(best.a, best.b);  // revert the winner: keep state stable
}

void trial_level_probe(cost::Evaluator& eval, const tabu::CellRange& range,
                       std::size_t width, Rng& rng) {
  tabu::Move best{};
  double best_cost = 0.0;
  bool have = false;
  for (std::size_t t = 0; t < width; ++t) {
    const auto move = tabu::sample_move(eval.placement().netlist(), range, rng);
    const double after = eval.probe_swap(move.a, move.b);
    if (!have || after < best_cost) {
      best = move;
      best_cost = after;
      have = true;
    }
  }
  eval.commit_swap(best.a, best.b);  // promotes the probe if the last trial won
  eval.apply_swap(best.a, best.b);   // revert the winner: keep state stable
}

template <typename LevelFn>
void run_trial_level_bench(benchmark::State& state, LevelFn&& level) {
  const auto& nl = circuit_for(static_cast<int>(state.range(0)));
  const placement::Layout layout(nl);
  auto eval = make_eval(nl, layout, 9);
  Rng rng(10);
  const tabu::CellRange range = tabu::full_range(nl);
  const std::size_t width = 8;
  for (auto _ : state) {
    level(*eval, range, width, rng);
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * width));
  state.SetLabel(nl.name() + " width=8");
}

void BM_TrialLevelApplyUndo(benchmark::State& state) {
  run_trial_level_bench(state, trial_level_apply_undo);
}
BENCHMARK(BM_TrialLevelApplyUndo)->DenseRange(0, 3);

void BM_TrialLevelProbe(benchmark::State& state) {
  run_trial_level_bench(state, trial_level_probe);
}
BENCHMARK(BM_TrialLevelProbe)->DenseRange(0, 3);

void BM_CompoundMove(benchmark::State& state) {
  const auto& nl = circuit_for(1);  // c532
  const placement::Layout layout(nl);
  auto eval = make_eval(nl, layout, 3);
  Rng rng(4);
  tabu::CompoundParams params;
  params.width = static_cast<std::size_t>(state.range(0));
  params.depth = 3;
  for (auto _ : state) {
    const auto move =
        tabu::build_compound_move(*eval, tabu::full_range(nl), params, rng);
    tabu::undo_compound(*eval, move);
  }
  state.SetLabel("c532 width=" + std::to_string(params.width));
}
BENCHMARK(BM_CompoundMove)->Arg(4)->Arg(8)->Arg(16);

void BM_HpwlRebuild(benchmark::State& state) {
  const auto& nl = circuit_for(static_cast<int>(state.range(0)));
  const placement::Layout layout(nl);
  Rng rng(5);
  const auto p = placement::Placement::random(nl, layout, rng);
  placement::HpwlState hpwl(p);
  for (auto _ : state) {
    hpwl.rebuild();
    benchmark::DoNotOptimize(hpwl.total());
  }
  state.SetLabel(nl.name());
}
BENCHMARK(BM_HpwlRebuild)->DenseRange(0, 3);

void BM_ExactSta(benchmark::State& state) {
  const auto& nl = circuit_for(static_cast<int>(state.range(0)));
  const placement::Layout layout(nl);
  Rng rng(6);
  const auto p = placement::Placement::random(nl, layout, rng);
  const placement::HpwlState hpwl(p);
  const timing::DelayModel model;
  for (auto _ : state) {
    benchmark::DoNotOptimize(timing::run_sta(nl, hpwl, model).critical_delay);
  }
  state.SetLabel(nl.name());
}
BENCHMARK(BM_ExactSta)->DenseRange(0, 3);

void BM_SimFullSearch(benchmark::State& state) {
  const auto& nl = circuit_for(static_cast<int>(state.range(0)));
  auto config = experiments::base_config(nl, 7, /*quick=*/true);
  config.num_tsws = 4;
  config.clws_per_tsw = 2;
  for (auto _ : state) {
    benchmark::DoNotOptimize(experiments::run_sim(nl, config).best_cost);
  }
  state.SetLabel(nl.name() + " 4x2 quick");
}
BENCHMARK(BM_SimFullSearch)->DenseRange(0, 1);

}  // namespace

// Custom main so the shared --smoke convention works here too (see
// bench_common.hpp): --smoke clamps every benchmark's measuring time, which
// keeps `micro_core --smoke --benchmark_format=json` (the input to
// bench/dump_json.py and the CI perf-trail artifact) seconds-long. All other
// arguments pass through to google-benchmark untouched.
int main(int argc, char** argv) {
  std::vector<std::string> storage(argv, argv + argc);
  bool smoke = false;
  std::vector<char*> args;
  for (auto& arg : storage) {
    if (arg == "--smoke") {
      smoke = true;
      continue;
    }
    args.push_back(arg.data());
  }
  // Long enough that the tracked probe-throughput ratios are stable run to
  // run (the perf-trail JSON is diffed across pushes), short enough that
  // the whole tier stays seconds-long.
  std::string min_time = "--benchmark_min_time=0.2";
  if (smoke) args.push_back(min_time.data());
  int args_count = static_cast<int>(args.size());
  benchmark::Initialize(&args_count, args.data());
  if (benchmark::ReportUnrecognizedArguments(args_count, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
