#include "verify.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "baselines/constructive.hpp"
#include "cost/evaluator.hpp"
#include "placement/hpwl.hpp"
#include "placement/placement.hpp"

namespace perfbench {

using pts::netlist::CellId;

Verifier::Verifier(const pts::netlist::Netlist& netlist,
                   const pts::cost::CostParams& cost)
    : netlist_(&netlist),
      cost_(cost),
      layout_(netlist),
      paths_(pts::timing::extract_critical_paths(netlist, cost.num_paths,
                                                 cost.delay_model)) {}

std::optional<std::string> Verifier::check(std::uint64_t seed,
                                           const std::vector<CellId>& slots,
                                           double best_cost) const {
  const auto& nl = *netlist_;
  if (slots.size() != nl.num_movable()) {
    return "best_slots has " + std::to_string(slots.size()) + " entries, expected " +
           std::to_string(nl.num_movable());
  }
  std::vector<bool> seen(nl.num_cells(), false);
  for (CellId cell : slots) {
    if (cell >= nl.num_cells() || !nl.cell(cell).movable() || seen[cell]) {
      return "best_slots is not a permutation of the movable cells";
    }
    seen[cell] = true;
  }

  pts::Rng init_rng(seed ^ pts::solver::kInitStreamSalt);
  const auto initial = pts::baselines::random_placement(nl, layout_, init_rng);
  const auto goals =
      pts::cost::Evaluator::calibrate_goals(initial, *paths_, cost_);

  pts::placement::Placement placement(nl, layout_);
  placement.assign_slots(slots);
  const pts::placement::HpwlState hpwl(placement);
  const pts::timing::PathTimer timer(*paths_, hpwl, cost_.delay_model);
  pts::cost::Objectives o;
  o.wirelength = hpwl.total();
  o.delay = timer.max_delay();
  o.area = placement.max_row_extent() * layout_.core_height();
  const double fresh = goals.cost(o);
  // The search carries running totals with floating-point drift; a fresh
  // fold may differ from them in the last bits, never more.
  if (!(std::abs(fresh - best_cost) <= 1e-9 * std::max(1.0, std::abs(best_cost)))) {
    char buf[128];
    std::snprintf(buf, sizeof(buf), "re-evaluated cost %.17g != best_cost %.17g",
                  fresh, best_cost);
    return std::string(buf);
  }
  return std::nullopt;
}

namespace {

void hash_word(std::uint64_t& h, std::uint64_t word) {
  h ^= word;
  h *= 0x100000001b3ULL;
}

void hash_double(std::uint64_t& h, double value) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof bits);
  hash_word(h, bits);
}

void hash_series(std::uint64_t& h, const pts::Series& s) {
  hash_word(h, s.x.size());
  for (double v : s.x) hash_double(h, v);
  for (double v : s.y) hash_double(h, v);
}

}  // namespace

std::uint64_t fingerprint(const pts::solver::SolveResult& r) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (char c : r.engine) hash_word(h, static_cast<unsigned char>(c));
  hash_double(h, r.initial_cost);
  hash_double(h, r.best_cost);
  hash_double(h, r.best_quality);
  hash_double(h, r.best_objectives.wirelength);
  hash_double(h, r.best_objectives.delay);
  hash_double(h, r.best_objectives.area);
  for (CellId cell : r.best_slots) hash_word(h, cell);
  hash_series(h, r.cost_trace);
  hash_series(h, r.best_trace);
  hash_series(h, r.best_vs_global);
  hash_word(h, r.stats.iterations);
  hash_word(h, r.stats.accepted);
  hash_word(h, r.stats.trials);
  hash_word(h, r.iterations);
  hash_word(h, static_cast<std::uint64_t>(r.stop_reason));
  hash_word(h, r.converged ? 1 : 0);
  return h;
}

}  // namespace perfbench
