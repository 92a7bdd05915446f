// Output checks. A solve result passes when its best_slots is a permutation
// of the circuit's movable cells and a from-scratch re-evaluation of that
// placement reproduces best_cost. The re-evaluation rebuilds the cost scale
// the way solver.hpp documents it — goals calibrated against the
// seed-derived random placement — and then measures the placement with
// fresh HPWL and path-timing state instead of the search's running totals.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "netlist/netlist.hpp"
#include "placement/layout.hpp"
#include "solver/solver.hpp"
#include "timing/paths.hpp"

namespace perfbench {

/// Per-circuit state the checks reuse across results.
class Verifier {
 public:
  Verifier(const pts::netlist::Netlist& netlist, const pts::cost::CostParams& cost);

  /// Empty when `slots` is a permutation whose fresh cost under the goals
  /// of `seed` matches `best_cost`; otherwise the reason.
  std::optional<std::string> check(std::uint64_t seed,
                                   const std::vector<pts::netlist::CellId>& slots,
                                   double best_cost) const;

 private:
  const pts::netlist::Netlist* netlist_;
  pts::cost::CostParams cost_;
  pts::placement::Layout layout_;
  std::shared_ptr<const pts::timing::PathSet> paths_;
};

/// Order-sensitive hash of every field a same-seed solve must reproduce bit
/// for bit (everything but wall-clock time), for comparing many results
/// without keeping them.
std::uint64_t fingerprint(const pts::solver::SolveResult& result);

}  // namespace perfbench
