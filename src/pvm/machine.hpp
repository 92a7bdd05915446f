// Machine heterogeneity model.
//
// The paper runs on a parallel virtual machine of 12 workstations: seven
// high-speed, three medium-speed and two low-speed. We emulate that cluster
// with per-machine profiles: a task bound to a machine of speed `s`
// consumes `units / s` virtual seconds for `units` of work, optionally
// perturbed by a lognormal-ish load jitter that models other users' load on
// a shared LAN workstation.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "support/check.hpp"
#include "support/rng.hpp"

namespace pts::pvm {

struct MachineProfile {
  std::string name = "m";
  /// Relative speed: work units executed per unit of time. 1.0 = fast class.
  double speed = 1.0;
  /// Stddev of multiplicative load noise per work chunk (0 = quiet machine).
  double load_jitter = 0.0;

  /// Time to execute `units` of work given a jitter draw from `rng`.
  double time_for(double units, Rng& rng) const {
    PTS_DCHECK(speed > 0.0);
    double factor = 1.0;
    if (load_jitter > 0.0) {
      factor = 1.0 + load_jitter * std::abs(rng.normal());
    }
    return units * factor / speed;
  }
};

/// An ordered set of machines; tasks are bound round-robin in spawn order,
/// mirroring PVM's default task placement on the virtual machine.
struct ClusterConfig {
  std::vector<MachineProfile> machines;

  std::size_t size() const { return machines.size(); }

  const MachineProfile& machine_for_task(std::size_t task_index) const {
    PTS_CHECK(!machines.empty());
    return machines[task_index % machines.size()];
  }

  /// The paper's 12-workstation cluster: 7 fast, 3 medium, 2 slow.
  /// Speed ratios follow the three "speed levels" of Section 5; jitter
  /// models background LAN load.
  static ClusterConfig paper_cluster(double jitter = 0.05);

  /// `n` identical machines (the idealized homogeneous baseline).
  static ClusterConfig homogeneous(std::size_t n, double speed = 1.0,
                                   double jitter = 0.0);

  /// Custom three-class cluster.
  static ClusterConfig three_class(std::size_t fast, std::size_t medium,
                                   std::size_t slow, double fast_speed = 1.0,
                                   double medium_speed = 0.75,
                                   double slow_speed = 0.5, double jitter = 0.0);
};

}  // namespace pts::pvm
