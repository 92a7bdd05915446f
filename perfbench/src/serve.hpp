// The serving rig shared by the serve-eco workload and the layer suite: an
// in-process ptsd Daemon with its result cache on, three Client
// connections, and a closed-loop load loop in which each client waits for a
// job's Done before it submits the next.
//
// Each client draws its own job sequence from the workload seed: about 3
// in 4 jobs repeat one of the last few specs that client has had answered
// (so the daemon's cache answers them without a session), the rest are
// fresh c532 tabu solves. Because repeats come only from a client's own
// recent answers, which jobs hit and which miss is fixed by the seed, not
// by timing. The cache is capped well above what the clients' recent
// windows need, so it fills early in a pass and then holds its size: the
// process's memory does not grow with the number of jobs a pass completes.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bench.hpp"
#include "netlist/netlist.hpp"
#include "service/client.hpp"
#include "service/daemon.hpp"
#include "trace.hpp"

namespace perfbench {

inline constexpr std::size_t kServeClients = 3;

struct ServeRig {
  std::unique_ptr<pts::service::Daemon> daemon;
  std::vector<pts::service::Client> clients;

  ServeRig() = default;
  ServeRig(const ServeRig&) = delete;
  ServeRig& operator=(const ServeRig&) = delete;
  ~ServeRig() { stop(); }

  /// Closes the clients, then drains and stops the daemon.
  void stop();
};

/// Starts a daemon on `socket_path` and connects the clients; each client
/// then runs one warm-up job of a fixed seed. Failures are counted in
/// `tally`; returns false if the rig could not come up.
bool start_rig(ServeRig& rig, const std::string& socket_path, Tally& tally);

/// One served job as a client saw it.
struct ServedJob {
  std::uint64_t seed = 0;
  bool repeat = false;     ///< the client had this spec answered before
  bool cached = false;     ///< the daemon answered from its cache
  double submit_s = 0.0;   ///< Client::submit round trip
  double latency_s = 0.0;  ///< submit → Done
  double makespan = 0.0;   ///< engine search time reported in the result
  std::uint64_t trials = 0;
  std::uint64_t fingerprint = 0;
};

struct ClientLog {
  std::vector<ServedJob> jobs;
  Tally tally;
  std::unique_ptr<Tracer> tracer;
};

/// Drives every client of `rig` closed-loop from its own thread until
/// `seconds` have passed or client k has completed max_jobs[k] jobs. The
/// logs are index-aligned with rig.clients. Client k's job sequence depends
/// only on `seed` and k, so a replay with the first run's job counts as
/// max_jobs repeats it job for job.
///
/// Every job counts as attempted. Repeats must be cache hits identical to
/// the client's first answer and fresh jobs must not be hits. With
/// `netlist` set, each fresh result is also checked in full, outside its
/// timing: it reaches the target quality, its best_slots re-evaluate to its
/// best_cost, and a seeded sample of about 1 in 16 is identical to a direct
/// same-seed solve (the served ≡ direct contract).
void drive_rig(ServeRig& rig, std::uint64_t seed, double seconds,
               const std::vector<std::size_t>& max_jobs,
               const pts::netlist::Netlist* netlist, bool trace,
               std::vector<ClientLog>& logs);

}  // namespace perfbench
