#include "serve.hpp"

#include <unistd.h>

#include <algorithm>
#include <optional>
#include <thread>
#include <utility>

#include "netlist/benchmarks.hpp"
#include "specs.hpp"
#include "verify.hpp"

namespace perfbench {
namespace {

constexpr std::uint64_t kWarmupSeed = 0x7761726d;  // "warm"
constexpr std::uint64_t kFreshStream = 0x66726573;   // "fres"
constexpr std::uint64_t kPickStream = 0x7069636b;    // "pick"
constexpr std::uint64_t kSampleStream = 0x73616d70;  // "samp"
/// About one fresh result in this many is re-solved directly and compared.
constexpr std::uint64_t kDirectCheckEvery = 16;
/// Repeats draw from this many of a client's latest fresh specs; the cache
/// holds kCacheEntries, far more than the clients' windows together, so a
/// repeat always hits however the clients interleave.
constexpr std::size_t kRecentAnswers = 32;
constexpr std::size_t kCacheEntries = 1024;

/// A job seed the wire can carry: JSON numbers hold integers up to 2^53.
std::uint64_t wire_seed(std::uint64_t a, std::uint64_t b) { return mix_seed(a, b) >> 11; }

struct SpanIds {
  std::uint32_t job;
  std::uint32_t submit;
  std::uint32_t wait;

  explicit SpanIds(Tracer& tracer)
      : job(tracer.intern("serve.job")),
        submit(tracer.intern("client.submit")),
        wait(tracer.intern("client.wait")) {}
};

/// Submits `job` and waits for its Done, timing both as the caller sees
/// them. nullopt (with `error`) on a refusal or a transport error.
std::optional<pts::solver::SolveResult> run_job(pts::service::Client& client,
                                                const pts::service::JobRequest& job,
                                                Tracer& tracer, const SpanIds& ids,
                                                ServedJob& rec, std::string* error) {
  Scope span(tracer, ids.job, job.spec.seed);
  const double t0 = now_s();
  std::optional<std::uint64_t> session;
  {
    Scope submit(tracer, ids.submit, job.spec.seed);
    session = client.submit(job, /*stream=*/false, 0, error, nullptr, 0, &rec.cached);
  }
  rec.submit_s = now_s() - t0;
  if (!session) return std::nullopt;
  std::optional<pts::solver::SolveResult> result;
  {
    Scope wait(tracer, ids.wait, job.spec.seed);
    result = client.wait(*session, nullptr, error);
  }
  rec.latency_s = now_s() - t0;
  return result;
}

/// Full output checks of one fresh result (see drive_rig).
class OutputCheck {
 public:
  OutputCheck(const pts::netlist::Netlist& netlist, std::uint64_t seed)
      : netlist_(&netlist), verifier_(netlist, serve_job(0).spec.cost),
        sample_seed_(seed ^ kSampleStream) {}

  std::optional<std::string> check(std::uint64_t seed,
                                   const pts::solver::SolveResult& r) const {
    if (auto why = check_reached("tabu", r.stop_reason, r.best_quality, kServeTargetQuality)) {
      return why;
    }
    if (auto bad = verifier_.check(seed, r.best_slots, r.best_cost)) return bad;
    if (mix_seed(sample_seed_, seed) % kDirectCheckEvery == 0) {
      auto spec = serve_job(seed).spec;
      spec.netlist = netlist_;
      if (fingerprint(pts::solver::Solver().solve(spec)) != fingerprint(r)) {
        return std::string("served result differs from a direct same-seed solve");
      }
    }
    return std::nullopt;
  }

 private:
  const pts::netlist::Netlist* netlist_;
  Verifier verifier_;
  std::uint64_t sample_seed_;
};

void client_loop(pts::service::Client& client, std::uint64_t client_seed,
                 double deadline, std::size_t max_jobs, const OutputCheck* outputs,
                 ClientLog& log) {
  Tracer& tracer = *log.tracer;
  const SpanIds ids(tracer);
  pts::Rng pick(client_seed ^ kPickStream);
  // The client's last kRecentAnswers fresh specs with their first answers.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> recent;
  std::uint64_t fresh = 0;
  while (log.jobs.size() < max_jobs && now_s() < deadline) {
    ServedJob rec;
    rec.repeat = !recent.empty() && pick.below(4) != 0;
    const std::size_t slot = rec.repeat ? pick.below(recent.size()) : 0;
    rec.seed = rec.repeat ? recent[slot].first
                          : wire_seed(client_seed ^ kFreshStream, fresh++);
    ++log.tally.attempted;
    std::string error;
    const auto result = run_job(client, serve_job(rec.seed), tracer, ids, rec, &error);
    auto fail = [&](const std::string& why) {
      log.tally.fail("job seed " + std::to_string(rec.seed) + ": " + why);
    };
    if (!result) {
      fail(error);
      if (!client.connected()) return;
      continue;
    }
    rec.makespan = result->makespan;
    rec.trials = result->stats.trials;
    rec.fingerprint = fingerprint(*result);
    if (rec.repeat) {
      if (!rec.cached) {
        fail("a repeated spec was not a cache hit");
      } else if (recent[slot].second != rec.fingerprint) {
        fail("cache hit differs from the first answer");
      }
    } else {
      if (rec.cached) fail("a fresh spec was answered from the cache");
      if (recent.size() < kRecentAnswers) {
        recent.emplace_back(rec.seed, rec.fingerprint);
      } else {
        recent[(fresh - 1) % kRecentAnswers] = {rec.seed, rec.fingerprint};
      }
      if (outputs != nullptr) {
        if (auto why = outputs->check(rec.seed, *result)) fail(*why);
      }
    }
    log.jobs.push_back(rec);
  }
}

}  // namespace

void ServeRig::stop() {
  for (auto& client : clients) client.close();
  clients.clear();
  if (daemon) {
    daemon->stop();
    daemon.reset();
  }
}

bool start_rig(ServeRig& rig, const std::string& socket_path, Tally& tally) {
  pts::service::DaemonConfig config;
  config.unix_path = socket_path;
  config.cache_entries = kCacheEntries;
  rig.daemon = std::make_unique<pts::service::Daemon>(config);
  std::string error;
  if (!rig.daemon->start(&error)) {
    ++tally.attempted;
    tally.fail("daemon start: " + error);
    return false;
  }
  for (std::size_t k = 0; k < kServeClients; ++k) {
    pts::service::Client client;
    client.set_timeouts(5.0, 30.0);
    if (!client.connect_unix(socket_path, &error) || !client.hello(&error)) {
      ++tally.attempted;
      tally.fail("client connect: " + error);
      return false;
    }
    rig.clients.push_back(std::move(client));
  }
  Tracer off(false);
  const SpanIds ids(off);
  bool ok = true;
  for (std::size_t k = 0; k < kServeClients; ++k) {
    ++tally.attempted;
    ServedJob rec;
    const auto job = serve_job(wire_seed(kWarmupSeed, k));
    const auto result = run_job(rig.clients[k], job, off, ids, rec, &error);
    if (!result) {
      tally.fail("warm-up job: " + error);
      ok = false;
    } else if (auto why = check_reached("tabu", result->stop_reason,
                                        result->best_quality, kServeTargetQuality)) {
      tally.fail("warm-up job: " + *why);
    }
  }
  return ok;
}

void drive_rig(ServeRig& rig, std::uint64_t seed, double seconds,
               const std::vector<std::size_t>& max_jobs,
               const pts::netlist::Netlist* netlist, bool trace,
               std::vector<ClientLog>& logs) {
  logs.clear();
  logs.resize(rig.clients.size());
  for (auto& log : logs) log.tracer = std::make_unique<Tracer>(trace);
  std::unique_ptr<OutputCheck> outputs;
  if (netlist != nullptr) outputs = std::make_unique<OutputCheck>(*netlist, seed);
  const double start = now_s();
  std::vector<std::thread> threads;
  for (std::size_t k = 0; k < rig.clients.size(); ++k) {
    threads.emplace_back([&rig, &logs, &max_jobs, &outputs, k, seed, start, seconds] {
      client_loop(rig.clients[k], mix_seed(seed, k), start + seconds, max_jobs[k],
                  outputs.get(), logs[k]);
    });
  }
  for (auto& t : threads) t.join();
}

EndToEnd run_serve_workload(std::uint64_t seed, double seconds,
                            const std::string& work_dir, Tracer& tracer) {
  EndToEnd out;
  Window& win = out.window;
  Tally& tally = win.tally;
  const std::string socket =
      work_dir + "/ptsd-" + std::to_string(::getpid()) + ".sock";

  // Each pass runs on a fresh rig, so every pass starts from an empty cache
  // and replays the same hits and misses. Its set-up — circuit generation,
  // daemon start, client connects and one warm-up job per client — is timed;
  // setup_s is the median over passes. Pass 0 runs for its share of the
  // window with full output checks; later passes replay exactly its job
  // counts (with a generous cap on their time) and must match it job for
  // job.
  std::vector<double> setups;
  std::size_t passes_done = 0;
  std::vector<ClientLog> first;
  std::vector<std::vector<double>> best(kServeClients);
  std::vector<std::size_t> counts(kServeClients, static_cast<std::size_t>(-1));
  for (std::size_t p = 0; p < kPasses; ++p) {
    const double t0 = now_s();
    const auto nl = pts::netlist::make_benchmark(kServeCircuit);
    ServeRig rig;
    const bool up = start_rig(rig, socket, tally);
    setups.push_back(now_s() - t0);
    if (!up) break;
    std::vector<ClientLog> logs;
    const double limit = p == 0 ? seconds / static_cast<double>(kPasses) : 120.0;
    drive_rig(rig, seed, limit, counts, p == 0 ? &nl : nullptr, tracer.enabled(), logs);
    ++passes_done;
    const std::uint64_t daemon_hits = rig.daemon->cache_hits();
    rig.stop();

    std::uint64_t client_hits = 0;
    for (std::size_t k = 0; k < kServeClients; ++k) {
      tracer.merge(*logs[k].tracer);
      tally.merge(logs[k].tally);
      const auto& jobs = logs[k].jobs;
      for (const auto& job : jobs) client_hits += job.cached ? 1 : 0;
      if (p == 0) {
        counts[k] = jobs.size();
        for (const auto& job : jobs) best[k].push_back(job.latency_s);
        continue;
      }
      if (jobs.size() != counts[k]) {
        tally.fail("a replayed pass completed " + std::to_string(jobs.size()) + " of " +
                   std::to_string(counts[k]) + " jobs");
        continue;
      }
      for (std::size_t i = 0; i < jobs.size(); ++i) {
        best[k][i] = std::min(best[k][i], jobs[i].latency_s);
        if (jobs[i].fingerprint != first[k].jobs[i].fingerprint) {
          tally.fail("job seed " + std::to_string(jobs[i].seed) +
                     ": a replayed job differs from its first run");
        }
      }
    }
    if (p == 0) first = std::move(logs);
    if (daemon_hits != client_hits) {
      tally.fail("daemon counted " + std::to_string(daemon_hits) +
                 " cache hits, clients saw " + std::to_string(client_hits));
    }
  }
  out.setup_s = median(setups);
  if (passes_done != kPasses) return out;

  // Each client's jobs run one after another, so a pass in which every job
  // ran at its fastest takes as long as the busiest client's sum.
  for (std::size_t k = 0; k < kServeClients; ++k) {
    double busy = 0.0;
    for (std::size_t i = 0; i < first[k].jobs.size(); ++i) {
      const ServedJob& job = first[k].jobs[i];
      win.job_latency_s.push_back(best[k][i]);
      busy += best[k][i];
      if (!job.cached) {
        win.solve_s.push_back(best[k][i]);
        win.trials += job.trials;
      }
    }
    win.pass_s = std::max(win.pass_s, busy);
  }
  return out;
}

}  // namespace perfbench
