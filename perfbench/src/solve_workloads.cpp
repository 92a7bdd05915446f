// The three solve workloads: sequential tabu and 2-thread parallel-shared
// on scale10k, and anneal on c3540. Each run sets up several times (the
// median is setup_s), then times kPasses passes over one seed sequence.
#include <memory>
#include <vector>

#include "bench.hpp"
#include "netlist/benchmarks.hpp"
#include "specs.hpp"
#include "trace.hpp"
#include "verify.hpp"

namespace perfbench {
namespace {

constexpr std::size_t kSetupRepeats = 5;
constexpr std::uint64_t kWarmupSeed = 0x7761726d;  // "warm"

volatile double g_warm_sink = 0.0;

struct SolveWorkload {
  const char* name;
  const char* circuit;
  std::size_t threads;  ///< 0: sequential engine
  bool anneal;

  pts::solver::SolveSpec spec(const pts::netlist::Netlist& nl,
                              std::uint64_t seed) const {
    return anneal ? anneal_spec(nl, seed) : scaled_tabu_spec(nl, seed, threads);
  }
  double target() const { return anneal ? kAnnealQualityFloor : kTabuTargetQuality; }
};

constexpr SolveWorkload kWorkloads[] = {
    {"tabu-scale10k", "scale10k", 0, false},
    {"shared-scale10k", "scale10k", kSharedThreads, false},
    {"anneal-c3540", "c3540", 0, true},
};

const SolveWorkload* find_workload(const std::string& name) {
  for (const auto& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

/// Candidate evaluations of one solve: tabu-family trials, anneal moves.
std::uint64_t trials_of(const pts::solver::SolveResult& r) {
  return r.engine == "anneal" ? r.iterations : r.stats.trials;
}

}  // namespace

bool is_solve_workload(const std::string& name) {
  return find_workload(name) != nullptr;
}

EndToEnd run_solve_workload(const std::string& name, std::uint64_t seed,
                            double seconds, Tracer& tracer) {
  const SolveWorkload& w = *find_workload(name);
  const pts::solver::Solver solver;
  EndToEnd out;
  Window& win = out.window;
  Tally& tally = win.tally;

  // Set-up: circuit generation with its CSR build, plus one warm-up solve
  // of a fixed seed, repeated; the last repetition's circuit is measured.
  std::unique_ptr<pts::netlist::Netlist> nl;
  std::vector<double> setups;
  for (std::size_t r = 0; r < kSetupRepeats; ++r) {
    const double t0 = now_s();
    nl = std::make_unique<pts::netlist::Netlist>(pts::netlist::make_benchmark(w.circuit));
    g_warm_sink = solver.solve(w.spec(*nl, kWarmupSeed)).best_cost;
    setups.push_back(now_s() - t0);
  }
  out.setup_s = median(setups);
  const Verifier verifier(*nl, w.spec(*nl, 0).cost);

  // Pass 0 solves fresh seeds for its share of the window and checks each
  // result outside its timing; later passes replay the same seeds and must
  // reproduce pass 0 bit for bit.
  const std::uint32_t span_solve = tracer.intern("solver.solve");
  std::vector<std::uint64_t> seeds, prints;
  std::vector<std::vector<double>> times(kPasses);
  const double first_pass_s = seconds / static_cast<double>(kPasses);
  for (std::size_t p = 0; p < kPasses; ++p) {
    const double start = now_s();
    for (std::size_t i = 0; p == 0 ? now_s() - start < first_pass_s : i < seeds.size(); ++i) {
      if (p == 0) seeds.push_back(mix_seed(seed, i));
      const std::uint64_t s = seeds[i];
      const auto spec = w.spec(*nl, s);
      pts::solver::SolveResult r;
      double dt = 0.0;
      {
        Scope span(tracer, span_solve, s);
        const double t0 = now_s();
        r = solver.solve(spec);
        dt = now_s() - t0;
        span.set_work(trials_of(r));
      }
      times[p].push_back(dt);
      ++tally.attempted;
      const std::string who = "seed " + std::to_string(s) + ": ";
      if (p > 0) {
        if (fingerprint(r) != prints[i]) tally.fail(who + "a replayed solve differs");
        continue;
      }
      win.trials += trials_of(r);
      prints.push_back(fingerprint(r));
      if (auto why = check_reached(spec.engine, r.stop_reason, r.best_quality, w.target())) {
        tally.fail(who + *why);
      } else if (auto bad = verifier.check(s, r.best_slots, r.best_cost)) {
        tally.fail(who + *bad);
      }
    }
  }
  win.job_latency_s = fastest(times);
  win.solve_s = win.job_latency_s;
  for (double t : win.job_latency_s) win.pass_s += t;
  return out;
}

}  // namespace perfbench
