// The traced run's per-layer suite. Every measurement is a span around one
// call the benchmark makes into a layer, on inputs derived from the seed,
// with fixed sample counts, so every count it reports repeats exactly for
// a given seed. Times are medians over the spans of one name.
//
// The probe split rebuilds the evaluator's steps from the layers' public
// pieces on the benchmark's own Placement / HpwlState / PathTimer:
//   swap     Placement::swap_cells, reporting the moved cells
//   mark     NetMarker over the moved cells → the touched nets
//   box      HpwlState::update_nets → one NetChange per net that moved
//   peek     PathTimer::peek_delta on those NetChanges
//   owa      FuzzyGoals::cost on the resulting objectives
// over a committed random walk, then times the Evaluator's own trial APIs
// (probe_swap, probe_batch, commit_probe, apply_swap) on the same circuit.
#include <unistd.h>

#include <algorithm>
#include <functional>
#include <memory>

#include "baselines/constructive.hpp"
#include "bench.hpp"
#include "cost/evaluator.hpp"
#include "netlist/benchmarks.hpp"
#include "placement/hpwl.hpp"
#include "placement/placement.hpp"
#include "serve.hpp"
#include "service/codec.hpp"
#include "specs.hpp"
#include "support/parallel_for.hpp"
#include "timing/paths.hpp"
#include "trace.hpp"
#include "verify.hpp"

namespace perfbench {
namespace {

using pts::netlist::CellId;

constexpr const char* kProbeCircuits[] = {"c532", "c3540", "scale10k", "scale50k"};
constexpr std::size_t kBuildRepeats = 3;
constexpr std::size_t kWalkSteps = 2000;
constexpr std::size_t kProbes = 2000;
constexpr std::size_t kBatchWidth = 8;
constexpr std::size_t kBatches = 250;
constexpr std::size_t kCommits = 500;
constexpr std::size_t kOwaCalls = 64;  // OWA calls per span: one is ~10 ns
constexpr std::size_t kEngineSolves = 6;
constexpr std::size_t kSetupSolves = 30;
constexpr std::size_t kParallelSolves = 4;
constexpr std::size_t kParallelIterations = 60;
constexpr std::size_t kForkJoins = 2000;
constexpr std::size_t kServeJobsPerClient = 150;
constexpr std::size_t kCodecResults = 32;

volatile double g_sink = 0.0;  // keeps timed results observable

void pick_pair(pts::Rng& rng, const std::vector<CellId>& movable, CellId& a, CellId& b) {
  a = movable[rng.below(movable.size())];
  do {
    b = movable[rng.below(movable.size())];
  } while (b == a);
}

void probe_split(const std::string& c, std::uint64_t seed, Tracer& tr, Metrics& out) {
  auto name = [&c](const char* base) { return std::string(base) + "." + c; };
  const pts::cost::CostParams cost;

  std::unique_ptr<pts::netlist::Netlist> nl;
  const auto id_build = tr.intern(name("netlist.build"));
  for (std::size_t r = 0; r < kBuildRepeats; ++r) {
    Scope s(tr, id_build, r);
    nl = std::make_unique<pts::netlist::Netlist>(pts::netlist::make_benchmark(c));
  }
  const pts::placement::Layout layout(*nl);
  std::shared_ptr<const pts::timing::PathSet> paths;
  const auto id_paths = tr.intern(name("timing.paths"));
  for (std::size_t r = 0; r < kBuildRepeats; ++r) {
    Scope s(tr, id_paths, r);
    paths = pts::timing::extract_critical_paths(*nl, cost.num_paths, cost.delay_model);
  }
  pts::Rng rng(mix_seed(seed, nl->num_movable()));
  const auto initial = pts::baselines::random_placement(*nl, layout, rng);
  pts::cost::FuzzyGoals goals;
  const auto id_calibrate = tr.intern(name("cost.calibrate"));
  for (std::size_t r = 0; r < kBuildRepeats; ++r) {
    Scope s(tr, id_calibrate, r);
    goals = pts::cost::Evaluator::calibrate_goals(initial, *paths, cost);
  }

  // Step by step, on a committed random walk.
  pts::placement::Placement place = initial;
  pts::placement::HpwlState hpwl(place);
  pts::timing::PathTimer timer(paths, hpwl, cost.delay_model);
  pts::placement::NetMarker marker(nl->num_nets());
  std::vector<CellId> moved;
  moved.reserve(nl->num_cells());
  std::vector<pts::placement::NetChange> changes;
  changes.reserve(nl->num_nets());
  const auto& topology = nl->topology();
  const auto& movable = nl->movable_cells();
  const auto id_step = tr.intern(name("probe.step"));
  const auto id_swap = tr.intern(name("placement.swap"));
  const auto id_mark = tr.intern(name("placement.mark"));
  const auto id_box = tr.intern(name("placement.box"));
  const auto id_peek = tr.intern(name("timing.peek"));
  const auto id_owa = tr.intern(name("cost.owa"));
  for (std::size_t i = 0; i < kWalkSteps; ++i) {
    CellId a = 0, b = 0;
    pick_pair(rng, movable, a, b);
    Scope step(tr, id_step, i);
    {
      Scope s(tr, id_swap, i);
      moved.clear();
      place.swap_cells(a, b, &moved);
      s.set_work(moved.size());
    }
    {
      Scope s(tr, id_mark, i);
      marker.begin();
      for (CellId cell : moved) marker.add_nets_of(topology, cell);
      s.set_work(marker.nets().size());
    }
    {
      Scope s(tr, id_box, i);
      changes.clear();
      hpwl.update_nets(marker.nets(), &changes);
      s.set_work(changes.size());
    }
    double delay = 0.0;
    {
      Scope s(tr, id_peek, i);
      delay = timer.peek_delta(changes);
    }
    timer.commit_peek();
    const pts::cost::Objectives o{hpwl.total(), delay,
                                  place.max_row_extent() * layout.core_height()};
    {
      Scope s(tr, id_owa, i);
      double acc = 0.0;
      for (std::size_t k = 0; k < kOwaCalls; ++k) acc += goals.cost(o);
      g_sink = acc;
      s.set_items(kOwaCalls);
    }
  }

  // The evaluator's trial APIs on the same circuit.
  pts::cost::Evaluator eval(initial, paths, cost, goals);
  const auto id_probe = tr.intern(name("cost.probe"));
  for (std::size_t i = 0; i < kProbes; ++i) {
    CellId a = 0, b = 0;
    pick_pair(rng, movable, a, b);
    Scope s(tr, id_probe, i);
    g_sink = eval.probe_swap(a, b);
  }
  std::vector<pts::cost::Move> moves(kBatchWidth);
  std::vector<double> costs(kBatchWidth);
  const auto id_batch = tr.intern(name("cost.probe_batch"));
  for (std::size_t i = 0; i <= kBatches; ++i) {
    for (auto& m : moves) pick_pair(rng, movable, m.a, m.b);
    if (i == 0) {  // the first batch materializes the shadow arrays
      eval.probe_batch(moves, costs);
      continue;
    }
    Scope s(tr, id_batch, i);
    eval.probe_batch(moves, costs);
    s.set_items(kBatchWidth);
  }
  const auto id_commit = tr.intern(name("cost.commit"));
  for (std::size_t i = 0; i < kCommits; ++i) {
    CellId a = 0, b = 0;
    pick_pair(rng, movable, a, b);
    eval.probe_swap(a, b);
    Scope s(tr, id_commit, i);
    g_sink = eval.commit_probe();
  }
  const auto id_apply = tr.intern(name("cost.apply"));
  for (std::size_t i = 0; i < kCommits; ++i) {
    CellId a = 0, b = 0;
    pick_pair(rng, movable, a, b);
    Scope s(tr, id_apply, i);
    g_sink = eval.apply_swap(a, b);
  }

  auto ns = [&](const char* base) { return tr.median_ns(name(base)); };
  out.add(name("netlist.build_ms"), ns("netlist.build") * 1e-6, "ms");
  out.add(name("timing.paths_ms"), ns("timing.paths") * 1e-6, "ms");
  out.add(name("cost.calibrate_ms"), ns("cost.calibrate") * 1e-6, "ms");
  out.add(name("placement.swap_ns"), ns("placement.swap"), "ns");
  out.add(name("placement.moved_cells_per_swap"), tr.mean_work(name("placement.swap")),
          "count");
  out.add(name("placement.mark_ns"), ns("placement.mark"), "ns");
  out.add(name("placement.nets_per_swap"), tr.mean_work(name("placement.mark")), "count");
  out.add(name("placement.box_ns"), ns("placement.box"), "ns");
  out.add(name("placement.box_ns_per_net"),
          tr.total_ns(name("placement.box")) / tr.total_work(name("placement.mark")), "ns");
  out.add(name("placement.changes_per_swap"), tr.mean_work(name("placement.box")), "count");
  const double split_total =
      tr.total_ns(name("placement.swap")) + tr.total_ns(name("placement.mark")) +
      tr.total_ns(name("placement.box")) + tr.total_ns(name("timing.peek")) +
      tr.total_ns(name("cost.owa")) / static_cast<double>(kOwaCalls);
  out.add(name("placement.box_share"), tr.total_ns(name("placement.box")) / split_total,
          "ratio");
  out.add(name("timing.peek_ns"), ns("timing.peek"), "ns");
  out.add(name("cost.owa_ns"), ns("cost.owa"), "ns");
  out.add(name("cost.probe_ns"), ns("cost.probe"), "ns");
  out.add(name("cost.probe_batch_ns"), ns("cost.probe_batch"), "ns");
  out.add(name("cost.commit_ns"), ns("cost.commit"), "ns");
  out.add(name("cost.apply_ns"), ns("cost.apply"), "ns");
}

/// Tabu and anneal solves: per-iteration cost and the work mix, from the
/// engines' own SolveResult counters.
void engine_layers(std::uint64_t seed, double probe_batch_ns, Tracer& tr, Metrics& out,
                   Tally& tally) {
  const pts::solver::Solver solver;
  {
    const auto nl = pts::netlist::make_benchmark("scale10k");
    const Verifier verifier(nl, pts::cost::CostParams{});
    const auto id = tr.intern("tabu.solve");
    std::vector<double> iter_us, non_probe;
    double trials = 0.0, iterations = 0.0;
    for (std::size_t k = 0; k < kEngineSolves; ++k) {
      const auto s = mix_seed(seed ^ 0x74616275, k);
      pts::solver::SolveResult r;
      {
        Scope span(tr, id, s);
        r = solver.solve(scaled_tabu_spec(nl, s, 0));
        span.set_work(r.stats.trials);
      }
      const double it = static_cast<double>(r.iterations);
      iter_us.push_back(r.makespan / it * 1e6);
      non_probe.push_back(1.0 - static_cast<double>(r.stats.trials) * probe_batch_ns * 1e-9 /
                                    r.makespan);
      trials += static_cast<double>(r.stats.trials);
      iterations += it;
      ++tally.attempted;
      if (auto why = check_reached("tabu", r.stop_reason, r.best_quality, kTabuTargetQuality)) {
        tally.fail("tabu layer solve: " + *why);
      } else if (auto bad = verifier.check(s, r.best_slots, r.best_cost)) {
        tally.fail("tabu layer solve: " + *bad);
      }
    }
    out.add("tabu.iter_us", median(iter_us), "us");
    out.add("tabu.trials_per_iter", trials / iterations, "count");
    out.add("tabu.non_probe_share", median(non_probe), "ratio");
  }
  {
    const auto nl = pts::netlist::make_benchmark("c3540");
    const Verifier verifier(nl, pts::cost::CostParams{});
    const auto id = tr.intern("baselines.anneal");
    std::vector<double> move_ns;
    double moves = 0.0, accepted = 0.0;
    for (std::size_t k = 0; k < kEngineSolves; ++k) {
      const auto s = mix_seed(seed ^ 0x616e6e65, k);
      pts::solver::SolveResult r;
      {
        Scope span(tr, id, s);
        r = solver.solve(anneal_spec(nl, s));
        span.set_work(r.iterations);
      }
      move_ns.push_back(r.makespan / static_cast<double>(r.iterations) * 1e9);
      moves += static_cast<double>(r.iterations);
      accepted += static_cast<double>(r.stats.accepted);
      ++tally.attempted;
      if (auto why = check_reached("anneal", r.stop_reason, r.best_quality,
                                   kAnnealQualityFloor)) {
        tally.fail("anneal layer solve: " + *why);
      } else if (auto bad = verifier.check(s, r.best_slots, r.best_cost)) {
        tally.fail("anneal layer solve: " + *bad);
      }
    }
    out.add("baselines.anneal_move_ns", median(move_ns), "ns");
    out.add("baselines.anneal_accept_ratio", accepted / moves, "ratio");
  }
}

/// Sequential set-up (layout, random placement, paths, calibration) against
/// a whole solve, on the serve-eco job spec.
void solver_layer(std::uint64_t seed, Tracer& tr, Metrics& out, Tally& tally) {
  const auto nl = pts::netlist::make_benchmark(kServeCircuit);
  const pts::solver::Solver solver;
  const auto id_setup = tr.intern("solver.setup");
  const auto id_solve = tr.intern("solver.whole_solve");
  std::vector<double> setup_ms, search_share;
  for (std::size_t k = 0; k < kSetupSolves; ++k) {
    auto spec = serve_job(mix_seed(seed ^ 0x73657475, k)).spec;
    spec.netlist = &nl;
    pts::solver::detail::SequentialSetup setup;
    double t_setup = 0.0, t_solve = 0.0;
    {
      Scope s(tr, id_setup, spec.seed);
      const double t0 = now_s();
      setup = pts::solver::detail::make_sequential_setup(spec);
      t_setup = now_s() - t0;
    }
    pts::solver::SolveResult r;
    {
      Scope s(tr, id_solve, spec.seed);
      const double t0 = now_s();
      r = solver.solve(spec);
      t_solve = now_s() - t0;
    }
    setup_ms.push_back(t_setup * 1e3);
    search_share.push_back(1.0 - t_setup / t_solve);
    ++tally.attempted;
    if (auto why = check_reached("tabu", r.stop_reason, r.best_quality, kServeTargetQuality)) {
      tally.fail("solver layer solve: " + *why);
    }
  }
  out.add("solver.setup_ms", median(setup_ms), "ms");
  out.add("solver.search_share", median(search_share), "ratio");
}

/// parallel-shared at 1 and 2 threads on equal work (a fixed iteration
/// count; the trajectory does not depend on the thread count), and the
/// bare fork-join round trip of the ThreadPool underneath it.
void parallel_layers(std::uint64_t seed, Tracer& tr, Metrics& out, Tally& tally) {
  const auto nl = pts::netlist::make_benchmark("scale10k");
  const Verifier verifier(nl, pts::cost::CostParams{});
  const pts::solver::Solver solver;
  double rate[2] = {0.0, 0.0};
  std::vector<std::uint64_t> prints;
  for (std::size_t t = 1; t <= 2; ++t) {
    const auto id = tr.intern("parallel.solve." + std::to_string(t) + "t");
    for (std::size_t k = 0; k < kParallelSolves; ++k) {
      const auto s = mix_seed(seed ^ 0x70617261, k);
      auto spec = scaled_tabu_spec(nl, s, t);
      spec.stop.target_quality.reset();
      spec.tabu.iterations = kParallelIterations;
      pts::solver::SolveResult r;
      {
        Scope span(tr, id, s);
        r = solver.solve(spec);
        span.set_work(r.stats.trials);
      }
      ++tally.attempted;
      if (auto bad = verifier.check(s, r.best_slots, r.best_cost)) {
        tally.fail("parallel layer solve: " + *bad);
      } else if (t == 1) {
        prints.push_back(fingerprint(r));
      } else if (prints[k] != fingerprint(r)) {
        tally.fail("parallel-shared at 2 threads left the 1-thread trajectory");
      }
    }
    const auto name = "parallel.solve." + std::to_string(t) + "t";
    rate[t - 1] = tr.total_work(name) / (tr.total_ns(name) * 1e-9);
  }
  out.add("parallel.trials_per_s.1t", rate[0], "1/s");
  out.add("parallel.trials_per_s.2t", rate[1], "1/s");
  out.add("parallel.speedup_2t", rate[1] / rate[0], "ratio");

  pts::ThreadPool pool(2);
  const std::function<void(std::size_t)> noop = [](std::size_t) {};
  for (std::size_t i = 0; i < 100; ++i) pool.run(noop);  // wake the worker
  const auto id = tr.intern("support.fork_join");
  for (std::size_t i = 0; i < kForkJoins; ++i) {
    Scope s(tr, id, i);
    pool.run(noop);
  }
  out.add("support.fork_join_us", tr.median_ns("support.fork_join") * 1e-3, "us");
}

/// A fixed serve-eco job sequence against a fresh rig, then the codec on
/// that sequence's own jobs and results.
void service_layers(std::uint64_t seed, const std::string& work_dir, Tracer& tr,
                    Metrics& out, Tally& tally) {
  const auto nl = pts::netlist::make_benchmark(kServeCircuit);
  const std::string socket =
      work_dir + "/ptsd-" + std::to_string(::getpid()) + "-layers.sock";
  const std::uint64_t serve_seed = mix_seed(seed, 0x73657276);
  ServeRig rig;
  if (!start_rig(rig, socket, tally)) return;
  std::vector<ClientLog> logs;
  drive_rig(rig, serve_seed, 120.0, std::vector<std::size_t>(kServeClients, kServeJobsPerClient),
            &nl, true, logs);
  const double hits = static_cast<double>(rig.daemon->cache_hits());
  const double misses = static_cast<double>(rig.daemon->cache_misses());
  const double sessions = static_cast<double>(rig.daemon->sessions_started());
  rig.stop();

  std::vector<double> hit_ms, miss_ms, overhead_ms;
  std::vector<std::uint64_t> fresh_seeds;
  for (const auto& log : logs) {
    tr.merge(*log.tracer);
    tally.merge(log.tally);
    for (const auto& job : log.jobs) {
      if (job.cached) {
        hit_ms.push_back(job.latency_s * 1e3);
      } else {
        miss_ms.push_back(job.latency_s * 1e3);
        overhead_ms.push_back((job.latency_s - job.makespan) * 1e3);
        fresh_seeds.push_back(job.seed);
      }
    }
  }
  out.add("service.submit_us", tr.median_ns("client.submit") * 1e-3, "us");
  out.add("service.hit_latency_ms_p50", median(hit_ms), "ms");
  out.add("service.miss_latency_ms_p50", median(miss_ms), "ms");
  out.add("service.miss_overhead_ms", median(overhead_ms), "ms");
  out.add("service.cache_hit_ratio", hits / (hits + misses), "ratio");
  out.add("service.sessions_started", sessions, "count");

  // Codec round trips on the sequence's own jobs and (re-solved) results.
  const auto id_enc_spec = tr.intern("service.encode_spec");
  const auto id_dec_spec = tr.intern("service.decode_spec");
  for (const auto& log : logs) {
    for (const auto& job : log.jobs) {
      const auto request = serve_job(job.seed);
      std::string text;
      {
        Scope s(tr, id_enc_spec, job.seed);
        text = pts::service::encode_spec(request);
      }
      std::string error;
      std::optional<pts::service::JobRequest> back;
      {
        Scope s(tr, id_dec_spec, job.seed);
        back = pts::service::decode_spec(text, &error);
      }
      ++tally.attempted;
      if (!back || pts::service::encode_spec(*back) != text) {
        tally.fail("spec codec round trip: " + error);
      }
    }
  }
  const pts::solver::Solver solver;
  const auto id_enc_result = tr.intern("service.encode_result");
  const auto id_dec_result = tr.intern("service.decode_result");
  double bytes = 0.0;
  const std::size_t n = std::min(kCodecResults, fresh_seeds.size());
  for (std::size_t k = 0; k < n; ++k) {
    auto spec = serve_job(fresh_seeds[k]).spec;
    spec.netlist = &nl;
    const auto result = solver.solve(spec);
    std::string text;
    {
      Scope s(tr, id_enc_result, spec.seed);
      text = pts::service::encode_result(result);
    }
    std::string error;
    std::optional<pts::solver::SolveResult> back;
    {
      Scope s(tr, id_dec_result, spec.seed);
      back = pts::service::decode_result(text, &error);
    }
    ++tally.attempted;
    if (!back || fingerprint(*back) != fingerprint(result) ||
        back->makespan != result.makespan) {
      tally.fail("result codec round trip: " + error);
    }
    // Wire bytes with the wall-clock fields zeroed, so the count repeats.
    auto fixed = result;
    fixed.makespan = 0.0;
    for (double& x : fixed.best_vs_time.x) x = 0.0;
    bytes += static_cast<double>(pts::service::encode_result(fixed).size());
  }
  out.add("service.encode_spec_us", tr.median_ns("service.encode_spec") * 1e-3, "us");
  out.add("service.decode_spec_us", tr.median_ns("service.decode_spec") * 1e-3, "us");
  out.add("service.encode_result_us", tr.median_ns("service.encode_result") * 1e-3, "us");
  out.add("service.decode_result_us", tr.median_ns("service.decode_result") * 1e-3, "us");
  out.add("service.result_bytes", n == 0 ? 0.0 : bytes / static_cast<double>(n), "bytes");
}

}  // namespace

void run_layer_suite(std::uint64_t seed, const std::string& work_dir, Tracer& tracer,
                     Metrics& out, Tally& tally) {
  for (const char* c : kProbeCircuits) probe_split(c, seed, tracer, out);
  const double probe_batch_ns = tracer.median_ns("cost.probe_batch.scale10k");
  engine_layers(seed, probe_batch_ns, tracer, out, tally);
  solver_layer(seed, tracer, out, tally);
  parallel_layers(seed, tracer, out, tally);
  service_layers(seed, work_dir, tracer, out, tally);
}

}  // namespace perfbench
