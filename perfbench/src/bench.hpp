// Shared types of the perfbench binary: the failure tally, the metric list
// a run prints, the end-to-end figures every workload reports, and small
// helpers (seed mixing, clock, percentiles).
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

class Tracer;

/// Operations attempted and failed, plus the first few failure reasons.
/// A failure is a refusal, an error, a solve that stopped before its
/// target, or a result that fails verification.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;

  void fail(std::string why) {
    ++failed;
    if (errors.size() < 8) errors.push_back(std::move(why));
  }
  void merge(const Tally& other) {
    attempted += other.attempted;
    failed += other.failed;
    for (const auto& e : other.errors) {
      if (errors.size() < 8) errors.push_back(e);
    }
  }
};

/// Named metrics in the order they are added.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

class Metrics {
 public:
  void add(std::string name, double value, std::string unit) {
    items_.push_back({std::move(name), value, std::move(unit)});
  }
  const std::vector<Metric>& items() const { return items_; }

 private:
  std::vector<Metric> items_;
};

/// Timed passes per run. A run replays one identical sequence of jobs this
/// many times, spread over its window; a job's time is its fastest pass,
/// which filters interference from other tenants of the host (slow phases
/// of seconds that would otherwise move a run's median by 10-20%).
inline constexpr std::size_t kPasses = 4;

/// What the timed passes of a workload observed. A "job" is one operation
/// as its caller sees it (a Solver::solve call, or a served submit → Done);
/// a "solve" is a job that ran a search (every job except a cache hit).
struct Window {
  std::vector<double> job_latency_s;  ///< per job: its fastest pass
  std::vector<double> solve_s;        ///< per job that ran a search: same
  std::uint64_t trials = 0;           ///< candidate evaluations in one pass
  /// Busy time of a pass in which every job ran at its fastest: per client,
  /// the sum of its jobs' fastest times; the busiest client's sum.
  double pass_s = 0.0;
  Tally tally;
};

/// End-to-end figures of one workload run (BENCHMARK.json "end_to_end").
struct EndToEnd {
  double setup_s = 0.0;
  Window window;
};

/// Per-job minimum over passes (all passes hold the same jobs in order).
inline std::vector<double> fastest(const std::vector<std::vector<double>>& passes) {
  std::vector<double> out = passes.front();
  for (const auto& pass : passes) {
    for (std::size_t i = 0; i < out.size(); ++i) out[i] = std::min(out[i], pass[i]);
  }
  return out;
}

inline std::uint64_t mix_seed(std::uint64_t a, std::uint64_t b) {
  // SplitMix64 finalizer over a combined word: distinct (a, b) pairs give
  // well-spread, practically collision-free seeds.
  std::uint64_t z = a * 0x9e3779b97f4a7c15ULL + b + 0x632be59bd9b4e019ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Linear-interpolated quantile (q in [0, 1]) of an unsorted sample; 0 for
/// an empty one.
inline double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

inline double median(const std::vector<double>& values) {
  return quantile(values, 0.5);
}

/// Peak resident set size of this process, MiB.
double peak_rss_mb();

// -- workloads (solve_workloads.cpp, serve.cpp) -----------------------------

bool is_solve_workload(const std::string& name);

/// Runs a solve workload: setup (median of several), then kPasses passes
/// over one seed sequence filling `seconds`, checking every result. Spans
/// go to `tracer` when it is enabled.
EndToEnd run_solve_workload(const std::string& name, std::uint64_t seed,
                            double seconds, Tracer& tracer);

/// Runs serve-eco: an in-process daemon with its result cache on, driven
/// closed-loop by three clients, kPasses times over one job sequence (a
/// fresh daemon per pass) filling `seconds`.
EndToEnd run_serve_workload(std::uint64_t seed, double seconds,
                            const std::string& work_dir, Tracer& tracer);

/// The traced run's per-layer suite: fixed-size, seeded measurements of
/// every layer. Adds the per-layer metrics to `out`.
void run_layer_suite(std::uint64_t seed, const std::string& work_dir,
                     Tracer& tracer, Metrics& out, Tally& tally);

}  // namespace perfbench
