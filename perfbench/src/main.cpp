// perfbench — time-to-quality, throughput and served latency of the pts
// library, measured from outside through its public API.
//
//   perfbench --workload tabu-scale10k --seed 1 --seconds 24 --trace 0
//   perfbench --workload serve-eco --seed 1 --seconds 24 --trace 1
//             --trace-out spans.json
//   perfbench --stamp
//
// --trace 0 runs the workload for --seconds and prints its end-to-end
// metrics. --trace 1 runs the workload twice for half the time each — once
// plain, once with spans recorded — then the per-layer suite, and prints
// the per-layer metrics plus the tracing overhead (traced minus plain, as
// a share of plain). The last line of stdout is the result object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// --stamp prints the facts about this host and build that a comparison of
// two result sets must agree on.
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "bench.hpp"
#include "support/log.hpp"
#include "trace.hpp"

namespace perfbench {

double peak_rss_mb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB → MiB
}

namespace {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;       ///< span dump of a traced run ("" = none)
  std::string work_dir = ".";  ///< daemon sockets live here
};

constexpr const char kUsage[] =
    "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1\n"
    "                 [--trace-out FILE] [--work-dir DIR]\n"
    "       perfbench --stamp\n"
    "workloads: tabu-scale10k shared-scale10k anneal-c3540 serve-eco\n";

EndToEnd run_workload(const Options& opt, double seconds, Tracer& tracer) {
  if (opt.workload == "serve-eco") {
    return run_serve_workload(opt.seed, seconds, opt.work_dir, tracer);
  }
  return run_solve_workload(opt.workload, opt.seed, seconds, tracer);
}

/// The end-to-end metrics, in BENCHMARK.json order.
Metrics end_to_end(const EndToEnd& e) {
  const Window& w = e.window;
  Metrics m;
  m.add("setup_s", e.setup_s, "s");
  m.add("peak_rss_mb", peak_rss_mb(), "MiB");
  m.add("solve_s_p50", quantile(w.solve_s, 0.5), "s");
  m.add("solve_s_p90", quantile(w.solve_s, 0.9), "s");
  m.add("trials_per_s", static_cast<double>(w.trials) / w.pass_s, "1/s");
  m.add("jobs_per_s", static_cast<double>(w.job_latency_s.size()) / w.pass_s, "1/s");
  m.add("latency_ms_p50", quantile(w.job_latency_s, 0.5) * 1e3, "ms");
  m.add("latency_ms_p90", quantile(w.job_latency_s, 0.9) * 1e3, "ms");
  return m;
}

void describe(const char* label, const EndToEnd& e) {
  const Window& w = e.window;
  std::printf("%s: %zu jobs (%zu ran a solve) per pass, %zu passes, %.3f s busy at "
              "each job's fastest; %llu operations checked, %llu failed (error_rate %.6f)\n",
              label, w.job_latency_s.size(), w.solve_s.size(), kPasses, w.pass_s,
              static_cast<unsigned long long>(w.tally.attempted),
              static_cast<unsigned long long>(w.tally.failed),
              w.tally.attempted == 0
                  ? 0.0
                  : static_cast<double>(w.tally.failed) /
                        static_cast<double>(w.tally.attempted));
  if (w.solve_s.size() < 100) {
    std::printf("%s: note: %zu solves leave fewer than 10 samples beyond p90\n", label,
                w.solve_s.size());
  }
}

void print_result(const Tally& tally, const Metrics& metrics) {
  bool finite = true;
  for (const auto& m : metrics.items()) finite = finite && std::isfinite(m.value);
  for (const auto& why : tally.errors) std::printf("failure: %s\n", why.c_str());
  if (!finite) std::printf("failure: a metric is not a finite number\n");
  const bool correct = finite && tally.failed == 0 && tally.attempted > 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(tally.attempted),
              static_cast<unsigned long long>(tally.failed));
  const auto& items = metrics.items();
  for (std::size_t i = 0; i < items.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                items[i].name.c_str(), std::isfinite(items[i].value) ? items[i].value : 0.0,
                items[i].unit.c_str());
  }
  std::printf("}}\n");
}

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned int regs[12] = {};
  unsigned int max_leaf = __get_cpuid_max(0x80000000u, nullptr);
  if (max_leaf >= 0x80000004u) {
    for (unsigned int i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1], &regs[4 * i + 2],
                  &regs[4 * i + 3]);
    }
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string s(brand);
    const auto first = s.find_first_not_of(' ');
    const auto last = s.find_last_not_of(' ');
    if (first != std::string::npos) return s.substr(first, last - first + 1);
  }
#endif
  return "unknown";
}

void print_stamp() {
  cpu_set_t set;
  CPU_ZERO(&set);
  const int nproc = ::sched_getaffinity(0, sizeof(set), &set) == 0
                        ? CPU_COUNT(&set)
                        : static_cast<int>(std::thread::hardware_concurrency());
  std::printf("{\"nproc\": %d, \"cpu_model\": \"%s\", \"l2_bytes\": %ld, "
              "\"l3_bytes\": %ld, \"compiler\": \"%s\", \"build_type\": \"%s\"}\n",
              nproc, cpu_model().c_str(), ::sysconf(_SC_LEVEL2_CACHE_SIZE),
              ::sysconf(_SC_LEVEL3_CACHE_SIZE), PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE);
}

int usage_error(const char* what) {
  std::fprintf(stderr, "perfbench: %s\n%s", what, kUsage);
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  pts::set_log_level(pts::LogLevel::Warn);
  Options opt;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--stamp") {
      print_stamp();
      return 0;
    }
    if (i + 1 >= argc) return usage_error(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      opt.workload = value;
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0' || value.empty()) return usage_error("bad --seed");
    } else if (arg == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(opt.seconds > 0.0)) return usage_error("bad --seconds");
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") return usage_error("--trace takes 0 or 1");
      opt.trace = value == "1";
      have_trace = true;
    } else if (arg == "--trace-out") {
      opt.trace_out = value;
    } else if (arg == "--work-dir") {
      opt.work_dir = value;
    } else {
      return usage_error(("unknown option " + arg).c_str());
    }
  }
  if (opt.workload != "serve-eco" && !is_solve_workload(opt.workload)) {
    return usage_error(("unknown workload '" + opt.workload + "'").c_str());
  }
  if (!have_trace) return usage_error("--trace is required");

  if (!opt.trace) {
    Tracer off(false);
    const EndToEnd e = run_workload(opt, opt.seconds, off);
    describe(opt.workload.c_str(), e);
    print_result(e.window.tally, end_to_end(e));
    return 0;
  }

  Tracer off(false);
  const EndToEnd plain = run_workload(opt, opt.seconds / 2.0, off);
  Tracer traced(true);
  const EndToEnd with = run_workload(opt, opt.seconds / 2.0, traced);
  describe("plain half", plain);
  describe("traced half", with);

  Tally tally;
  tally.merge(plain.window.tally);
  tally.merge(with.window.tally);
  Metrics metrics;
  Tracer layers(true);
  run_layer_suite(opt.seed, opt.work_dir, layers, metrics, tally);

  const auto a = end_to_end(plain).items();
  const auto b = end_to_end(with).items();
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].name == "setup_s" || a[i].name == "peak_rss_mb") continue;
    metrics.add("trace.overhead." + a[i].name, (b[i].value - a[i].value) / a[i].value,
                "ratio");
  }

  traced.merge(layers);
  for (const auto& line : traced.summary_lines()) std::printf("span %s\n", line.c_str());
  if (!opt.trace_out.empty() && !traced.write_json(opt.trace_out)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", opt.trace_out.c_str());
    return 1;
  }
  print_result(tally, metrics);
  return 0;
}
