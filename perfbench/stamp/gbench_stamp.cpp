// Prints Google Benchmark's JSON context, whose "library_build_type" field
// is the one fact the host stamp needs from it. One trivial benchmark is
// registered because the library reports its context only when a run
// happens.
#include <benchmark/benchmark.h>

static void noop(benchmark::State& state) {
  for (auto _ : state) benchmark::DoNotOptimize(state.iterations());
}
BENCHMARK(noop)->Iterations(1);

BENCHMARK_MAIN();
