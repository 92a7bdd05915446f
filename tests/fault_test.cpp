// The deterministic fault-injection layer (support/fault.hpp) and the
// recovery paths wired to it: seeded decision streams replay exactly, the
// socket wrappers inject errors without touching the socket, and the sim
// engine survives scripted worker death/stall deterministically — while an
// empty script leaves the historical trajectories bit-identical.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <vector>

#include "netlist/generator.hpp"
#include "parallel/sim_engine.hpp"
#include "support/fault.hpp"

namespace pts {
namespace {

using fault::FaultPlan;
using fault::SocketFaultConfig;
using fault::WorkerFault;

// -- decision stream ----------------------------------------------------------

TEST(FaultPlan, SameSeedSameDecisionStream) {
  SocketFaultConfig config;
  config.read_error_rate = 0.2;
  config.short_read_rate = 0.3;
  config.write_error_rate = 0.1;
  config.short_write_rate = 0.25;
  config.connect_error_rate = 0.15;

  FaultPlan a(/*seed=*/7, config);
  FaultPlan b(/*seed=*/7, config);
  for (int i = 0; i < 200; ++i) {
    const auto da = a.on_read();
    const auto db = b.on_read();
    EXPECT_EQ(da.kind, db.kind) << "read decision " << i;
    EXPECT_EQ(da.cap, db.cap);
    EXPECT_EQ(da.error, db.error);
    const auto wa = a.on_write();
    const auto wb = b.on_write();
    EXPECT_EQ(wa.kind, wb.kind) << "write decision " << i;
    int ea = 0, eb = 0;
    EXPECT_EQ(a.on_connect(&ea), b.on_connect(&eb));
    EXPECT_EQ(ea, eb);
  }
  const auto ca = a.counters();
  const auto cb = b.counters();
  EXPECT_EQ(ca.read_errors, cb.read_errors);
  EXPECT_EQ(ca.write_errors, cb.write_errors);
  EXPECT_EQ(ca.connect_errors, cb.connect_errors);
  EXPECT_EQ(ca.short_reads, cb.short_reads);
  EXPECT_EQ(ca.short_writes, cb.short_writes);
  // With these rates, 200 draws per hook inject a healthy mix.
  EXPECT_GT(ca.read_errors, 0u);
  EXPECT_GT(ca.short_reads, 0u);
}

TEST(FaultPlan, ZeroRatesAlwaysPass) {
  FaultPlan plan(/*seed=*/1, SocketFaultConfig{});
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(plan.on_read().kind, FaultPlan::IoDecision::Kind::Pass);
    EXPECT_EQ(plan.on_write().kind, FaultPlan::IoDecision::Kind::Pass);
    int error = 0;
    EXPECT_FALSE(plan.on_connect(&error));
  }
}

// -- socket wrappers ----------------------------------------------------------

TEST(FaultSocket, InjectedReadErrorLeavesSocketIntact) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  const char payload[] = "hello";
  ASSERT_EQ(::send(fds[0], payload, sizeof(payload), 0),
            static_cast<ssize_t>(sizeof(payload)));

  SocketFaultConfig config;
  config.read_error_rate = 1.0;
  config.read_errors = {ECONNRESET};
  {
    fault::ScopedFaultInjection injection(/*seed=*/3, config);
    char buffer[64];
    errno = 0;
    EXPECT_EQ(fault::read(fds[1], buffer, sizeof(buffer)), -1);
    EXPECT_EQ(errno, ECONNRESET);
    EXPECT_EQ(injection.plan().counters().read_errors, 1u);
  }
  // The error was injected, not real: the bytes are still there.
  char buffer[64];
  ASSERT_EQ(fault::read(fds[1], buffer, sizeof(buffer)),
            static_cast<ssize_t>(sizeof(payload)));
  EXPECT_STREQ(buffer, "hello");
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST(FaultSocket, ShortReadsAndWritesAreCapped) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  SocketFaultConfig config;
  config.short_read_rate = 1.0;
  config.short_write_rate = 1.0;
  config.short_cap = 2;
  fault::ScopedFaultInjection injection(/*seed=*/5, config);

  const char payload[] = "0123456789";
  const ssize_t sent = fault::send(fds[0], payload, sizeof(payload), 0);
  ASSERT_GT(sent, 0);
  EXPECT_LE(sent, 2);

  char buffer[64];
  const ssize_t got = fault::read(fds[1], buffer, sizeof(buffer));
  ASSERT_GT(got, 0);
  EXPECT_LE(got, 2);
  EXPECT_EQ(buffer[0], '0');

  const auto counters = injection.plan().counters();
  EXPECT_EQ(counters.short_writes, 1u);
  EXPECT_EQ(counters.short_reads, 1u);
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST(FaultSocket, InjectedWriteAndConnectErrors) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  SocketFaultConfig config;
  config.write_error_rate = 1.0;
  config.write_errors = {EPIPE};
  config.connect_error_rate = 1.0;
  fault::ScopedFaultInjection injection(/*seed=*/9, config);

  errno = 0;
  EXPECT_EQ(fault::send(fds[0], "x", 1, 0), -1);
  EXPECT_EQ(errno, EPIPE);
  // Nothing actually crossed the socket.
  char buffer[8];
  EXPECT_EQ(::recv(fds[1], buffer, sizeof(buffer), MSG_DONTWAIT), -1);
  EXPECT_TRUE(errno == EAGAIN || errno == EWOULDBLOCK);

  errno = 0;
  EXPECT_EQ(fault::connect_fd(fds[0], nullptr, 0), -1);
  EXPECT_EQ(errno, ECONNREFUSED);

  const auto counters = injection.plan().counters();
  EXPECT_EQ(counters.write_errors, 1u);
  EXPECT_EQ(counters.connect_errors, 1u);
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST(FaultSocket, NoPlanIsPassthrough) {
  ASSERT_EQ(fault::installed(), nullptr);
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  ASSERT_EQ(fault::send(fds[0], "ab", 2, 0), 2);
  char buffer[8];
  ASSERT_EQ(fault::read(fds[1], buffer, sizeof(buffer)), 2);
  ::close(fds[0]);
  ::close(fds[1]);
}

// -- sim engine recovery ------------------------------------------------------

netlist::Netlist circuit(std::size_t gates = 56, std::uint64_t seed = 3) {
  netlist::GeneratorConfig config;
  config.num_gates = gates;
  config.num_primary_inputs = 8;
  config.num_primary_outputs = 8;
  config.seed = seed;
  return netlist::generate_circuit(config);
}

parallel::PtsConfig small_config(std::uint64_t seed = 1) {
  parallel::PtsConfig config;
  config.seed = seed;
  config.num_tsws = 3;
  config.clws_per_tsw = 2;
  config.local_iterations = 5;
  config.global_iterations = 4;
  config.tabu.compound.width = 6;
  config.tabu.compound.depth = 2;
  config.cluster = pvm::ClusterConfig::paper_cluster(0.05);
  return config;
}

void expect_results_identical(const parallel::PtsResult& a,
                              const parallel::PtsResult& b) {
  EXPECT_EQ(a.best_cost, b.best_cost);
  EXPECT_EQ(a.best_slots, b.best_slots);
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.workers_lost, b.workers_lost);
  ASSERT_EQ(a.best_vs_time.size(), b.best_vs_time.size());
  for (std::size_t i = 0; i < a.best_vs_time.size(); ++i) {
    EXPECT_EQ(a.best_vs_time.x[i], b.best_vs_time.x[i]);
    EXPECT_EQ(a.best_vs_time.y[i], b.best_vs_time.y[i]);
  }
}

TEST(SimEngineFaults, EmptyScriptIsBitIdenticalToBaseline) {
  const netlist::Netlist nl = circuit();
  const parallel::PtsConfig baseline = small_config(11);
  // A script with no faults must not perturb the trajectory even though
  // other fault knobs changed — enabled() is what gates the new code path.
  parallel::PtsConfig tweaked = baseline;
  tweaked.faults.report_deadline = 123.0;
  const auto a = parallel::SimEngine(nl, baseline).run();
  const auto b = parallel::SimEngine(nl, tweaked).run();
  expect_results_identical(a, b);
  EXPECT_EQ(a.workers_lost, 0u);
}

TEST(SimEngineFaults, WorkerDeathIsSurvivedAndCounted) {
  const netlist::Netlist nl = circuit();
  parallel::PtsConfig config = small_config(11);
  WorkerFault death;
  death.kind = WorkerFault::Kind::Death;
  death.worker = 1;
  death.at_iteration = 1;
  config.faults.faults.push_back(death);
  // Generous deadline: only the scripted death is reaped, not healthy
  // stragglers (a tight deadline legitimately reaps those too — the master
  // cannot tell slow from dead).
  config.faults.report_deadline = 50.0;

  const auto result = parallel::SimEngine(nl, config).run();
  EXPECT_EQ(result.workers_lost, 1u);
  EXPECT_LT(result.best_cost, result.initial_cost);
  EXPECT_GT(result.makespan, 0.0);

  // The recovery is part of the deterministic replay: same script, same
  // seed, bit-identical outcome.
  const auto again = parallel::SimEngine(nl, config).run();
  expect_results_identical(result, again);

  // And the returned slots genuinely evaluate to the returned cost.
  parallel::SearchSetup setup(nl, config);
  auto eval = setup.make_evaluator(result.best_slots);
  EXPECT_NEAR(eval->cost(), result.best_cost, 1e-6);
}

TEST(SimEngineFaults, StallSlowsButDoesNotLoseTheWorker) {
  // Under WaitAll nobody is cut, so search decisions are timing-independent:
  // a stall must leave the solution bit-identical and only move the clock.
  // (Under a cut policy a stalled worker gets cut and the trajectory shifts —
  // that is the policy working, not a bug.)
  const netlist::Netlist nl = circuit();
  parallel::PtsConfig config = small_config(11);
  config.set_policy(parallel::CollectionPolicy::WaitAll);
  const auto baseline = parallel::SimEngine(nl, config).run();

  WorkerFault stall;
  stall.kind = WorkerFault::Kind::Stall;
  stall.worker = 0;
  stall.at_iteration = 1;
  stall.stall_factor = 8.0;
  stall.stall_iterations = 1;
  config.faults.faults.push_back(stall);
  // The deadline must dwarf the stall-induced arrival spread (virtual round
  // times here are O(100s)), or the master would reap the stalled worker.
  config.faults.report_deadline = 10'000.0;

  const auto stalled = parallel::SimEngine(nl, config).run();
  EXPECT_EQ(stalled.workers_lost, 0u);
  EXPECT_EQ(stalled.best_cost, baseline.best_cost);
  EXPECT_EQ(stalled.best_slots, baseline.best_slots);
  EXPECT_GT(stalled.makespan, baseline.makespan);

  // The stalled run replays exactly.
  const auto again = parallel::SimEngine(nl, config).run();
  expect_results_identical(stalled, again);
}

TEST(SimEngineFaults, AllWorkersDeadReturnsBestSoFar) {
  const netlist::Netlist nl = circuit();
  parallel::PtsConfig config = small_config(11);
  for (std::size_t w = 0; w < config.num_tsws; ++w) {
    WorkerFault death;
    death.worker = w;
    death.at_iteration = 0;
    config.faults.faults.push_back(death);
  }
  const auto result = parallel::SimEngine(nl, config).run();
  EXPECT_EQ(result.workers_lost, config.num_tsws);
  // Nobody ever reported: the engine returns the initial best instead of
  // hanging on reports that will never arrive.
  EXPECT_EQ(result.best_cost, result.initial_cost);
  EXPECT_GT(result.makespan, 0.0);
}

TEST(SimEngineFaults, SurvivorsAbsorbTheDeadWorkersShare) {
  const netlist::Netlist nl = circuit(80, 7);
  parallel::PtsConfig config = small_config(5);
  config.global_iterations = 6;
  WorkerFault death;
  death.worker = 2;
  death.at_iteration = 2;
  config.faults.faults.push_back(death);
  config.faults.report_deadline = 50.0;

  const auto faulted = parallel::SimEngine(nl, config).run();
  parallel::PtsConfig clean = config;
  clean.faults = {};
  const auto baseline = parallel::SimEngine(nl, clean).run();

  // The run still improves and still ends with a consistent solution even
  // though a third of the cluster vanished mid-search.
  EXPECT_EQ(faulted.workers_lost, 1u);
  EXPECT_LT(faulted.best_cost, faulted.initial_cost);
  // Losing a worker changes the search trajectory (the survivors repartition
  // the movable cells), so the two runs genuinely diverged.
  EXPECT_NE(faulted.makespan, baseline.makespan);
}

}  // namespace
}  // namespace pts
