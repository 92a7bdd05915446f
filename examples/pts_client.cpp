// pts_client — submit a placement job to a running ptsd and stream progress.
//
//   pts_client --engines                         # list daemon capabilities
//   pts_client --circuit highway --engine tabu --seed 3 --stream
//   pts_client --tcp --port 7777 --circuit industry2
//
// `--with-server` hosts a private in-process daemon on a temp socket first,
// so the full client path can be exercised without an external ptsd (this is
// what the smoke test uses).
#include <unistd.h>

#include <cstdio>
#include <memory>
#include <optional>
#include <string>

#include "service/client.hpp"
#include "service/daemon.hpp"
#include "support/cli.hpp"
#include "support/log.hpp"

namespace {

constexpr const char kUsage[] =
    "usage: pts_client [--unix /tmp/ptsd.sock | --tcp --host 127.0.0.1 --port N]\n"
    "                  [--engines] [--circuit NAME] [--engine tabu] [--seed 1]\n"
    "                  [--iterations N] [--max-seconds S] [--target-cost C]\n"
    "                  [--stream] [--stride 64] [--with-server]\n"
    "                  [--retries 0] [--connect-timeout 5] [--io-timeout 0]\n"
    "                  [--deadline 0] [--help]\n"
    "--retries N reconnects and re-submits (same request id, capped\n"
    "exponential backoff) on transport failures; --connect-timeout /\n"
    "--io-timeout bound connect and read waits in seconds (0 = none);\n"
    "--deadline S asks the daemon to cancel the job after S wall seconds.\n";

}  // namespace

int main(int argc, char** argv) {
  using namespace pts::service;
  const pts::Cli cli(argc, argv);
  if (cli.get_flag("help")) {
    std::fputs(kUsage, stdout);
    return 0;
  }
  const bool with_server = cli.get_flag("with-server");
  const bool tcp = cli.get_flag("tcp");
  const std::string host = cli.get("host", "127.0.0.1");
  const auto port = static_cast<std::uint16_t>(cli.get_int("port", 0));
  std::string unix_path = cli.get("unix", "/tmp/ptsd.sock");
  const bool list_engines = cli.get_flag("engines");
  const std::string circuit = cli.get("circuit", "");
  const bool stream = cli.get_flag("stream");
  const auto stride = static_cast<std::uint64_t>(cli.get_int("stride", 64));
  const auto retries = static_cast<std::size_t>(cli.get_int("retries", 0));
  const double connect_timeout = cli.get_double("connect-timeout", 5.0);
  const double io_timeout = cli.get_double("io-timeout", 0.0);

  JobRequest job;
  job.circuit = circuit;
  job.spec.engine = cli.get("engine", "tabu");
  const std::string seed_text = cli.get("seed", "1");
  const auto seed = parse_seed(seed_text);
  if (!seed) {
    std::fprintf(stderr,
                 "pts_client: --seed takes a whole non-negative integer, got '%s'\n",
                 seed_text.c_str());
    return 2;
  }
  job.spec.seed = *seed;
  job.spec.tabu.iterations = static_cast<std::size_t>(cli.get_int("iterations", 500));
  job.spec.stop.max_seconds = cli.get_double("max-seconds", 0.0);
  if (cli.has("target-cost")) {
    job.spec.stop.target_cost = cli.get_double("target-cost", 0.0);
  }
  job.deadline_seconds = cli.get_double("deadline", 0.0);
  cli.reject_unused(kUsage);

  pts::set_log_level(pts::LogLevel::Warn);

  // Optional self-hosted daemon (demo / smoke-test mode).
  std::unique_ptr<Daemon> daemon;
  if (with_server) {
    unix_path = "/tmp/pts-client-" + std::to_string(::getpid()) + ".sock";
    DaemonConfig config;
    config.unix_path = unix_path;
    daemon = std::make_unique<Daemon>(config);
    std::string error;
    if (!daemon->start(&error)) {
      std::fprintf(stderr, "pts_client: self-hosted daemon: %s\n", error.c_str());
      return 1;
    }
  }

  std::string error;

  // Fault-tolerant path: reconnect + re-submit with capped exponential
  // backoff; the request id stays stable across attempts so the daemon log
  // ties them together. Same-seed solves are bit-identical, so a retried
  // job returns the same result the first attempt would have.
  if (retries > 0 && !circuit.empty() && !list_engines) {
    RetryPolicy policy;
    policy.max_attempts = retries + 1;
    policy.connect_timeout_seconds = connect_timeout;
    policy.io_timeout_seconds = io_timeout;
    std::optional<RetryingClient> retrying;
    if (tcp) {
      retrying.emplace(host, port, policy);
    } else {
      retrying.emplace(unix_path, policy);
    }
    std::size_t events = 0;
    const auto result = retrying->solve(
        job, stream, stride,
        [&](const ProgressMsg& progress) {
          ++events;
          if (progress.improvement) {
            std::printf("  iter %llu: best %.4f\n",
                        static_cast<unsigned long long>(progress.iteration),
                        progress.best_cost);
          }
        },
        &error);
    if (!result) {
      std::fprintf(stderr, "pts_client: %s\n", error.c_str());
      return 1;
    }
    const auto& stats = retrying->counters();
    std::printf(
        "done: initial %.4f -> best %.4f, %llu iterations, stop=%s, "
        "%zu streamed events (attempts=%llu retries=%llu)\n",
        result->initial_cost, result->best_cost,
        static_cast<unsigned long long>(result->iterations),
        pts::stop_reason_name(result->stop_reason), events,
        static_cast<unsigned long long>(stats.attempts),
        static_cast<unsigned long long>(stats.retries));
    if (daemon) {
      retrying->raw_client().close();
      daemon->stop();
      if (daemon->active_sessions() != 0) {
        std::fprintf(stderr, "pts_client: self-hosted daemon leaked sessions\n");
        return 1;
      }
    }
    return 0;
  }

  Client client;
  client.set_timeouts(connect_timeout, io_timeout);
  const bool connected = tcp ? client.connect_tcp(host, port, &error)
                             : client.connect_unix(unix_path, &error);
  if (!connected) {
    std::fprintf(stderr, "pts_client: %s\n", error.c_str());
    return 1;
  }

  const auto welcome = client.hello(&error);
  if (!welcome) {
    std::fprintf(stderr, "pts_client: handshake: %s\n", error.c_str());
    return 1;
  }
  std::printf("connected to %s (protocol %u)\n", welcome->server.c_str(),
              welcome->version);
  if (list_engines || circuit.empty()) {
    std::printf("engines:");
    for (const auto& name : welcome->engines) std::printf(" %s", name.c_str());
    std::printf("\n");
    if (circuit.empty()) return 0;
  }

  const auto session = client.submit(job, stream, stride, &error);
  if (!session) {
    std::fprintf(stderr, "pts_client: submit: %s\n", error.c_str());
    return 1;
  }
  std::printf("session %llu: %s on %s (seed %llu)\n",
              static_cast<unsigned long long>(*session), job.spec.engine.c_str(),
              job.circuit.c_str(),
              static_cast<unsigned long long>(job.spec.seed));

  std::size_t events = 0;
  const auto result = client.wait(
      *session,
      [&](const ProgressMsg& progress) {
        ++events;
        if (progress.improvement) {
          std::printf("  iter %llu: best %.4f\n",
                      static_cast<unsigned long long>(progress.iteration),
                      progress.best_cost);
        }
      },
      &error);
  if (!result) {
    std::fprintf(stderr, "pts_client: wait: %s\n", error.c_str());
    return 1;
  }
  std::printf(
      "done: initial %.4f -> best %.4f (%.2f%% better), %llu iterations, "
      "stop=%s, %zu streamed events\n",
      result->initial_cost, result->best_cost,
      result->initial_cost > 0.0
          ? 100.0 * (result->initial_cost - result->best_cost) / result->initial_cost
          : 0.0,
      static_cast<unsigned long long>(result->iterations),
      pts::stop_reason_name(result->stop_reason), events);

  if (daemon) {
    client.close();
    daemon->stop();
    if (daemon->active_sessions() != 0) {
      std::fprintf(stderr, "pts_client: self-hosted daemon leaked sessions\n");
      return 1;
    }
  }
  return 0;
}
