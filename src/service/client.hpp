// Synchronous client for the ptsd daemon, shared by the pts_client CLI, the
// ptsd_load generator, and the service tests.
//
// One Client owns one connection and is single-threaded: requests block
// until their reply arrives. Because the daemon pushes kProgress / kDone
// events for every session on the connection, replies can interleave with
// stream traffic — events that are not the awaited reply are buffered and
// replayed in order by the wait()/next_event() readers, so multiple
// in-flight sessions per connection just work.
//
//   Client client;
//   client.connect_unix("/tmp/ptsd.sock", &err);
//   auto welcome = client.hello(&err);                 // capability handshake
//   auto id = client.submit(job, /*stream=*/true, 0, &err);
//   auto result = client.wait(*id, on_progress, &err); // SolveResult
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <string>
#include <string_view>

#include "pvm/frame.hpp"
#include "service/codec.hpp"
#include "service/proto.hpp"
#include "solver/solver.hpp"

namespace pts::service {

/// A seed as pts_client's --seed takes it: decimal digits only, within a
/// u64. Anything else ("abc", "-1", "1.5", "") is nullopt.
std::optional<std::uint64_t> parse_seed(std::string_view text);

class Client {
 public:
  Client() = default;
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;
  Client(Client&& other) noexcept;
  Client& operator=(Client&& other) noexcept;

  /// Arms connect/read timeouts for subsequent connect_* calls and reads
  /// (<= 0 disables the respective timeout; both default off). A read that
  /// outwaits `io_seconds` fails with a "read timeout" error — the caller
  /// should treat the connection as dead and reconnect.
  void set_timeouts(double connect_seconds, double io_seconds);

  bool connect_unix(const std::string& path, std::string* error);
  bool connect_tcp(const std::string& host, std::uint16_t port, std::string* error);
  bool connected() const { return fd_ >= 0; }
  void close();

  /// Capability handshake; must be the first request on a connection.
  std::optional<WelcomeMsg> hello(std::string* error);

  /// Submits a job; returns the session id. A seed above 2^53 is refused
  /// before any byte is sent: JSON numbers are doubles, so the daemon would
  /// solve (and cache) a rounded seed. `stream` / `progress_stride`
  /// control kProgress pushes (see SubmitMsg). `queued` (optional out)
  /// reports whether the job was queued rather than started; `request_id`
  /// is forwarded for server-side retry correlation (0 = unset); `cached`
  /// (optional out) reports a daemon result-cache hit — the returned
  /// session id is then 0 and wait(0, ...) collects the kDone.
  std::optional<std::uint64_t> submit(const JobRequest& job, bool stream,
                                      std::uint64_t progress_stride,
                                      std::string* error,
                                      bool* queued = nullptr,
                                      std::uint64_t request_id = 0,
                                      bool* cached = nullptr);

  /// Requests cancellation; `was_active` (optional out) reports whether the
  /// session was still running.
  bool cancel(std::uint64_t session, bool* was_active, std::string* error);

  /// Blocks until the session's kDone arrives, invoking `on_progress` (may
  /// be null) for its kProgress events. Events of other sessions stay
  /// buffered for their own wait() calls.
  std::optional<solver::SolveResult> wait(
      std::uint64_t session,
      const std::function<void(const ProgressMsg&)>& on_progress,
      std::string* error);

  /// Asks the daemon to drain and exit (acknowledged before the drain).
  bool shutdown_server(std::string* error);

 private:
  bool send_message(const pvm::Message& msg, std::string* error);
  /// Next frame from the wire (or the buffer); nullopt on EOF/error.
  std::optional<pvm::Message> read_message(std::string* error);
  bool finish_connect(int fd, std::string* error, const std::string& where);

  int fd_ = -1;
  double connect_timeout_ = 0.0;
  double io_timeout_ = 0.0;
  pvm::FrameDecoder decoder_;
  std::deque<pvm::Message> pending_;  ///< events read while awaiting a reply
};

/// Retry policy for RetryingClient: capped exponential backoff between
/// reconnect attempts, plus the timeouts armed on the underlying Client.
struct RetryPolicy {
  std::size_t max_attempts = 5;
  double initial_backoff_seconds = 0.05;
  double max_backoff_seconds = 1.0;
  double connect_timeout_seconds = 5.0;
  double io_timeout_seconds = 30.0;
};

/// Fault-tolerant one-job-at-a-time client: solve() connects (or reuses the
/// live connection), submits, and waits; on any transport failure — connect
/// refused, reset mid-stream, read timeout, torn connection — it closes,
/// backs off (capped exponential), reconnects, and re-submits the SAME job
/// under the same request id. The retry is idempotent by construction:
/// same-seed solves are bit-identical, and the daemon cancels a lost
/// connection's sessions, so a duplicate submission can at worst waste work,
/// never return a different result. Server-side rejections are retried only
/// when transient (queue full); schema/spec errors fail immediately.
class RetryingClient {
 public:
  /// Target: unix socket path, or host:port when `tcp`.
  RetryingClient(std::string unix_path, RetryPolicy policy);
  RetryingClient(std::string host, std::uint16_t port, RetryPolicy policy);

  /// Per-error-class accounting across all solve() calls.
  struct Counters {
    std::uint64_t attempts = 0;         ///< submit attempts (first + retries)
    std::uint64_t retries = 0;          ///< attempts after the first, per job
    std::uint64_t connect_failures = 0; ///< connect/hello failed (refused, ...)
    std::uint64_t resets_mid_stream = 0;///< connection died after submit
    std::uint64_t timeouts = 0;         ///< read timeouts
    std::uint64_t queue_full = 0;       ///< transient server rejections
    std::uint64_t server_errors = 0;    ///< permanent kError/kSubmitErr
  };

  /// Runs one job to completion with retries. Returns the SolveResult, or
  /// nullopt with `error` after the policy's attempts are exhausted (or on
  /// a permanent server-side rejection).
  std::optional<solver::SolveResult> solve(
      const JobRequest& job, bool stream, std::uint64_t progress_stride,
      const std::function<void(const ProgressMsg&)>& on_progress,
      std::string* error);

  const Counters& counters() const { return counters_; }
  Client& raw_client() { return client_; }

 private:
  bool ensure_connected(std::string* error);

  std::string unix_path_;
  std::string host_;
  std::uint16_t port_ = 0;
  bool tcp_ = false;
  RetryPolicy policy_;
  Client client_;
  bool hello_done_ = false;
  std::uint64_t next_request_id_ = 1;
  Counters counters_;
};

}  // namespace pts::service
