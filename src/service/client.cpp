#include "service/client.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <chrono>
#include <cstring>
#include <thread>
#include <utility>

#include "support/fault.hpp"
#include "support/json.hpp"

namespace pts::service {

namespace {

bool send_all(int fd, const std::uint8_t* data, std::size_t size) {
  while (size > 0) {
    const ssize_t n = fault::send(fd, data, size, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        // Kernel buffer full (or an injected EAGAIN): wait for writability.
        pollfd pfd{};
        pfd.fd = fd;
        pfd.events = POLLOUT;
        ::poll(&pfd, 1, 100);
        continue;
      }
      return false;
    }
    data += static_cast<std::size_t>(n);
    size -= static_cast<std::size_t>(n);
  }
  return true;
}

void set_error(std::string* error, std::string message) {
  if (error != nullptr) *error = std::move(message);
}

/// SO_RCVTIMEO: a blocking read returns EAGAIN after `io_seconds` (<= 0
/// clears the timeout again).
void arm_read_timeout(int fd, double io_seconds) {
  timeval tv{};
  if (io_seconds > 0.0) {
    tv.tv_sec = static_cast<time_t>(io_seconds);
    tv.tv_usec =
        static_cast<suseconds_t>((io_seconds - static_cast<double>(tv.tv_sec)) * 1e6);
  }
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
}

/// connect(2) with an optional wall-clock bound: nonblocking connect, poll
/// for writability, then read SO_ERROR for the real outcome. With
/// timeout_seconds <= 0 this is a plain blocking connect. On failure
/// `detail` holds the strerror-style reason.
bool connect_with_timeout(int fd, const sockaddr* addr, socklen_t len,
                          double timeout_seconds, std::string* detail) {
  if (timeout_seconds <= 0.0) {
    if (fault::connect_fd(fd, addr, len) != 0) {
      *detail = std::strerror(errno);
      return false;
    }
    return true;
  }
  const int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  if (fault::connect_fd(fd, addr, len) != 0) {
    if (errno != EINPROGRESS) {
      *detail = std::strerror(errno);
      return false;
    }
    pollfd pfd{};
    pfd.fd = fd;
    pfd.events = POLLOUT;
    const int timeout_ms =
        std::max(1, static_cast<int>(timeout_seconds * 1000.0));
    const int ready = ::poll(&pfd, 1, timeout_ms);
    if (ready == 0) {
      *detail = "connect timeout";
      return false;
    }
    if (ready < 0) {
      *detail = std::strerror(errno);
      return false;
    }
    int so_error = 0;
    socklen_t optlen = sizeof(so_error);
    ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &so_error, &optlen);
    if (so_error != 0) {
      *detail = std::strerror(so_error);
      return false;
    }
  }
  ::fcntl(fd, F_SETFL, flags);
  return true;
}

}  // namespace

Client::~Client() { close(); }

Client::Client(Client&& other) noexcept
    : fd_(other.fd_),
      connect_timeout_(other.connect_timeout_),
      io_timeout_(other.io_timeout_),
      decoder_(std::move(other.decoder_)),
      pending_(std::move(other.pending_)) {
  other.fd_ = -1;
}

Client& Client::operator=(Client&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    other.fd_ = -1;
    connect_timeout_ = other.connect_timeout_;
    io_timeout_ = other.io_timeout_;
    decoder_ = std::move(other.decoder_);
    pending_ = std::move(other.pending_);
  }
  return *this;
}

void Client::set_timeouts(double connect_seconds, double io_seconds) {
  connect_timeout_ = connect_seconds;
  io_timeout_ = io_seconds;
  if (fd_ >= 0) arm_read_timeout(fd_, io_timeout_);
}

void Client::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

bool Client::finish_connect(int fd, std::string* error, const std::string& where) {
  (void)error;
  (void)where;
  arm_read_timeout(fd, io_timeout_);
  // A reconnect must not replay the previous connection's half-decoded
  // bytes or stale buffered events.
  decoder_ = pvm::FrameDecoder();
  pending_.clear();
  fd_ = fd;
  return true;
}

bool Client::connect_unix(const std::string& path, std::string* error) {
  if (path.size() >= sizeof(sockaddr_un::sun_path)) {
    set_error(error, "unix socket path too long: " + path);
    return false;
  }
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    set_error(error, std::string("socket(AF_UNIX): ") + std::strerror(errno));
    return false;
  }
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  std::string detail;
  if (!connect_with_timeout(fd, reinterpret_cast<const sockaddr*>(&addr),
                            sizeof(addr), connect_timeout_, &detail)) {
    set_error(error, "connect(" + path + "): " + detail);
    ::close(fd);
    return false;
  }
  return finish_connect(fd, error, path);
}

bool Client::connect_tcp(const std::string& host, std::uint16_t port,
                         std::string* error) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    set_error(error, std::string("socket(AF_INET): ") + std::strerror(errno));
    return false;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    set_error(error, "invalid IPv4 address: " + host);
    ::close(fd);
    return false;
  }
  std::string detail;
  if (!connect_with_timeout(fd, reinterpret_cast<const sockaddr*>(&addr),
                            sizeof(addr), connect_timeout_, &detail)) {
    set_error(error,
              "connect(" + host + ":" + std::to_string(port) + "): " + detail);
    ::close(fd);
    return false;
  }
  return finish_connect(fd, error, host);
}

bool Client::send_message(const pvm::Message& msg, std::string* error) {
  if (fd_ < 0) {
    set_error(error, "not connected");
    return false;
  }
  const std::vector<std::uint8_t> bytes = pvm::encode_frame(msg);
  if (!send_all(fd_, bytes.data(), bytes.size())) {
    set_error(error, std::string("send: ") + std::strerror(errno));
    return false;
  }
  return true;
}

std::optional<pvm::Message> Client::read_message(std::string* error) {
  if (fd_ < 0) {
    set_error(error, "not connected");
    return std::nullopt;
  }
  std::uint8_t buffer[64 * 1024];
  while (true) {
    if (auto msg = decoder_.next()) return msg;
    if (decoder_.errored()) {
      set_error(error, "protocol error from server: " + decoder_.error());
      return std::nullopt;
    }
    const ssize_t n = fault::read(fd_, buffer, sizeof(buffer));
    if (n == 0) {
      set_error(error, "server closed the connection");
      return std::nullopt;
    }
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        if (io_timeout_ > 0.0) {
          // SO_RCVTIMEO fired (or an injected EAGAIN with a timeout armed):
          // the caller should treat the connection as dead and reconnect.
          set_error(error, "read timeout");
          return std::nullopt;
        }
        continue;  // injected EAGAIN on a blocking socket: just retry
      }
      set_error(error, std::string("read: ") + std::strerror(errno));
      return std::nullopt;
    }
    decoder_.feed(buffer, static_cast<std::size_t>(n));
  }
}

std::optional<WelcomeMsg> Client::hello(std::string* error) {
  if (!send_message(encode(HelloMsg{}), error)) return std::nullopt;
  while (true) {
    auto msg = read_message(error);
    if (!msg) return std::nullopt;
    if (msg->tag() == kWelcome) {
      WelcomeMsg welcome;
      if (!decode(*msg, welcome)) {
        set_error(error, "malformed welcome from server");
        return std::nullopt;
      }
      return welcome;
    }
    if (msg->tag() == kError) {
      ErrorMsg err;
      set_error(error, decode(*msg, err) ? err.message : "server error");
      return std::nullopt;
    }
    pending_.push_back(std::move(*msg));
  }
}

std::optional<std::uint64_t> parse_seed(std::string_view text) {
  std::uint64_t seed = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, seed);
  if (ec != std::errc{} || ptr != end) return std::nullopt;
  return seed;
}

std::optional<std::uint64_t> Client::submit(const JobRequest& job, bool stream,
                                            std::uint64_t progress_stride,
                                            std::string* error, bool* queued,
                                            std::uint64_t request_id,
                                            bool* cached) {
  if (job.spec.seed > json::kMaxExactInteger) {
    set_error(error, "seed " + std::to_string(job.spec.seed) +
                         " is above 2^53, the largest the JSON wire carries exactly");
    return std::nullopt;
  }
  SubmitMsg submit;
  submit.spec_json = encode_spec(job);
  submit.stream = stream;
  submit.progress_stride = progress_stride;
  submit.request_id = request_id;
  if (!send_message(encode(submit), error)) return std::nullopt;
  while (true) {
    auto msg = read_message(error);
    if (!msg) return std::nullopt;
    switch (msg->tag()) {
      case kSubmitOk: {
        SubmitOkMsg ok;
        if (!decode(*msg, ok)) {
          set_error(error, "malformed submit-ok from server");
          return std::nullopt;
        }
        if (queued != nullptr) *queued = ok.queued;
        if (cached != nullptr) *cached = ok.cached;
        return ok.session;
      }
      case kSubmitErr: {
        SubmitErrMsg err;
        set_error(error, decode(*msg, err) ? err.error : "submit rejected");
        return std::nullopt;
      }
      case kError: {
        ErrorMsg err;
        set_error(error, decode(*msg, err) ? err.message : "server error");
        return std::nullopt;
      }
      default: pending_.push_back(std::move(*msg));
    }
  }
}

bool Client::cancel(std::uint64_t session, bool* was_active, std::string* error) {
  if (!send_message(encode(CancelMsg{session}), error)) return false;
  while (true) {
    auto msg = read_message(error);
    if (!msg) return false;
    if (msg->tag() == kCancelOk) {
      CancelOkMsg ok;
      if (!decode(*msg, ok) || ok.session != session) {
        set_error(error, "malformed cancel-ok from server");
        return false;
      }
      if (was_active != nullptr) *was_active = ok.was_active;
      return true;
    }
    if (msg->tag() == kError) {
      ErrorMsg err;
      set_error(error, decode(*msg, err) ? err.message : "server error");
      return false;
    }
    pending_.push_back(std::move(*msg));
  }
}

std::optional<solver::SolveResult> Client::wait(
    std::uint64_t session,
    const std::function<void(const ProgressMsg&)>& on_progress,
    std::string* error) {
  // Replay buffered events first, then read from the wire; events that
  // belong to other sessions go (back) to the buffer in arrival order.
  std::deque<pvm::Message> buffered;
  buffered.swap(pending_);
  while (true) {
    std::optional<pvm::Message> msg;
    if (!buffered.empty()) {
      msg = std::move(buffered.front());
      buffered.pop_front();
    } else {
      msg = read_message(error);
      if (!msg) {
        pending_.insert(pending_.end(), std::make_move_iterator(buffered.begin()),
                        std::make_move_iterator(buffered.end()));
        return std::nullopt;
      }
    }
    if (msg->tag() == kProgress) {
      ProgressMsg progress;
      if (decode(*msg, progress) && progress.session == session) {
        if (on_progress) on_progress(progress);
        continue;
      }
      msg->rewind();
      pending_.push_back(std::move(*msg));
      continue;
    }
    if (msg->tag() == kDone) {
      DoneMsg done;
      if (decode(*msg, done) && done.session == session) {
        pending_.insert(pending_.end(),
                        std::make_move_iterator(buffered.begin()),
                        std::make_move_iterator(buffered.end()));
        std::string decode_error;
        auto result = decode_result(done.result_json, &decode_error);
        if (!result) {
          set_error(error, "malformed result from server: " + decode_error);
          return std::nullopt;
        }
        return result;
      }
      msg->rewind();
      pending_.push_back(std::move(*msg));
      continue;
    }
    pending_.push_back(std::move(*msg));
  }
}

bool Client::shutdown_server(std::string* error) {
  if (!send_message(encode_shutdown(), error)) return false;
  while (true) {
    auto msg = read_message(error);
    if (!msg) return false;
    if (msg->tag() == kShutdownOk) return true;
    if (msg->tag() == kError) {
      ErrorMsg err;
      set_error(error, decode(*msg, err) ? err.message : "server error");
      return false;
    }
    pending_.push_back(std::move(*msg));
  }
}

// ---------------------------------------------------------------------------
// RetryingClient

namespace {

enum class FailureClass {
  Transport,        ///< connection-level: reconnect and retry
  Timeout,          ///< read timeout: reconnect and retry
  TransientReject,  ///< server said "try again later" (queue full, draining)
  PermanentReject,  ///< schema/spec/server error: retrying cannot help
};

FailureClass classify_failure(const std::string& error) {
  if (error.find("read timeout") != std::string::npos) return FailureClass::Timeout;
  if (error.find("queue full") != std::string::npos ||
      error.find("draining") != std::string::npos) {
    return FailureClass::TransientReject;
  }
  if (error.rfind("send: ", 0) == 0 || error.rfind("read: ", 0) == 0 ||
      error.rfind("connect(", 0) == 0 || error == "not connected" ||
      error == "server closed the connection" ||
      error.find("protocol error from server") != std::string::npos) {
    return FailureClass::Transport;
  }
  return FailureClass::PermanentReject;
}

}  // namespace

RetryingClient::RetryingClient(std::string unix_path, RetryPolicy policy)
    : unix_path_(std::move(unix_path)), policy_(policy) {}

RetryingClient::RetryingClient(std::string host, std::uint16_t port,
                               RetryPolicy policy)
    : host_(std::move(host)), port_(port), tcp_(true), policy_(policy) {}

bool RetryingClient::ensure_connected(std::string* error) {
  if (client_.connected() && hello_done_) return true;
  client_.close();
  hello_done_ = false;
  client_.set_timeouts(policy_.connect_timeout_seconds,
                       policy_.io_timeout_seconds);
  const bool ok = tcp_ ? client_.connect_tcp(host_, port_, error)
                       : client_.connect_unix(unix_path_, error);
  if (!ok) return false;
  if (!client_.hello(error)) {
    client_.close();
    return false;
  }
  hello_done_ = true;
  return true;
}

std::optional<solver::SolveResult> RetryingClient::solve(
    const JobRequest& job, bool stream, std::uint64_t progress_stride,
    const std::function<void(const ProgressMsg&)>& on_progress,
    std::string* error) {
  // One request id for the whole job: every retry re-submits under it, so
  // the daemon log ties the attempts together.
  const std::uint64_t request_id = next_request_id_++;
  double backoff = policy_.initial_backoff_seconds;
  std::string last_error = "no attempts made";

  for (std::size_t attempt = 0; attempt < policy_.max_attempts; ++attempt) {
    if (attempt > 0) {
      ++counters_.retries;
      if (backoff > 0.0) {
        std::this_thread::sleep_for(std::chrono::duration<double>(backoff));
      }
      backoff = std::min(std::max(backoff, policy_.initial_backoff_seconds) * 2.0,
                         policy_.max_backoff_seconds);
    }
    ++counters_.attempts;

    std::string attempt_error;
    if (!ensure_connected(&attempt_error)) {
      ++counters_.connect_failures;
      last_error = attempt_error;
      continue;
    }

    bool queued = false;
    auto id = client_.submit(job, stream, progress_stride, &attempt_error,
                             &queued, request_id);
    if (!id) {
      last_error = attempt_error;
      switch (classify_failure(attempt_error)) {
        case FailureClass::TransientReject:
          ++counters_.queue_full;
          // The connection is healthy — no need to tear it down.
          continue;
        case FailureClass::Timeout:
          ++counters_.timeouts;
          client_.close();
          hello_done_ = false;
          continue;
        case FailureClass::Transport:
          ++counters_.resets_mid_stream;
          client_.close();
          hello_done_ = false;
          continue;
        case FailureClass::PermanentReject:
          ++counters_.server_errors;
          set_error(error, attempt_error);
          return std::nullopt;
      }
      continue;
    }

    auto result = client_.wait(*id, on_progress, &attempt_error);
    if (result) {
      // A Cancelled result we never asked for means the daemon abandoned
      // the session (its side of the connection died mid-storm) but the
      // Done(Cancelled) frame still won the race to the wire. That is a
      // transport casualty, not an answer — resubmit. DeadlineExpired, by
      // contrast, is a reasoned final verdict and is returned as-is.
      if (result->stop_reason == StopReason::Cancelled) {
        ++counters_.resets_mid_stream;
        last_error = "session cancelled by server";
        client_.close();
        hello_done_ = false;
        continue;
      }
      return result;
    }

    last_error = attempt_error;
    switch (classify_failure(attempt_error)) {
      case FailureClass::Timeout:
        ++counters_.timeouts;
        break;
      case FailureClass::PermanentReject:
        // e.g. a malformed result payload; a fresh solve may still work, so
        // count it but keep retrying over a fresh connection.
        ++counters_.server_errors;
        break;
      case FailureClass::Transport:
      case FailureClass::TransientReject:
        ++counters_.resets_mid_stream;
        break;
    }
    // Whatever happened mid-stream, this connection's framing state is
    // suspect: start the next attempt from scratch. The daemon cancels the
    // lost connection's sessions, so the orphan solve does not leak.
    client_.close();
    hello_done_ = false;
  }

  set_error(error, last_error + " (after " +
                       std::to_string(policy_.max_attempts) + " attempts)");
  return std::nullopt;
}

}  // namespace pts::service
