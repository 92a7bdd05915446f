#include "support/fault.hpp"

#include <unistd.h>

#include <atomic>
#include <utility>

namespace pts::fault {

FaultPlan::FaultPlan(std::uint64_t seed, SocketFaultConfig config)
    : config_(std::move(config)),
      rng_(SplitMix64(seed ^ 0xfa017'bad'cafeULL).next()) {}

FaultPlan::IoDecision FaultPlan::io_decision_locked(
    double error_rate, double short_rate, const std::vector<int>& errors,
    std::uint64_t& error_counter, std::uint64_t& short_counter) {
  IoDecision decision;
  // One uniform draw decides among {fail, cap, pass}, so the decision
  // stream length is independent of which branch fires.
  const double u = rng_.uniform();
  if (u < error_rate && !errors.empty()) {
    decision.kind = IoDecision::Kind::Fail;
    decision.error = errors[static_cast<std::size_t>(rng_.below(errors.size()))];
    ++error_counter;
  } else if (u < error_rate + short_rate) {
    decision.kind = IoDecision::Kind::Cap;
    decision.cap = 1 + rng_.below(config_.short_cap > 0 ? config_.short_cap : 1);
    ++short_counter;
  }
  return decision;
}

FaultPlan::IoDecision FaultPlan::on_read() {
  const std::lock_guard<std::mutex> lock(mutex_);
  return io_decision_locked(config_.read_error_rate, config_.short_read_rate,
                            config_.read_errors, counters_.read_errors,
                            counters_.short_reads);
}

FaultPlan::IoDecision FaultPlan::on_write() {
  const std::lock_guard<std::mutex> lock(mutex_);
  return io_decision_locked(config_.write_error_rate, config_.short_write_rate,
                            config_.write_errors, counters_.write_errors,
                            counters_.short_writes);
}

bool FaultPlan::on_connect(int* error_out) {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (rng_.uniform() < config_.connect_error_rate) {
    ++counters_.connect_errors;
    if (error_out != nullptr) *error_out = config_.connect_error;
    return true;
  }
  return false;
}

FaultPlan::Counters FaultPlan::counters() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return counters_;
}

// -- global install ----------------------------------------------------------

namespace {
std::atomic<FaultPlan*> g_plan{nullptr};
}  // namespace

void install(FaultPlan* plan) { g_plan.store(plan, std::memory_order_release); }
FaultPlan* installed() { return g_plan.load(std::memory_order_acquire); }

// -- syscall wrappers --------------------------------------------------------

ssize_t read(int fd, void* buffer, std::size_t size) {
  if (FaultPlan* plan = installed()) {
    const auto decision = plan->on_read();
    if (decision.kind == FaultPlan::IoDecision::Kind::Fail) {
      errno = decision.error;
      return -1;
    }
    if (decision.kind == FaultPlan::IoDecision::Kind::Cap &&
        decision.cap < size) {
      size = decision.cap;
    }
  }
  return ::read(fd, buffer, size);
}

ssize_t send(int fd, const void* buffer, std::size_t size, int flags) {
  if (FaultPlan* plan = installed()) {
    const auto decision = plan->on_write();
    if (decision.kind == FaultPlan::IoDecision::Kind::Fail) {
      errno = decision.error;
      return -1;
    }
    if (decision.kind == FaultPlan::IoDecision::Kind::Cap &&
        decision.cap < size) {
      size = decision.cap;
    }
  }
  return ::send(fd, buffer, size, flags);
}

int connect_fd(int fd, const struct sockaddr* addr, socklen_t len) {
  if (FaultPlan* plan = installed()) {
    int error = ECONNREFUSED;
    if (plan->on_connect(&error)) {
      errno = error;
      return -1;
    }
  }
  return ::connect(fd, addr, len);
}

}  // namespace pts::fault
