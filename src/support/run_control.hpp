// Engine-agnostic run control: stop conditions, cooperative cancellation,
// and progress observation, shared by every search engine and surfaced
// through the pts::solver::Solver front door.
//
// Two rules keep run control compatible with the same-seed determinism
// guarantee (DESIGN.md §5):
//  - stop checks and observer callbacks are read-only: they never touch an
//    engine RNG stream and never reorder floating-point accumulation;
//  - a run whose stop conditions never fire is bit-identical to the same
//    run without any run control attached.
// Stop checks run at engine-specific granularity — per tabu/local-search
// iteration, per annealing move, per *global* iteration for the parallel
// engines — so a fired condition stops the run at the next check point,
// not instantly.
#pragma once

#include <atomic>
#include <cstddef>
#include <optional>
#include <string_view>

namespace pts {

/// Cooperative cancellation. Share one token with a running engine (via
/// StopConditions::cancel) and call cancel() from any thread; the engine
/// returns at its next stop-check point with StopReason::Cancelled.
///
/// Cross-thread semantics: cancel() and cancelled() are safe to call
/// concurrently from any number of threads while an engine runs. The flag
/// uses relaxed atomics on purpose — cancellation is a *signal*, not a
/// synchronization point: it guarantees the engine eventually observes the
/// request (each stop check loads the flag), but it does NOT order any
/// other memory. Publishing data to the solve thread alongside a cancel
/// requires separate synchronization (the serving layer's SessionManager
/// does this by joining the session thread before touching its result).
/// cancel() is idempotent and may race the run's natural completion; the
/// token must outlive every engine still holding a pointer to it.
class CancelToken {
 public:
  void cancel() { cancelled_.store(true, std::memory_order_relaxed); }
  bool cancelled() const { return cancelled_.load(std::memory_order_relaxed); }

 private:
  std::atomic<bool> cancelled_{false};
};

/// Why a run returned. Completed means the engine's own budget ran out;
/// every other value names the stop condition that fired first.
enum class StopReason {
  Completed,
  IterationBudget,
  TimeLimit,
  TargetCost,
  TargetQuality,
  Cancelled,
  /// The serving layer's wall-clock deadline expired; engines never return
  /// this themselves — the SessionManager cancels the solve cooperatively
  /// and rewrites the reason on the way out.
  DeadlineExpired,
};

inline const char* stop_reason_name(StopReason reason) {
  switch (reason) {
    case StopReason::Completed: return "completed";
    case StopReason::IterationBudget: return "iteration-budget";
    case StopReason::TimeLimit: return "time-limit";
    case StopReason::TargetCost: return "target-cost";
    case StopReason::TargetQuality: return "target-quality";
    case StopReason::Cancelled: return "cancelled";
    case StopReason::DeadlineExpired: return "deadline-expired";
  }
  return "unknown";
}

/// Inverse of stop_reason_name; nullopt for a name it never returns.
inline std::optional<StopReason> stop_reason_from_name(std::string_view name) {
  for (const StopReason reason :
       {StopReason::Completed, StopReason::IterationBudget, StopReason::TimeLimit,
        StopReason::TargetCost, StopReason::TargetQuality, StopReason::Cancelled,
        StopReason::DeadlineExpired}) {
    if (name == stop_reason_name(reason)) return reason;
  }
  return std::nullopt;
}

/// Caller-imposed limits layered on top of an engine's own budget. Default
/// state imposes nothing.
struct StopConditions {
  /// Extra cap on engine iterations: tabu/local-search iterations,
  /// annealing moves, parallel *global* iterations. 0 = no extra cap.
  std::size_t max_iterations = 0;
  /// Engine-clock limit in seconds: wall time for the sequential and
  /// shared-memory engines, virtual time for the sim engine (which makes
  /// the limit deterministic there). <= 0 = no limit.
  double max_seconds = 0.0;
  /// Stop once the best cost found is <= this.
  std::optional<double> target_cost;
  /// Stop once the best quality found is >= this (quality is in [0, 1]).
  std::optional<double> target_quality;
  /// Cooperative cancellation; not owned, may be null.
  const CancelToken* cancel = nullptr;

  bool engaged() const {
    return max_iterations > 0 || max_seconds > 0.0 || target_cost.has_value() ||
           target_quality.has_value() || cancel != nullptr;
  }
};

/// Read-only progress snapshot passed to Observer callbacks.
struct Progress {
  std::size_t iteration = 0;  ///< engine iterations completed so far
  double seconds = 0.0;       ///< engine clock (wall, or virtual for sim)
  double current_cost = 0.0;  ///< cost of the engine's working solution
  double best_cost = 0.0;     ///< best cost found so far
};

/// Progress callbacks. Invoked synchronously from the engine's driving
/// thread (the master thread for the parallel engines); implementations
/// must not mutate anything reachable from the engine.
///
/// Cross-thread semantics: all callbacks for one run arrive on ONE thread —
/// the thread executing the engine's run loop — and never concurrently with
/// each other, so an observer needs no internal locking against itself.
/// That thread is not necessarily the thread that built the spec: when a
/// solve is moved to a worker (as the serving layer's sessions do), the
/// callbacks move with it, and an observer shared with other threads must
/// synchronize its own state (e.g. the daemon's streaming observer hands
/// events to a per-connection mutex-serialized writer). Callbacks stop
/// before the engine's run() returns; after the solve thread is joined, no
/// callback can be in flight. Blocking inside a callback blocks the solve.
class Observer {
 public:
  virtual ~Observer() = default;
  /// A new best solution was adopted.
  virtual void on_improvement(const Progress& progress) { (void)progress; }
  /// An engine iteration finished (tabu/local iteration, annealing
  /// temperature step, parallel global iteration).
  virtual void on_iteration(const Progress& progress) { (void)progress; }
};

/// Bundle handed to an engine's run() entry point. Default-constructed
/// RunControl imposes nothing and observes nothing.
struct RunControl {
  StopConditions stop;
  Observer* observer = nullptr;  ///< not owned; may be null

  /// First stop condition that fired, or nullopt. Checked in order:
  /// cancellation, target cost, target quality, time limit, iteration
  /// budget.
  std::optional<StopReason> should_stop(std::size_t iterations_done,
                                        double seconds, double best_cost,
                                        double best_quality) const {
    if (stop.cancel != nullptr && stop.cancel->cancelled()) {
      return StopReason::Cancelled;
    }
    if (stop.target_cost && best_cost <= *stop.target_cost) {
      return StopReason::TargetCost;
    }
    if (stop.target_quality && best_quality >= *stop.target_quality) {
      return StopReason::TargetQuality;
    }
    if (stop.max_seconds > 0.0 && seconds >= stop.max_seconds) {
      return StopReason::TimeLimit;
    }
    if (stop.max_iterations > 0 && iterations_done >= stop.max_iterations) {
      return StopReason::IterationBudget;
    }
    return std::nullopt;
  }

  /// True when should_stop can ever fire; lets hot loops skip clock reads.
  bool needs_clock() const { return stop.max_seconds > 0.0; }

  void notify_improvement(const Progress& progress) const {
    if (observer != nullptr) observer->on_improvement(progress);
  }
  void notify_iteration(const Progress& progress) const {
    if (observer != nullptr) observer->on_iteration(progress);
  }
};

}  // namespace pts
