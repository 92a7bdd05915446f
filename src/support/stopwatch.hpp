// Wall-clock stopwatch for the wall-clock engines, the serving layer and
// the examples. Figure benches use the sim engine's virtual time instead
// (see DESIGN.md §5).
#pragma once

#include <chrono>

namespace pts {

class Stopwatch {
 public:
  Stopwatch() : start_(Clock::now()) {}

  void reset() { start_ = Clock::now(); }

  /// Elapsed seconds since construction or the last reset().
  double seconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  double millis() const { return seconds() * 1e3; }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace pts
