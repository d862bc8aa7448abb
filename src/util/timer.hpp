// Wall-clock timing helpers (header-only).
#pragma once

#include <chrono>

namespace resched {

/// Monotonic stopwatch. Started on construction; Restart() resets the origin.
class WallTimer {
 public:
  WallTimer() : start_(Clock::now()) {}

  void Restart() { start_ = Clock::now(); }

  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  std::int64_t ElapsedMicros() const {
    return std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                                 start_)
        .count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

/// Deadline helper for time-budgeted algorithms (PA-R, local search,
/// exact, ISK).
class Deadline {
 public:
  /// A non-positive budget means "no deadline".
  explicit Deadline(double budget_seconds) : budget_(budget_seconds) {}

  bool Expired() const {
    return budget_ > 0.0 && timer_.ElapsedSeconds() >= budget_;
  }

  double RemainingSeconds() const {
    if (budget_ <= 0.0) return 1e18;
    return budget_ - timer_.ElapsedSeconds();
  }

  double BudgetSeconds() const { return budget_; }
  double ElapsedSeconds() const { return timer_.ElapsedSeconds(); }

 private:
  double budget_;
  WallTimer timer_;
};

}  // namespace resched
