// Wall-clock timing utilities for the scalability experiments (Figs 11-12).
#ifndef GRAPHALIGN_COMMON_TIMER_H_
#define GRAPHALIGN_COMMON_TIMER_H_

#include <chrono>
#include <cstdint>

namespace graphalign {

// Monotonic stopwatch. Started on construction; Restart() resets the origin.
class WallTimer {
 public:
  WallTimer() : start_(Clock::now()) {}

  void Restart() { start_ = Clock::now(); }

  double Seconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }
  double Millis() const { return Seconds() * 1e3; }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

// Seconds since `since` on the steady clock: the age of a stored
// time_point (a queue entry, a running slot, a token bucket's last refill).
inline double ElapsedSeconds(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       since)
      .count();
}

// Wall-clock Unix time in milliseconds, for timestamps that must survive a
// restart (job journal records); steady_clock cannot be persisted.
inline uint64_t UnixMs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

}  // namespace graphalign

#endif  // GRAPHALIGN_COMMON_TIMER_H_
