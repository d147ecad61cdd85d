#ifndef GRANULA_GRANULA_LIVE_CLOCK_H_
#define GRANULA_GRANULA_LIVE_CLOCK_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <utility>

#include "common/random.h"

namespace granula::core {

// Monotonic wall-clock seconds (arbitrary epoch) for the live-monitoring
// layer: stall detectors, reconnect backoff schedules, progress
// timestamps. Injectable so tests drive time deterministically instead of
// sleeping — every component that measures "how long since X" takes a
// MonotonicClock and falls back to the real steady clock when the hook is
// left null.
using MonotonicClock = std::function<double()>;

inline double MonotonicNow() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline MonotonicClock OrSteadyClock(MonotonicClock clock) {
  return clock ? std::move(clock) : MonotonicClock(&MonotonicNow);
}

// The reconnect/retry schedule of the live layer: `base_ms` * 2^`step`,
// capped at `cap_ms`, scaled by a uniform factor in [0.5, 1) drawn from
// `rng` so a fleet of clients retrying against one recovering peer does
// not move in lockstep. Returns milliseconds.
inline double JitteredBackoffMs(double base_ms, double cap_ms, uint64_t step,
                                Rng& rng) {
  double delay_ms = base_ms;
  for (uint64_t i = 0; i < step && delay_ms < cap_ms; ++i) delay_ms *= 2;
  return std::min(delay_ms, cap_ms) * (0.5 + 0.5 * rng.NextDouble());
}

}  // namespace granula::core

#endif  // GRANULA_GRANULA_LIVE_CLOCK_H_
