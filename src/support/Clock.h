//===- support/Clock.h - Monotonic clock -----------------------*- C++ -*-===//
//
// Part of the cgc project: a reproduction of Boehm, "Space Efficient
// Conservative Garbage Collection", PLDI 1993.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one clock the collector times itself with: phase and pause
/// timings, the blacklist's footnote-3 share, the handshake watchdog's
/// deadline, and the metadata seal cost.
///
//===----------------------------------------------------------------------===//

#ifndef CGC_SUPPORT_CLOCK_H
#define CGC_SUPPORT_CLOCK_H

#include <chrono>
#include <cstdint>

namespace cgc {

/// \returns steady-clock nanoseconds since an arbitrary epoch.
inline uint64_t monotonicNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

} // namespace cgc

#endif // CGC_SUPPORT_CLOCK_H
