//===- support/CrashReporter.h - Async-signal-safe post-mortems -*- C++ -*-===//
//
// Part of the cgc project: a reproduction of Boehm, "Space Efficient
// Conservative Garbage Collection", PLDI 1993.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A crash reporter that can run inside a SIGSEGV/SIGABRT handler and
/// still tell you what the collector was doing.  Every collector keeps
/// a GcCrashState — a POD of relaxed-atomic mirrors of its phase, heap
/// summary, resilience counters, and an EventRing of its last events —
/// registered in a process-global lock-free table.  The collector
/// writes it from its emit path (Collector::emit): collection and phase
/// boundaries set the phase and collection index, the ring records
/// every event but the frequent observer-only kinds (stop-the-world,
/// cache refill, object retained), and every event but the phase and
/// per-object ones republishes the counter mirrors from their sources.
/// The dump walks the table and formats each state with hand-rolled
/// integer formatters into a stack buffer, emitting only write(2)
/// calls: no malloc, no stdio, no locks, no unbounded recursion.
///
/// Three entry points:
///   * crash::install()   — sigaction handlers for SIGSEGV and SIGABRT
///                          that dump to stderr, restore the previous
///                          disposition, and re-raise;
///   * crash::dump(fd)    — the same report, on demand, to any fd
///                          (exposed as cgc_dump_crash_report);
///   * crash::registerState / unregisterState — collector lifecycle.
///
//===----------------------------------------------------------------------===//

#ifndef CGC_SUPPORT_CRASHREPORTER_H
#define CGC_SUPPORT_CRASHREPORTER_H

#include "support/EventRing.h"
#include <atomic>
#include <cstdint>

namespace cgc {

/// Per-collector crash-visible state.  The writer is the collector's
/// emit path; outside it, only a guard violation's last-violation
/// fields and the thread and quarantine bookkeeping (which republish
/// the counter mirrors) write here.  The only reader that matters is
/// the signal handler, so every field is a relaxed atomic and the
/// struct owns no heap memory.
struct GcCrashState {
  /// Collector::uniqueId(); 0 marks a free registry slot.
  std::atomic<uint64_t> CollectorId{0};
  /// Current pipeline phase as int(GcPhase), or -1 outside collection.
  std::atomic<int32_t> Phase{-1};
  std::atomic<uint64_t> CollectionIndex{0};
  /// Heap summary: the last collection's live bytes, blacklist and scan
  /// mix, and the committed bytes, republished with the counters.
  std::atomic<uint64_t> LiveBytes{0};
  std::atomic<uint64_t> CommittedBytes{0};
  std::atomic<uint64_t> BlacklistedPages{0};
  /// Last cycle's heap-scan mix, indexed by DescriptorClass
  /// (0 conservative, 1 precise, 2 pointer-free — the array size is a
  /// literal so this header stays free of heap-layer includes): words
  /// examined and candidate pointers considered.
  std::atomic<uint64_t> ScanWordsByClass[3]{};
  std::atomic<uint64_t> ScanCandidatesByClass[3]{};
  /// Resilience counters (subset of GcResilienceStats).
  std::atomic<uint64_t> HeapExhaustedCollections{0};
  std::atomic<uint64_t> EmergencyCollections{0};
  std::atomic<uint64_t> OomEvents{0};
  std::atomic<uint64_t> WarningsIssued{0};
  /// Sentinel escalation level (0 = calm) and incidents raised.
  std::atomic<uint64_t> SentinelLevel{0};
  std::atomic<uint64_t> SentinelIncidents{0};
  /// Guarded-heap mode (GcConfig::DebugGuards): 1 when active.  The
  /// kind/site pointers are string literals and interned site strings
  /// (stable for the collector's lifetime), so the signal handler can
  /// print them without touching collector memory management.
  std::atomic<uint64_t> GuardedMode{0};
  std::atomic<uint64_t> GuardViolations{0};
  /// Thread layer: registered mutators right now, stop-the-world
  /// handshakes completed, and the blocks checked out to thread caches.
  /// All zero in single-mutator mode, and the dump omits the line.
  std::atomic<uint64_t> RegisteredThreads{0};
  std::atomic<uint64_t> Handshakes{0};
  std::atomic<uint64_t> OwnedBlocks{0};
  /// Stop-the-world hardening: threads preemptively suspended by the
  /// watchdog's reserved signal, handshakes that hit the final timeout
  /// (abandoned collections), and the slowest completed time-to-stop.
  std::atomic<uint64_t> SignalSuspensions{0};
  std::atomic<uint64_t> HandshakeTimeouts{0};
  std::atomic<uint64_t> MaxStopNanos{0};
  std::atomic<uint64_t> QuarantineDepth{0};
  std::atomic<uint64_t> LastGuardSeqno{0};
  std::atomic<const char *> LastGuardKind{nullptr};
  std::atomic<const char *> LastGuardSite{nullptr};
  /// The last Capacity events, crash-readable.
  EventRing Events;
};

namespace crash {

/// Registry capacity; registering more live collectors than this is
/// legal — the overflow simply isn't crash-visible.
inline constexpr unsigned MaxTrackedCollectors = 32;

/// Adds \p State to the crash registry.  \returns false when the
/// registry is full (the collector still works; it just won't appear
/// in dumps).
bool registerState(GcCrashState *State);

/// Removes \p State; safe to call for a state that never registered.
void unregisterState(GcCrashState *State);

/// Installs SIGSEGV/SIGABRT handlers (idempotent; first call wins).
/// On signal: dump to stderr, restore the previous disposition, and
/// re-raise so the process still dies with the original signal.
void install();

/// Writes the full crash report to \p fd.  Async-signal-safe; callable
/// at any time, not just from handlers.  \p Signal is included in the
/// header when >= 0.
void dump(int Fd, int Signal = -1);

/// Declares \p Sig (the collector's reserved suspend signal) as one the
/// crash handlers must keep blocked while dumping, so a suspend request
/// landing mid-dump cannot interleave with the report or deadlock on
/// the dump's write loop.  Re-applies the handler registration when
/// install() already ran, preserving the saved previous dispositions.
void setReservedSignal(int Sig);

/// Child-side fork cleanup: clears the in-progress dump latch and
/// re-applies the handler registration (no-op when install() never
/// ran), so a crash in the child still produces a report.
void reinstallAfterFork();

} // namespace crash

} // namespace cgc

#endif // CGC_SUPPORT_CRASHREPORTER_H
