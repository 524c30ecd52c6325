//===- core/GcStats.h - Collection statistics ------------------*- C++ -*-===//
//
// Part of the cgc project: a reproduction of Boehm, "Space Efficient
// Conservative Garbage Collection", PLDI 1993.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Per-collection and lifetime statistics.  The paper's measurements
/// (Table 1 retention, footnote-3 overheads, §3.1 apparent liveness)
/// are all derived from these counters.
///
//===----------------------------------------------------------------------===//

#ifndef CGC_CORE_GCSTATS_H
#define CGC_CORE_GCSTATS_H

#include "core/GcPhase.h"
#include "heap/HeapVerifier.h"
#include "heap/TypeDescriptor.h"
#include <cstdint>

namespace cgc {

/// Where a candidate word was found during scanning.  Mirrors
/// RootSource with an extra entry for heap-object contents; used for
/// the paper's source-of-leakage analysis (Appendix B identifies
/// static variables, allocator stack garbage, and heap-resident
/// pointers as distinct leak sources).
enum class ScanOrigin : unsigned char {
  StaticData,
  Stack,
  Registers,
  Client,
  Heap,
};

constexpr unsigned NumScanOrigins = 5;

constexpr const char *scanOriginName(ScanOrigin Origin) {
  switch (Origin) {
  case ScanOrigin::StaticData:
    return "static data";
  case ScanOrigin::Stack:
    return "stack";
  case ScanOrigin::Registers:
    return "registers";
  case ScanOrigin::Client:
    return "client roots";
  case ScanOrigin::Heap:
    return "heap objects";
  }
  return "?";
}

/// Statistics for one collection cycle.
struct CollectionStats {
  uint64_t RootBytesScanned = 0;
  uint64_t RootCandidatesExamined = 0;
  /// Root candidates that resolved to a valid object.
  uint64_t RootHits = 0;
  /// Candidates (root or heap) in the potential heap that failed the
  /// validity test: the Figure-2 blacklist feed.
  uint64_t NearMisses = 0;
  uint64_t HeapWordsScanned = 0;
  uint64_t ObjectsMarked = 0;
  uint64_t BytesMarked = 0;
  /// The sweep's counts, as if every block were swept in the pause: a
  /// block left pending is counted here, and its bitmaps catch up when
  /// allocation reaches it (ObjectHeap::sweep).
  uint64_t ObjectsSweptFree = 0;
  uint64_t BytesSweptFree = 0;
  uint64_t ObjectsLive = 0;
  uint64_t BytesLive = 0;
  uint64_t SlotsPinned = 0;
  uint64_t PagesReleased = 0;
  uint64_t BlacklistedPages = 0;
  uint64_t FinalizersQueued = 0;
  /// Mark-stack overflows this cycle (real or fault-injected).  Each
  /// one dropped a work item; the marker recovered by rescanning marked
  /// objects to a fixpoint, so the marked set is unaffected.
  uint64_t MarkStackOverflows = 0;
  /// Registered mutator threads the stop-the-world handshake waited
  /// into a stopped state (0 in single-mutator mode: no handshake ran).
  uint64_t MutatorsStopped = 0;
  /// Nanoseconds from raising the stop request to the last mutator
  /// parking (0 when no handshake ran).
  uint64_t HandshakeNanos = 0;
  /// Usable free slots in the thread-owned blocks returned to the heap
  /// at this cycle's handshake (before RootScan).
  uint64_t CacheSlotsFlushed = 0;
  /// Thread-owned blocks that could not be returned — their owner was
  /// frozen by the watchdog's suspend signal, possibly mid-fast-path —
  /// and were left unswept this cycle (0 on every cooperative
  /// handshake).
  uint64_t CacheBlocksKept = 0;
  /// Nanoseconds spent in each pipeline phase (indexed by GcPhase).
  uint64_t PhaseNanos[NumGcPhases] = {};
  /// Nanoseconds of the RootScan and Mark phases spent on blacklist
  /// bookkeeping (the paper's footnote-3 "0.2% of its time"
  /// measurement).
  uint64_t BlacklistNanos = 0;
  /// Valid-object marks and near misses, broken down by where the
  /// candidate word was found (indexed by ScanOrigin).
  uint64_t MarksByOrigin[NumScanOrigins] = {};
  uint64_t NearMissesByOrigin[NumScanOrigins] = {};
  /// Heap-object words examined, broken down by how the containing
  /// object is traced (indexed by DescriptorClass).  PointerFree stays
  /// zero by construction (such payloads are never scanned); the other
  /// two sum to HeapWordsScanned.
  uint64_t ScanWordsByClass[NumDescriptorClasses] = {};
  /// Of those words, the ones whose value fell inside the heap window
  /// and were therefore considered as candidate pointers (indexed by
  /// DescriptorClass).
  uint64_t ScanCandidatesByClass[NumDescriptorClasses] = {};
};

/// Lifetime counters for the memory-pressure resilience layer: how
/// often the allocation slow-path ladder escalated, what the warn proc
/// saw, and how the collector degraded under injected faults.
struct GcResilienceStats {
  /// "heap-exhausted" collections forced by the allocation ladder.
  uint64_t HeapExhaustedCollections = 0;
  /// Last-resort collections run with interior-pointer recognition and
  /// page-placement constraints relaxed.
  uint64_t EmergencyCollections = 0;
  /// Allocations that exhausted the entire ladder.
  uint64_t OomEvents = 0;
  /// OomEvents that invoked an installed OOM handler.
  uint64_t OomHandlerInvocations = 0;
  /// Ladder collections that reclaimed nothing.
  uint64_t NoProgressCollections = 0;
  /// Warnings delivered to the warn proc / observers.
  uint64_t WarningsIssued = 0;
  /// Warnings swallowed by the exponential-backoff rate limiter.
  uint64_t WarningsSuppressed = 0;
};

/// Lifetime counters for the corruption-containment layer: what the
/// self-healing verifier rebuilt and had to quarantine (deliberately
/// leak), summed over every verifyAndRepair pass (HeapRepairStats),
/// how often a collection was abandoned and retried after repair, and
/// the sealed-metadata traffic.
struct GcRepairStats : HeapRepairStats {
  /// verifyAndRepair passes executed (verifier-triggered or wild-write
  /// triggered).
  uint64_t VerifyRepairsRun = 0;
  /// Collections abandoned mid-pipeline and retried after repair.
  uint64_t CollectionsRetried = 0;
  /// Wild writes to sealed metadata pages caught by the SIGSEGV
  /// sub-handler and raised as MetadataWildWrite incidents.
  uint64_t MetadataWildWrites = 0;
  /// Seal/unseal mprotect transitions (2 per collection when
  /// GcConfig::SealMetadata is on and mutation happened in between).
  uint64_t SealTransitions = 0;
  /// Nanoseconds spent inside seal/unseal mprotect calls (lifetime).
  uint64_t SealNanos = 0;
  /// The collector gave up on collection after a repeated mid-repair
  /// verification failure; collect() returns empty cycles and
  /// allocation degrades to fresh-page growth.
  bool DegradedMode = false;
};

/// Lifetime stop-the-world handshake timing and watchdog-escalation
/// counters, snapshotted from the mutator registry
/// (Collector::handshakeStats).  Mean time-to-stop is
/// TotalStopNanos / Handshakes.
struct GcHandshakeStats {
  /// Completed rendezvous (equals threaded collections).
  uint64_t Handshakes = 0;
  uint64_t MaxStopNanos = 0;
  uint64_t TotalStopNanos = 0;
  /// Threads preemptively suspended by the reserved signal (lifetime).
  uint64_t SignalSuspensions = 0;
  /// Suspend-signal re-sends beyond each thread's first (lifetime).
  uint64_t SignalSendRetries = 0;
  /// Handshakes that climbed to the warning rung (deadline/4).
  uint64_t WarnRungs = 0;
  /// Handshakes that climbed to the signal rung (deadline/2).
  uint64_t SignalRungs = 0;
  /// Handshakes that exhausted the full deadline.  Each one abandoned
  /// a collection attempt (HandshakeTimeout incident raised; allocation
  /// degraded to heap growth).
  uint64_t HandshakeTimeouts = 0;
};

/// Lifetime totals across collections.
struct GcLifetimeStats {
  uint64_t Collections = 0;
  uint64_t TotalBlacklistNanos = 0;
  uint64_t TotalBytesSweptFree = 0;
  uint64_t TotalNearMisses = 0;
  /// Per-pipeline-phase lifetime totals (indexed by GcPhase).
  uint64_t TotalPhaseNanos[NumGcPhases] = {};
  /// Lifetime heap-word scan mix (indexed by DescriptorClass).
  uint64_t TotalScanWordsByClass[NumDescriptorClasses] = {};
  uint64_t TotalScanCandidatesByClass[NumDescriptorClasses] = {};

  void accumulate(const CollectionStats &Cycle) {
    ++Collections;
    TotalBlacklistNanos += Cycle.BlacklistNanos;
    TotalBytesSweptFree += Cycle.BytesSweptFree;
    TotalNearMisses += Cycle.NearMisses;
    for (unsigned I = 0; I != NumGcPhases; ++I)
      TotalPhaseNanos[I] += Cycle.PhaseNanos[I];
    for (unsigned I = 0; I != NumDescriptorClasses; ++I) {
      TotalScanWordsByClass[I] += Cycle.ScanWordsByClass[I];
      TotalScanCandidatesByClass[I] += Cycle.ScanCandidatesByClass[I];
    }
  }
};

} // namespace cgc

#endif // CGC_CORE_GCSTATS_H
