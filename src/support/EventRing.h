//===- support/EventRing.h - Lock-free ring of recent GC events -*- C++ -*-===//
//
// Part of the cgc project: a reproduction of Boehm, "Space Efficient
// Conservative Garbage Collection", PLDI 1993.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A fixed-capacity ring buffer of the collector's most recent events,
/// designed so a crashing process can still read it: records are
/// pre-formatted fixed-size integer pairs, every access is a relaxed
/// atomic, and nothing ever locks, allocates, or blocks.  The writer is
/// the collector (mutator thread, stop-the-world phases); the reader is
/// the crash reporter's signal handler, which may interrupt the writer
/// mid-push.  A torn record in that window costs one garbled line in a
/// post-mortem dump — never a hang or a second fault, which is the
/// trade the reporter wants.
///
//===----------------------------------------------------------------------===//

#ifndef CGC_SUPPORT_EVENTRING_H
#define CGC_SUPPORT_EVENTRING_H

#include <atomic>
#include <cstdint>

namespace cgc {

/// Every event the collector emits (Collector::emit).  The ring records
/// the kinds before StopTheWorld; those after it are observer-only,
/// because they are frequent and say nothing a post-mortem needs.  One
/// kind has no GcObserver callback: SentinelEscalation (value: the new
/// level, 0 on stand-down), so a crash dump shows the defensive actions
/// that preceded it.
enum class GcEventKind : unsigned char {
  CollectionBegin = 0,
  PhaseBegin = 1,
  PhaseEnd = 2,
  CollectionEnd = 3,
  EmergencyCollection = 4,
  OutOfMemory = 5,
  Warning = 6,
  HeapVerified = 7,
  SentinelEscalation = 8,
  Incident = 9,
  StopTheWorld = 10,
  ThreadCacheRefill = 11,
  ObjectRetained = 12,
};

constexpr unsigned NumGcEventKinds = 13;

/// Whether the crash ring records events of \p Kind.
constexpr bool eventRingRecords(GcEventKind Kind) {
  return Kind < GcEventKind::StopTheWorld;
}

/// Stable, async-signal-safe (string-literal) name for \p Kind.
constexpr const char *gcEventKindName(GcEventKind Kind) {
  switch (Kind) {
  case GcEventKind::CollectionBegin:
    return "collection-begin";
  case GcEventKind::PhaseBegin:
    return "phase-begin";
  case GcEventKind::PhaseEnd:
    return "phase-end";
  case GcEventKind::CollectionEnd:
    return "collection-end";
  case GcEventKind::EmergencyCollection:
    return "emergency-collection";
  case GcEventKind::OutOfMemory:
    return "out-of-memory";
  case GcEventKind::Warning:
    return "warning";
  case GcEventKind::HeapVerified:
    return "heap-verified";
  case GcEventKind::SentinelEscalation:
    return "sentinel-escalation";
  case GcEventKind::Incident:
    return "incident";
  case GcEventKind::StopTheWorld:
    return "stop-the-world";
  case GcEventKind::ThreadCacheRefill:
    return "cache-refill";
  case GcEventKind::ObjectRetained:
    return "object-retained";
  }
  return "?";
}

/// One decoded ring record.  Meta packs kind (bits 0-7), phase
/// (bits 8-15; 0xff = no phase) and the collection index (bits 16-63);
/// Value is event-specific (phase nanos, request bytes, escalation
/// level, ...).
struct GcEventRecord {
  uint64_t Sequence = 0;
  uint64_t Meta = 0;
  uint64_t Value = 0;

  GcEventKind kind() const { return static_cast<GcEventKind>(Meta & 0xff); }
  /// Phase index at record time, or -1 when no phase was running.
  int phase() const {
    unsigned P = static_cast<unsigned>((Meta >> 8) & 0xff);
    return P == 0xff ? -1 : static_cast<int>(P);
  }
  uint64_t collectionIndex() const { return Meta >> 16; }
};

/// The ring itself.  Capacity is a power of two so the reader can mask
/// the head without division (division is async-signal-safe, but masks
/// keep the handler's code trivially auditable).
class EventRing {
public:
  static constexpr unsigned Capacity = 64;

  EventRing() = default;
  EventRing(const EventRing &) = delete;
  EventRing &operator=(const EventRing &) = delete;

  static uint64_t encodeMeta(GcEventKind Kind, int Phase,
                             uint64_t CollectionIndex) {
    uint64_t PhaseBits =
        Phase < 0 ? 0xffu : static_cast<uint64_t>(Phase) & 0xff;
    return static_cast<uint64_t>(Kind) | (PhaseBits << 8) |
           (CollectionIndex << 16);
  }

  /// Records an event.  Writer side; relaxed atomics only.
  void push(GcEventKind Kind, int Phase, uint64_t CollectionIndex,
            uint64_t Value) {
    uint64_t Index = Head.load(std::memory_order_relaxed);
    Slot &S = Slots[Index & (Capacity - 1)];
    S.Meta.store(encodeMeta(Kind, Phase, CollectionIndex),
                 std::memory_order_relaxed);
    S.Value.store(Value, std::memory_order_relaxed);
    Head.store(Index + 1, std::memory_order_relaxed);
  }

  /// Total events ever pushed.
  uint64_t pushed() const { return Head.load(std::memory_order_relaxed); }

  /// Copies the most recent min(pushed, Capacity, MaxOut) records into
  /// \p Out, oldest first, and \returns the count.  Reader side;
  /// async-signal-safe (relaxed loads into caller-owned storage).
  unsigned snapshot(GcEventRecord *Out, unsigned MaxOut) const {
    uint64_t End = Head.load(std::memory_order_relaxed);
    uint64_t Available = End < Capacity ? End : Capacity;
    if (Available > MaxOut)
      Available = MaxOut;
    uint64_t Begin = End - Available;
    for (uint64_t I = 0; I != Available; ++I) {
      const Slot &S = Slots[(Begin + I) & (Capacity - 1)];
      Out[I].Sequence = Begin + I;
      Out[I].Meta = S.Meta.load(std::memory_order_relaxed);
      Out[I].Value = S.Value.load(std::memory_order_relaxed);
    }
    return static_cast<unsigned>(Available);
  }

private:
  struct Slot {
    std::atomic<uint64_t> Meta{0};
    std::atomic<uint64_t> Value{0};
  };

  std::atomic<uint64_t> Head{0};
  Slot Slots[Capacity];
};

} // namespace cgc

#endif // CGC_SUPPORT_EVENTRING_H
