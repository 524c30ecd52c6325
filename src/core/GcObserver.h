//===- core/GcObserver.h - GC event/observability hooks --------*- C++ -*-===//
//
// Part of the cgc project: a reproduction of Boehm, "Space Efficient
// Conservative Garbage Collection", PLDI 1993.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The collector's observability layer.  Every collection emits a fixed
/// event sequence:
///
///   onCollectionBegin
///     onPhaseBegin/onPhaseEnd for each pipeline phase, in GcPhase
///     order (see core/GcPhase.h)
///     onObjectRetained for each surviving object (Finalize phase;
///     opt-in via wantsRetainedObjects)
///   onCollectionEnd
///
/// Collections triggered from inside allocation (allocation-threshold,
/// heap-exhausted, the startup collection) emit exactly the same
/// sequence, so consecutive collections never interleave events.
///
/// Every event reaches the observers through the collector's one emit
/// path (Collector::emit), which also feeds the crash ring
/// (support/EventRing.h), the crash-visible counters and the warn
/// proc, so the ring and the observers see the same events in the same
/// order.  The collector's own consumers (per-phase timing, the
/// per-phase verifier, the retention sentinel) are direct calls, not
/// observers.  Clients register observers through
/// Collector::addObserver or the C API.
///
/// Re-entrancy rules: callbacks may register and unregister observers
/// (including the running observer unregistering itself); an observer
/// removed mid-dispatch receives no further events, and one added
/// mid-dispatch starts receiving events at the next event.  Callbacks
/// must not allocate from or collect the observed collector — the
/// collector is mid-cycle.
///
//===----------------------------------------------------------------------===//

#ifndef CGC_CORE_GCOBSERVER_H
#define CGC_CORE_GCOBSERVER_H

#include "core/GcPhase.h"
#include "heap/ObjectKind.h"
#include <cstddef>
#include <cstdint>
#include <vector>

namespace cgc {

struct CollectionStats;
struct GcIncident;

using GcObserverId = uint32_t;

/// Interface for collection-cycle event consumers.  All callbacks have
/// empty default implementations so observers override only what they
/// consume.
class GcObserver {
public:
  virtual ~GcObserver() = default;

  /// A collection cycle is starting.  \p CollectionIndex counts
  /// collections over the collector's lifetime (0-based); \p Reason is
  /// the string passed to Collector::collect.
  virtual void onCollectionBegin(uint64_t CollectionIndex,
                                 const char *Reason) {
    (void)CollectionIndex;
    (void)Reason;
  }

  /// The cycle finished; \p Stats is the completed cycle record.
  virtual void onCollectionEnd(uint64_t CollectionIndex,
                               const CollectionStats &Stats) {
    (void)CollectionIndex;
    (void)Stats;
  }

  /// Pipeline phase \p Phase is starting.
  virtual void onPhaseBegin(GcPhase Phase) { (void)Phase; }

  /// Pipeline phase \p Phase finished after \p Nanos.  \p SoFar is the
  /// cycle's statistics accumulated up to and including this phase.
  virtual void onPhaseEnd(GcPhase Phase, uint64_t Nanos,
                          const CollectionStats &SoFar) {
    (void)Phase;
    (void)Nanos;
    (void)SoFar;
  }

  /// Return true to receive onObjectRetained events.  Off by default:
  /// enumerating survivors costs a full heap walk per collection.
  virtual bool wantsRetainedObjects() const { return false; }

  /// The collection retained (marked) the allocated object at \p Ptr,
  /// shown as forEachObject shows it (under DebugGuards, the user
  /// pointer and requested size).  Emitted during the Finalize phase,
  /// in block order.
  virtual void onObjectRetained(void *Ptr, size_t Bytes, ObjectKind Kind) {
    (void)Ptr;
    (void)Bytes;
    (void)Kind;
  }

  /// The allocation ladder is about to run a last-resort emergency
  /// collection (interior-pointer recognition and page-placement
  /// constraints relaxed) for a request of \p RequestBytes.
  virtual void onEmergencyCollection(uint64_t RequestBytes) {
    (void)RequestBytes;
  }

  /// Every ladder rung failed for a request of \p RequestBytes.
  /// \p HandlerInstalled tells whether a GcOomHandler will be invoked
  /// after this event.
  virtual void onOutOfMemory(uint64_t RequestBytes, bool HandlerInstalled) {
    (void)RequestBytes;
    (void)HandlerInstalled;
  }

  /// A rate-limited resilience warning was issued (same payload the
  /// warn proc receives; suppressed repetitions are not dispatched).
  virtual void onWarning(const char *Message, uint64_t Value) {
    (void)Message;
    (void)Value;
  }

  /// The per-phase verifier (GcConfig::VerifyEveryCollection) ran the
  /// deep heap verifier; this precedes the phase's onPhaseEnd.
  /// \p Clean is true when no inconsistencies were found;
  /// \p IssueCount is the report size.  Explicit
  /// Collector::verifyHeapReport calls do not dispatch this event.
  virtual void onHeapVerified(bool Clean, size_t IssueCount) {
    (void)Clean;
    (void)IssueCount;
  }

  /// The stop-the-world handshake completed: \p MutatorsStopped
  /// registered threads parked within \p Nanos.  Emitted before
  /// onCollectionBegin's phases, only when at least one mutator thread
  /// is registered — single-mutator collections never handshake.
  virtual void onStopTheWorld(uint64_t MutatorsStopped, uint64_t Nanos) {
    (void)MutatorsStopped;
    (void)Nanos;
  }

  /// A registered thread's cache checked out blocks of size class
  /// \p SizeClass holding \p Slots free slots (dispatched under the
  /// heap lock, from the allocating thread, once per refill).
  virtual void onThreadCacheRefill(unsigned SizeClass, unsigned Slots) {
    (void)SizeClass;
    (void)Slots;
  }

  /// A structured incident was raised (core/GcIncident.h): a retention
  /// storm, a guard violation, a bad client free, a handshake timeout
  /// or a wild write to sealed metadata.  The rate-limited onWarning
  /// naming it follows.  \p Incident is valid only for the duration of
  /// the callback.  A retention storm is raised at collection end,
  /// before onCollectionEnd, so the usual no-alloc/no-collect rules
  /// apply.
  virtual void onIncident(const GcIncident &Incident) { (void)Incident; }
};

/// Holds registered observers and dispatches events to them.  Observers
/// are not owned.  Registration and unregistration are legal at any
/// time, including from inside a callback being dispatched.
class GcObserverRegistry {
public:
  GcObserverId add(GcObserver *Observer) {
    Entries.push_back({NextId, Observer});
    return NextId++;
  }

  /// \returns true if \p Id was registered.  Safe during dispatch: the
  /// slot is tombstoned and compacted once no dispatch is running.
  bool remove(GcObserverId Id) {
    for (Entry &E : Entries) {
      if (E.Id != Id || !E.Observer)
        continue;
      E.Observer = nullptr;
      if (DispatchDepth == 0)
        compact();
      return true;
    }
    return false;
  }

  bool empty() const { return Entries.empty(); }

  bool anyWantsRetainedObjects() const {
    for (const Entry &E : Entries)
      if (E.Observer && E.Observer->wantsRetainedObjects())
        return true;
    return false;
  }

  /// Calls \p Fn(observer) on every live observer.  Indexes rather than
  /// iterates so callbacks may add or remove observers underneath us;
  /// tombstones keep already-visited slots stable.
  template <typename FnT> void dispatch(FnT Fn) {
    ++DispatchDepth;
    for (size_t I = 0; I < Entries.size(); ++I) {
      if (GcObserver *Observer = Entries[I].Observer)
        Fn(*Observer);
    }
    if (--DispatchDepth == 0)
      compact();
  }

private:
  struct Entry {
    GcObserverId Id;
    GcObserver *Observer;
  };

  void compact() {
    size_t Out = 0;
    for (size_t I = 0; I != Entries.size(); ++I)
      if (Entries[I].Observer)
        Entries[Out++] = Entries[I];
    Entries.resize(Out);
  }

  std::vector<Entry> Entries;
  GcObserverId NextId = 1;
  unsigned DispatchDepth = 0;
};

} // namespace cgc

#endif // CGC_CORE_GCOBSERVER_H
