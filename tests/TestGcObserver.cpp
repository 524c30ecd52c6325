//===- tests/TestGcObserver.cpp - GC event/observability layer ------------===//
//
// Every collection must emit the fixed event sequence
//
//   onCollectionBegin
//     { onPhaseBegin, onPhaseEnd } per phase, in GcPhase order
//   onCollectionEnd
//
// with no interleaving between consecutive collections — including
// collections triggered from inside allocation — and observer
// (un)registration must be safe from inside a callback.
//
//===----------------------------------------------------------------------===//

#include "capi/cgc.h"
#include "core/Collector.h"
#include <algorithm>
#include <gtest/gtest.h>
#include <string>
#include <vector>

using namespace cgc;

namespace {

GcConfig observerConfig() {
  GcConfig Config;
  Config.WindowBytes = uint64_t(256) << 20;
  Config.Placement = HeapPlacement::Custom;
  Config.CustomHeapBaseOffset = 16 << 20;
  Config.MaxHeapBytes = 32 << 20;
  Config.GcAtStartup = false;
  Config.MinHeapBytesBeforeGc = ~uint64_t(0);
  return Config;
}

/// One recorded event.  Kind: 'B'/'E' collection begin/end, 'b'/'e'
/// phase begin/end, 'r' object retained.
struct Event {
  char Kind;
  uint64_t Collection; // For B/E.
  GcPhase Phase;       // For b/e.

  bool operator==(const Event &O) const {
    return Kind == O.Kind && Collection == O.Collection && Phase == O.Phase;
  }
};

class RecordingObserver : public GcObserver {
public:
  void onCollectionBegin(uint64_t Index, const char *) override {
    Events.push_back({'B', Index, GcPhase::RootScan});
  }
  void onCollectionEnd(uint64_t Index, const CollectionStats &) override {
    Events.push_back({'E', Index, GcPhase::RootScan});
  }
  void onPhaseBegin(GcPhase Phase) override {
    Events.push_back({'b', 0, Phase});
  }
  void onPhaseEnd(GcPhase Phase, uint64_t Nanos,
                  const CollectionStats &SoFar) override {
    Events.push_back({'e', 0, Phase});
    LastPhaseNanos[static_cast<unsigned>(Phase)] = Nanos;
    LastSoFar = SoFar;
  }

  /// Asserts Events is exactly N back-to-back well-formed collection
  /// sequences: B, (b e) x NumGcPhases in phase order, E — nothing
  /// interleaved, nothing missing.
  void expectWellFormedCollections(size_t N) const {
    ASSERT_EQ(Events.size(), N * (2 + 2 * NumGcPhases));
    size_t I = 0;
    for (size_t C = 0; C != N; ++C) {
      EXPECT_EQ(Events[I].Kind, 'B');
      uint64_t Index = Events[I].Collection;
      ++I;
      for (unsigned P = 0; P != NumGcPhases; ++P) {
        EXPECT_EQ(Events[I].Kind, 'b');
        EXPECT_EQ(Events[I].Phase, static_cast<GcPhase>(P));
        ++I;
        EXPECT_EQ(Events[I].Kind, 'e');
        EXPECT_EQ(Events[I].Phase, static_cast<GcPhase>(P));
        ++I;
      }
      EXPECT_EQ(Events[I].Kind, 'E');
      EXPECT_EQ(Events[I].Collection, Index)
          << "collection end index matches its begin";
      ++I;
    }
  }

  std::vector<Event> Events;
  uint64_t LastPhaseNanos[NumGcPhases] = {};
  CollectionStats LastSoFar;
};

} // namespace

TEST(GcObserver, EventsFireInPipelineOrder) {
  Collector GC(observerConfig());
  RecordingObserver Observer;
  GC.addObserver(&Observer);
  (void)GC.allocate(64);
  CollectionStats Cycle = GC.collect("observer-order");
  Observer.expectWellFormedCollections(1);
  // The timing sink is itself an observer consumer of phase-end events:
  // the cycle's recorded phase timings are exactly the nanos delivered
  // to every other observer.
  for (unsigned P = 0; P != NumGcPhases; ++P)
    EXPECT_EQ(Cycle.PhaseNanos[P], Observer.LastPhaseNanos[P]);
  // The final phase-end snapshot carries the marking results.
  EXPECT_EQ(Observer.LastSoFar.ObjectsMarked, Cycle.ObjectsMarked);
}

TEST(GcObserver, EveryCollectionEmitsEveryPhase) {
  // Allocation-triggered collections (threshold policy) emit exactly
  // the same sequence as explicit ones, back to back, never nested or
  // interleaved.
  GcConfig Config = observerConfig();
  Config.MinHeapBytesBeforeGc = 256 << 10; // Collect every 256 KB.
  Collector GC(Config);
  RecordingObserver Observer;
  GC.addObserver(&Observer);
  // Allocate ~8 MB of garbage so allocation triggers several cycles.
  for (int I = 0; I != 8192; ++I)
    (void)GC.allocate(1024);
  (void)GC.collect("final");
  uint64_t Collections = GC.lifetimeStats().Collections;
  ASSERT_GE(Collections, 3u) << "workload should trigger collections";
  Observer.expectWellFormedCollections(Collections);
  // Collection indices are consecutive.
  uint64_t Expected = 0;
  for (const Event &E : Observer.Events)
    if (E.Kind == 'B') {
      EXPECT_EQ(E.Collection, Expected++);
    }
}

TEST(GcObserver, UnregisterInsideCallbackIsSafe) {
  Collector GC(observerConfig());

  // Removes itself the first time it sees the Mark phase begin.
  class SelfRemover : public GcObserver {
  public:
    Collector *GC = nullptr;
    GcObserverId Id = 0;
    unsigned EventsAfterRemoval = 0;
    bool Removed = false;
    void onPhaseBegin(GcPhase Phase) override {
      if (Removed) {
        ++EventsAfterRemoval;
        return;
      }
      if (Phase == GcPhase::Mark) {
        EXPECT_TRUE(GC->removeObserver(Id));
        Removed = true;
      }
    }
    void onPhaseEnd(GcPhase, uint64_t, const CollectionStats &) override {
      if (Removed)
        ++EventsAfterRemoval;
    }
  };

  SelfRemover Remover;
  Remover.GC = &GC;
  Remover.Id = GC.addObserver(&Remover);
  RecordingObserver Witness;
  GC.addObserver(&Witness);
  (void)GC.allocate(64);
  (void)GC.collect("self-remove");
  EXPECT_EQ(Remover.EventsAfterRemoval, 0u)
      << "no events delivered after self-removal";
  // The observer registered after the remover still sees the full
  // sequence of both collections.
  (void)GC.collect("after");
  Witness.expectWellFormedCollections(2);
}

TEST(GcObserver, RemovingAnotherObserverMidDispatchIsSafe) {
  Collector GC(observerConfig());

  RecordingObserver Victim;
  class Assassin : public GcObserver {
  public:
    Collector *GC = nullptr;
    GcObserverId VictimId = 0;
    void onPhaseBegin(GcPhase Phase) override {
      if (Phase == GcPhase::Sweep && VictimId) {
        EXPECT_TRUE(GC->removeObserver(VictimId));
        VictimId = 0;
      }
    }
  };

  // Registration order: assassin first, so the victim's slot is
  // tombstoned before the same event reaches it.
  Assassin Killer;
  Killer.GC = &GC;
  GC.addObserver(&Killer);
  Killer.VictimId = GC.addObserver(&Victim);
  (void)GC.allocate(64);
  (void)GC.collect("assassinate");
  // The victim saw everything up to (not including) Sweep begin.
  ASSERT_FALSE(Victim.Events.empty());
  for (const Event &E : Victim.Events)
    EXPECT_FALSE(E.Kind == 'b' && E.Phase == GcPhase::Sweep);
  EXPECT_EQ(Victim.Events.back().Kind, 'e');
  EXPECT_EQ(Victim.Events.back().Phase, GcPhase::BlacklistPromote);
}

TEST(GcObserver, RetainedObjectEventsEnumerateSurvivors) {
  Collector GC(observerConfig());

  class Census : public GcObserver {
  public:
    bool wantsRetainedObjects() const override { return true; }
    void onObjectRetained(void *Ptr, size_t Bytes, ObjectKind Kind) override {
      Survivors.emplace_back(Ptr, Bytes);
      EXPECT_EQ(Kind, ObjectKind::Normal);
    }
    std::vector<std::pair<void *, size_t>> Survivors;
  };

  struct Node {
    Node *Next;
    uint64_t Payload;
  };
  auto *Live = static_cast<Node *>(GC.allocate(sizeof(Node)));
  Live->Next = static_cast<Node *>(GC.allocate(sizeof(Node)));
  (void)GC.allocate(sizeof(Node)); // Garbage.
  uint64_t Root = reinterpret_cast<uint64_t>(Live);
  GC.addRootRange(&Root, &Root + 1, RootEncoding::Native64,
                  RootSource::Client, "root");

  Census Counter;
  GC.addObserver(&Counter);
  CollectionStats Cycle = GC.collect("census");
  EXPECT_EQ(Cycle.ObjectsLive, 2u);
  ASSERT_EQ(Counter.Survivors.size(), 2u);
  for (auto &[Ptr, Bytes] : Counter.Survivors) {
    EXPECT_TRUE(Ptr == Live || Ptr == Live->Next);
    EXPECT_EQ(Bytes, GC.objectSizeOf(Ptr));
  }
}

// Under DebugGuards a survivor is reported the way allocate() handed it
// out: the user pointer past the debug header and the requested size.
TEST(GcObserver, RetainedObjectsReportClientPointersUnderGuards) {
  GcConfig Config = observerConfig();
  Config.DebugGuards = true;
  Collector GC(Config);

  class Census : public GcObserver {
  public:
    bool wantsRetainedObjects() const override { return true; }
    void onObjectRetained(void *Ptr, size_t Bytes, ObjectKind) override {
      Survivors.emplace_back(Ptr, Bytes);
    }
    std::vector<std::pair<void *, size_t>> Survivors;
  };

  void *Live = GC.allocate(40);
  (void)GC.allocate(40); // Garbage.
  uint64_t Root = reinterpret_cast<uint64_t>(Live);
  GC.addRootRange(&Root, &Root + 1, RootEncoding::Native64,
                  RootSource::Client, "root");
  Census Counter;
  GC.addObserver(&Counter);
  GC.collect("census");
  ASSERT_EQ(Counter.Survivors.size(), 1u);
  EXPECT_EQ(Counter.Survivors[0].first, Live);
  EXPECT_EQ(Counter.Survivors[0].second, 40u);
  EXPECT_EQ(Counter.Survivors[0].second, GC.objectSizeOf(Live));
}

TEST(GcObserver, CApiObserverBridge) {
  cgc_config Config;
  cgc_config_init(&Config);
  Config.gc_at_startup = 0;
  cgc_collector *GC = cgc_create(&Config);

  struct Capture {
    std::vector<int> Events;
    std::vector<int> Phases;
  } Log;
  unsigned Handle = cgc_add_gc_observer(
      GC,
      [](int Event, int Phase, unsigned long long, void *ClientData) {
        auto *L = static_cast<Capture *>(ClientData);
        L->Events.push_back(Event);
        L->Phases.push_back(Phase);
      },
      &Log);
  ASSERT_NE(Handle, 0u);

  (void)cgc_malloc(GC, 64);
  (void)cgc_gcollect(GC);
  ASSERT_EQ(Log.Events.size(), 2 + 2 * NumGcPhases);
  EXPECT_EQ(Log.Events.front(), CGC_EVENT_COLLECTION_BEGIN);
  EXPECT_EQ(Log.Phases.front(), -1);
  EXPECT_EQ(Log.Events.back(), CGC_EVENT_COLLECTION_END);
  // Phases arrive in declared order, begin/end paired.
  for (unsigned P = 0; P != NumGcPhases; ++P) {
    EXPECT_EQ(Log.Events[1 + 2 * P], CGC_EVENT_PHASE_BEGIN);
    EXPECT_EQ(Log.Phases[1 + 2 * P], int(P));
    EXPECT_EQ(Log.Events[2 + 2 * P], CGC_EVENT_PHASE_END);
    EXPECT_EQ(Log.Phases[2 + 2 * P], int(P));
  }

  EXPECT_EQ(cgc_remove_gc_observer(GC, Handle), 1);
  EXPECT_EQ(cgc_remove_gc_observer(GC, Handle), 0) << "double remove";
  size_t EventsBefore = Log.Events.size();
  (void)cgc_gcollect(GC);
  EXPECT_EQ(Log.Events.size(), EventsBefore)
      << "removed observer receives nothing";
  cgc_destroy(GC);
}

namespace {

/// One event as the crash ring and the observers both see it.
struct Seen {
  GcEventKind Kind;
  uint64_t Collection;
  bool operator==(const Seen &O) const = default;
};

/// Records every observer event of a kind the crash ring also records,
/// tagged the way the ring tags it: with the index of the latest
/// collection to begin.
class RingMirror final : public GcObserver {
public:
  void onCollectionBegin(uint64_t Index, const char *) override {
    Current = Index;
    add(GcEventKind::CollectionBegin);
  }
  void onCollectionEnd(uint64_t Index, const CollectionStats &) override {
    EXPECT_EQ(Index, Current);
    add(GcEventKind::CollectionEnd);
  }
  void onPhaseBegin(GcPhase) override { add(GcEventKind::PhaseBegin); }
  void onPhaseEnd(GcPhase, uint64_t, const CollectionStats &) override {
    add(GcEventKind::PhaseEnd);
  }
  void onEmergencyCollection(uint64_t) override {
    add(GcEventKind::EmergencyCollection);
  }
  void onOutOfMemory(uint64_t, bool) override {
    add(GcEventKind::OutOfMemory);
  }
  void onWarning(const char *, uint64_t) override {
    add(GcEventKind::Warning);
  }
  void onHeapVerified(bool, size_t) override {
    add(GcEventKind::HeapVerified);
  }
  void onIncident(const GcIncident &) override {
    add(GcEventKind::Incident);
  }

  std::vector<Seen> Log;

private:
  void add(GcEventKind Kind) { Log.push_back({Kind, Current}); }
  uint64_t Current = 0;
};

/// Copies the ring's records pushed since the last drain.
struct RingLog {
  void drain(const Collector &GC) {
    const EventRing &Ring = GC.crashState().Events;
    uint64_t Pushed = Ring.pushed();
    ASSERT_LE(Pushed - Drained, EventRing::Capacity)
        << "the ring wrapped between drains";
    GcEventRecord Records[EventRing::Capacity];
    unsigned Count =
        Ring.snapshot(Records, static_cast<unsigned>(Pushed - Drained));
    for (unsigned I = 0; I != Count; ++I)
      Log.push_back({Records[I].kind(), Records[I].collectionIndex()});
    Drained = Pushed;
  }

  std::vector<Seen> Log;
  uint64_t Drained = 0;
};

} // namespace

TEST(GcObserver, RingAndObserversRecordTheSameEvents) {
  // Every event reaches the crash ring and the observers through one
  // emit path, so the two streams agree event for event.
  void *Roots[64] = {};
  GcConfig Config = observerConfig();
  Config.MaxHeapBytes = 4 << 20;
  Config.VerifyEveryCollection = true;
  Collector GC(Config);
  GC.addRootRange(Roots, Roots + 64, RootEncoding::Native64,
                  RootSource::Client, "roots");
  RingMirror Observer;
  GC.addObserver(&Observer);
  RingLog Ring;

  Roots[0] = GC.allocate(64);
  (void)GC.collect("first");
  Ring.drain(GC);
  // A client incident, then its warning.
  int NotHeap = 0;
  GC.deallocate(&NotHeap);
  Ring.drain(GC);
  // Rooted large objects fill the heap until the ladder gives up: a
  // heap-exhausted collection, an emergency collection, the warnings
  // that neither reclaimed anything, and an OOM.
  size_t I = 1;
  for (; I != 64; ++I) {
    Roots[I] = GC.allocate(256 << 10);
    Ring.drain(GC);
    if (!Roots[I])
      break;
  }
  ASSERT_LT(I, 64u) << "the heap never ran out";

  for (GcEventKind Kind :
       {GcEventKind::CollectionBegin, GcEventKind::PhaseBegin,
        GcEventKind::PhaseEnd, GcEventKind::CollectionEnd,
        GcEventKind::EmergencyCollection, GcEventKind::OutOfMemory,
        GcEventKind::Warning, GcEventKind::HeapVerified,
        GcEventKind::Incident})
    EXPECT_TRUE(std::any_of(Ring.Log.begin(), Ring.Log.end(),
                            [&](const Seen &S) { return S.Kind == Kind; }))
        << "the run produced no " << gcEventKindName(Kind) << " event";
  EXPECT_EQ(Ring.Log, Observer.Log);
}
