//===- tests/TestResilience.cpp - Memory-pressure resilience tests --------===//
//
// Exercises the allocation exhaustion ladder, the fault-injection
// harness, and the deep heap verifier: the collector must degrade
// gracefully (and deterministically) when pages, threads, or mark-stack
// space are taken away from it.
//
//===----------------------------------------------------------------------===//

#include "core/Collector.h"
#include "support/FaultInjection.h"
#include <cstring>
#include <gtest/gtest.h>
#include <vector>

using namespace cgc;

namespace {

/// Disarms every fault site when a test exits, pass or fail, so one
/// test's armed faults never leak into the next.
struct FaultGuard {
  FaultGuard() { FaultInjector::instance().disarmAll(); }
  ~FaultGuard() { FaultInjector::instance().disarmAll(); }
};

GcConfig smallHeapConfig(uint64_t MaxHeapBytes) {
  GcConfig Config;
  Config.MaxHeapBytes = MaxHeapBytes;
  Config.MinHeapBytesBeforeGc = 1 << 20;
  return Config;
}

/// Builds a rooted linked list of \p Count two-slot nodes; slot 0 of
/// each node points at the next.  Window[Root] roots the head.
void buildRootedList(Collector &GC, std::vector<uint64_t> &Window,
                     size_t Count, size_t Root = 0) {
  void *Prev = nullptr;
  for (size_t I = 0; I != Count; ++I) {
    void **Node = static_cast<void **>(GC.allocate(2 * sizeof(void *)));
    ASSERT_NE(Node, nullptr);
    Node[0] = Prev;
    Prev = Node;
  }
  Window[Root] = reinterpret_cast<uint64_t>(Prev);
}

//===----------------------------------------------------------------------===//
// Ladder rungs under injected faults
//===----------------------------------------------------------------------===//

TEST(Resilience, ArenaGrowFaultFallsBackToCollect) {
  if (!FaultInjectionCompiled)
    GTEST_SKIP() << "built without CGC_FAULT_INJECTION";
  FaultGuard Guard;

  GcConfig Config = smallHeapConfig(16 << 20);
  // Make threshold collections impossible so exhaustion reaches the
  // ladder instead of being hidden by collect-before-growth.
  Config.MinHeapBytesBeforeGc = uint64_t(1) << 40;
  Collector GC(Config);

  // Commit an initial working set while growth still works.
  for (int I = 0; I != 64; ++I)
    ASSERT_NE(GC.allocate(1024), nullptr);

  // From here on the arena refuses to grow.  Everything above is
  // garbage (no roots), so ladder collections keep reclaiming it and
  // allocation must keep succeeding without ever growing again.
  FaultInjector::instance().arm(FaultSite::ArenaGrow, 0, UINT64_MAX);
  uint64_t Committed = GC.committedHeapBytes();
  for (int I = 0; I != 4096; ++I)
    ASSERT_NE(GC.allocate(1024), nullptr) << "iteration " << I;
  EXPECT_EQ(GC.committedHeapBytes(), Committed);

  GcResilienceStats Stats = GC.resilienceStats();
  EXPECT_GT(Stats.HeapExhaustedCollections, 0u);
  EXPECT_EQ(Stats.OomEvents, 0u);
  EXPECT_GT(FaultInjector::instance().stats(FaultSite::ArenaGrow).Fired, 0u);
}

TEST(Resilience, PageRunSearchFaultFallsBackToGrow) {
  if (!FaultInjectionCompiled)
    GTEST_SKIP() << "built without CGC_FAULT_INJECTION";
  FaultGuard Guard;

  Collector GC(smallHeapConfig(64 << 20));
  ASSERT_NE(GC.allocate(1024), nullptr);
  uint64_t GrowsBefore = GC.pageStats().GrowEvents;

  // The next free-run search claims nothing fits; the allocator must
  // grow the arena and retry rather than failing the request.
  FaultInjector::instance().arm(FaultSite::PageRunSearch, 0, 1);
  void *Large = GC.allocate(3 * PageSize);
  EXPECT_NE(Large, nullptr);
  EXPECT_GT(GC.pageStats().GrowEvents, GrowsBefore);
  EXPECT_EQ(FaultInjector::instance().stats(FaultSite::PageRunSearch).Fired,
            1u);
}

TEST(Resilience, MarkStackOverflowRecoverySequential) {
  if (!FaultInjectionCompiled)
    GTEST_SKIP() << "built without CGC_FAULT_INJECTION";
  FaultGuard Guard;

  Collector GC(smallHeapConfig(64 << 20));
  std::vector<uint64_t> Window(8, 0);
  GC.addRootRange(Window.data(), Window.data() + Window.size(),
                  RootEncoding::Native64, RootSource::Client, "window");
  buildRootedList(GC, Window, 800);

  CollectionStats Reference = GC.collect("reference");
  ASSERT_GT(Reference.ObjectsMarked, 800u - 1);

  // Every push now drops its work item; the marker must rescan marked
  // objects to a fixpoint and still mark the identical set.
  FaultInjector::instance().arm(FaultSite::MarkStackOverflow, 0, UINT64_MAX);
  CollectionStats Faulted = GC.collect("overflowing");
  EXPECT_GT(Faulted.MarkStackOverflows, 0u);
  EXPECT_EQ(Faulted.ObjectsMarked, Reference.ObjectsMarked);
  EXPECT_EQ(Faulted.BytesMarked, Reference.BytesMarked);

  // The list survived both collections.
  size_t Nodes = 0;
  for (void **Node = reinterpret_cast<void **>(Window[0]); Node;
       Node = static_cast<void **>(Node[0]))
    ++Nodes;
  EXPECT_EQ(Nodes, 800u);
}

TEST(Resilience, MarkStackOverflowRecoveryParallel) {
  if (!FaultInjectionCompiled)
    GTEST_SKIP() << "built without CGC_FAULT_INJECTION";
  FaultGuard Guard;

  // Many independent short rooted lists, so the root scan seeds the mark
  // stack with many items at once and the recovery rescans all of them.
  // (The name dates from when this scenario ran at four mark threads;
  // marking is now sequential.)
  Collector GC(smallHeapConfig(64 << 20));
  std::vector<uint64_t> Window(64, 0);
  GC.addRootRange(Window.data(), Window.data() + Window.size(),
                  RootEncoding::Native64, RootSource::Client, "window");
  for (size_t Root = 0; Root != 32; ++Root)
    buildRootedList(GC, Window, 40, Root);

  CollectionStats Reference = GC.collect("reference");
  ASSERT_GE(Reference.ObjectsMarked, 32u * 40);
  FaultInjector::instance().arm(FaultSite::MarkStackOverflow, 0, UINT64_MAX);
  CollectionStats Faulted = GC.collect("overflowing");
  EXPECT_GT(Faulted.MarkStackOverflows, 0u);
  EXPECT_EQ(Faulted.ObjectsMarked, Reference.ObjectsMarked);
  EXPECT_EQ(Faulted.BytesMarked, Reference.BytesMarked);

  // Every list survived both collections.
  for (size_t Root = 0; Root != 32; ++Root) {
    size_t Nodes = 0;
    for (void **Node = reinterpret_cast<void **>(Window[Root]); Node;
         Node = static_cast<void **>(Node[0]))
      ++Nodes;
    EXPECT_EQ(Nodes, 40u);
  }
}

TEST(Resilience, ArmedInjectorSeesEveryMarkPush) {
  if (!FaultInjectionCompiled)
    GTEST_SKIP() << "built without CGC_FAULT_INJECTION";
  FaultGuard Guard;

  Collector GC(smallHeapConfig(64 << 20));
  std::vector<uint64_t> Window(8, 0);
  GC.addRootRange(Window.data(), Window.data() + Window.size(),
                  RootEncoding::Native64, RootSource::Client, "window");
  buildRootedList(GC, Window, 800);

  // Mark workers evaluate the MarkStackOverflow site only while some
  // site is armed.  Arming an unrelated site that never fires must
  // still make the mark push site count one hit per push: one per
  // marked object, since every node holds pointers.
  FaultInjector::instance().arm(FaultSite::ArenaGrow, UINT64_MAX / 2, 1);
  FaultInjector::instance().resetStats();
  CollectionStats Cycle = GC.collect("armed-elsewhere");
  EXPECT_EQ(Cycle.ObjectsMarked, 800u);
  EXPECT_EQ(Cycle.MarkStackOverflows, 0u);
  FaultSiteStats Push = FaultInjector::instance().stats(
      FaultSite::MarkStackOverflow);
  EXPECT_EQ(Push.Hits, Cycle.ObjectsMarked);
  EXPECT_EQ(Push.Fired, 0u);

  // Disarmed, the site is not evaluated at all.
  FaultInjector::instance().disarmAll();
  FaultInjector::instance().resetStats();
  GC.collect("disarmed");
  EXPECT_EQ(FaultInjector::instance().stats(FaultSite::MarkStackOverflow).Hits,
            0u);
}

//===----------------------------------------------------------------------===//
// OOM handler and warnings
//===----------------------------------------------------------------------===//

alignas(16) unsigned char OomSentinel[256];
size_t OomCalls = 0;
uint64_t OomBytesSeen = 0;

void *sentinelOomHandler(uint64_t Bytes, void *UserData) {
  ++OomCalls;
  OomBytesSeen = Bytes;
  EXPECT_EQ(UserData, &OomCalls);
  return OomSentinel;
}

TEST(Resilience, OomHandlerInvokedOnceAndResultReturnedVerbatim) {
  Collector GC(smallHeapConfig(2 << 20));

  // Uncollectable objects survive every ladder rung, so the arena
  // genuinely fills up.
  std::vector<void *> Kept;
  while (void *P = GC.allocate(4096, ObjectKind::Uncollectable))
    Kept.push_back(P);
  ASSERT_FALSE(Kept.empty());

  GcResilienceStats Stats = GC.resilienceStats();
  EXPECT_GE(Stats.OomEvents, 1u);
  EXPECT_EQ(Stats.OomHandlerInvocations, 0u)
      << "no handler installed during the fill";
  EXPECT_GE(Stats.EmergencyCollections, 1u);

  // With a handler installed, its result comes back verbatim — the
  // collector must not zero or otherwise touch handler-provided memory.
  OomCalls = 0;
  std::memset(OomSentinel, 0xab, sizeof(OomSentinel));
  GC.setOomHandler(sentinelOomHandler, &OomCalls);
  void *P = GC.allocate(4096, ObjectKind::Uncollectable);
  EXPECT_EQ(P, static_cast<void *>(OomSentinel));
  EXPECT_EQ(OomCalls, 1u);
  EXPECT_EQ(OomBytesSeen, 4096u);
  EXPECT_EQ(OomSentinel[0], 0xab) << "handler result returned untouched";
  EXPECT_EQ(GC.resilienceStats().OomHandlerInvocations, 1u);

  // Releasing the heap ends the pressure: allocation succeeds again
  // without consulting the handler.
  GC.setOomHandler(nullptr);
  for (void *Ptr : Kept)
    GC.deallocate(Ptr);
  EXPECT_NE(GC.allocate(4096, ObjectKind::Uncollectable), nullptr);
  EXPECT_EQ(OomCalls, 1u);
}

TEST(Resilience, EmergencyCollectionRelaxesInteriorPolicy) {
  GcConfig Config = smallHeapConfig(1 << 20);
  Config.Interior = InteriorPolicy::All;
  Collector GC(Config);

  std::vector<uint64_t> Window(4, 0);
  GC.addRootRange(Window.data(), Window.data() + Window.size(),
                  RootEncoding::Native64, RootSource::Client, "window");

  // A is retained only through a pointer deep inside it (page 2).
  // Interior::All keeps it live; the emergency rung's relaxation to
  // FirstPage does not, freeing the pages the second request needs.
  constexpr size_t LargeBytes = 600 << 10;
  void *A = GC.allocate(LargeBytes);
  ASSERT_NE(A, nullptr);
  uint64_t OffsetA = GC.windowOffsetOf(A);
  Window[0] = reinterpret_cast<uint64_t>(static_cast<char *>(A) + PageSize);

  void *B = GC.allocate(LargeBytes);
  EXPECT_NE(B, nullptr) << "emergency collection should reclaim A";
  EXPECT_TRUE(GC.isAllocated(B));
  // Address-ordered first fit hands B the run A occupied: proof that A
  // was reclaimed rather than the arena growing.
  EXPECT_EQ(GC.windowOffsetOf(B), OffsetA);
  GcResilienceStats Stats = GC.resilienceStats();
  EXPECT_GE(Stats.EmergencyCollections, 1u);
  EXPECT_EQ(Stats.OomEvents, 0u);
  EXPECT_EQ(GC.config().Interior, InteriorPolicy::All)
      << "the relaxed policy must be restored after the emergency cycle";
}

size_t WarnProcCalls = 0;

void countingWarnProc(const char *Message, uint64_t, void *UserData) {
  ++WarnProcCalls;
  EXPECT_NE(Message, nullptr);
  EXPECT_EQ(UserData, &WarnProcCalls);
}

TEST(Resilience, NoProgressWarningsArePowerOfTwoRateLimited) {
  Collector GC(smallHeapConfig(1 << 20));
  WarnProcCalls = 0;
  GC.setWarnProc(countingWarnProc, &WarnProcCalls);

  // Pin the whole heap, then fail eight allocations.  Each failure runs
  // two no-progress ladder collections (heap-exhausted + emergency), so
  // the no-progress event fires 16 times; the exponential backoff lets
  // occurrences 1, 2, 4, 8, 16 through.
  std::vector<void *> Kept;
  while (void *P = GC.allocate(4096, ObjectKind::Uncollectable))
    Kept.push_back(P);
  for (int I = 0; I != 7; ++I)
    EXPECT_EQ(GC.allocate(4096, ObjectKind::Uncollectable), nullptr);

  GcResilienceStats Stats = GC.resilienceStats();
  EXPECT_EQ(Stats.NoProgressCollections, 16u);
  EXPECT_EQ(Stats.WarningsIssued, 5u);
  EXPECT_EQ(Stats.WarningsSuppressed, 11u);
  EXPECT_EQ(WarnProcCalls, 5u);
  for (void *Ptr : Kept)
    GC.deallocate(Ptr);
}

//===----------------------------------------------------------------------===//
// Deep heap verifier
//===----------------------------------------------------------------------===//

TEST(Resilience, VerifierReportsCleanHeap) {
  Collector GC(smallHeapConfig(16 << 20));
  for (int I = 0; I != 200; ++I)
    ASSERT_NE(GC.allocate(48), nullptr);
  GC.collect("settle");
  HeapVerifyReport Report = GC.verifyHeapReport();
  EXPECT_TRUE(Report.clean()) << Report.str();
}

TEST(Resilience, VerifierCatchesCorruptedBlockHeader) {
  Collector GC(smallHeapConfig(16 << 20));
  std::vector<void *> Kept;
  for (int I = 0; I != 64; ++I) {
    void *P = GC.allocate(48, ObjectKind::Uncollectable);
    ASSERT_NE(P, nullptr);
    Kept.push_back(P);
  }

  // Corrupt one block's allocation count, as a stray write would.
  BlockDescriptor *Victim = nullptr;
  GC.objectHeap().blockTable().forEach([&](BlockId, BlockDescriptor &Block) {
    if (!Victim && Block.AllocatedCount > 0)
      Victim = &Block;
  });
  ASSERT_NE(Victim, nullptr);
  uint32_t Saved = Victim->AllocatedCount;
  Victim->AllocatedCount = Victim->ObjectCount + 7;

  HeapVerifyReport Report = GC.verifyHeapReport();
  EXPECT_FALSE(Report.clean())
      << "a corrupted header must produce a diagnostic, not a crash";
  EXPECT_FALSE(Report.str().empty());

  // Restored, the heap verifies clean again.
  Victim->AllocatedCount = Saved;
  EXPECT_TRUE(GC.verifyHeapReport().clean());
  for (void *Ptr : Kept)
    GC.deallocate(Ptr);
}

TEST(Resilience, RepairRederivesStaleSlotReciprocal) {
  Collector GC(smallHeapConfig(16 << 20));
  std::vector<void *> Kept;
  for (int I = 0; I != 64; ++I) {
    void *P = GC.allocate(48, ObjectKind::Uncollectable);
    ASSERT_NE(P, nullptr);
    Kept.push_back(P);
  }
  BlockDescriptor *Victim = nullptr;
  GC.objectHeap().blockTable().forEach([&](BlockId, BlockDescriptor &Block) {
    if (!Victim && Block.ObjectCount > 1 && Block.AllocatedCount > 0)
      Victim = &Block;
  });
  ASSERT_NE(Victim, nullptr);
  uint64_t Good = Victim->SlotReciprocal;
  Victim->SlotReciprocal = Good ^ 0x100; // The mark loop would misplace slots.

  HeapVerifyReport Report = GC.verifyAndRepair();
  ASSERT_FALSE(Report.clean());
  bool SawMismatch = false;
  for (const VerifyFinding &F : Report.Findings)
    SawMismatch |= F.Kind == VerifyFindingKind::CounterMismatch &&
                   F.Outcome == VerifyRepairOutcome::Repaired;
  EXPECT_TRUE(SawMismatch) << Report.str();
  EXPECT_EQ(Victim->SlotReciprocal, Good)
      << "repair re-derives the reciprocal from the slot size";
  EXPECT_TRUE(GC.verifyHeapReport().clean());
  for (void *Ptr : Kept)
    GC.deallocate(Ptr);
}

TEST(Resilience, VerifyEveryCollectionRunsAfterEachPhase) {
  struct VerifyCounter final : GcObserver {
    size_t Calls = 0;
    bool AllClean = true;
    void onHeapVerified(bool Clean, size_t) override {
      ++Calls;
      AllClean = AllClean && Clean;
    }
  };

  GcConfig Config = smallHeapConfig(16 << 20);
  Config.VerifyEveryCollection = true;
  Collector GC(Config);
  for (int I = 0; I != 100; ++I)
    ASSERT_NE(GC.allocate(64), nullptr);

  VerifyCounter Counter;
  GcObserverId Id = GC.addObserver(&Counter);
  GC.collect("verified");
  GC.removeObserver(Id);

  EXPECT_EQ(Counter.Calls, static_cast<size_t>(NumGcPhases))
      << "one verification per pipeline phase";
  EXPECT_TRUE(Counter.AllClean);
}

//===----------------------------------------------------------------------===//
// Callback re-entrancy (the redirect layer's contract, DESIGN.md §12):
// a callback that allocates must neither deadlock nor have its objects
// swept by the in-flight cycle, and a callback that collects is
// refused gracefully.
//===----------------------------------------------------------------------===//

TEST(Resilience, CallbacksMayAllocateDuringCollection) {
  struct AllocatingObserver final : GcObserver {
    Collector *GC = nullptr;
    std::vector<char *> FromBegin;
    std::vector<char *> FromEnd;

    static void fill(char *Ptr, char Tag) {
      for (int I = 0; I != 128; ++I)
        Ptr[I] = static_cast<char>(Tag + I);
    }
    void onCollectionBegin(uint64_t, const char *) override {
      for (int I = 0; I != 8; ++I) {
        auto *Ptr = static_cast<char *>(GC->allocate(128));
        ASSERT_NE(Ptr, nullptr);
        fill(Ptr, 'b');
        FromBegin.push_back(Ptr);
      }
    }
    void onCollectionEnd(uint64_t, const CollectionStats &) override {
      for (int I = 0; I != 8; ++I) {
        auto *Ptr = static_cast<char *>(GC->allocate(128));
        ASSERT_NE(Ptr, nullptr);
        fill(Ptr, 'e');
        FromEnd.push_back(Ptr);
      }
    }
  };

  Collector GC(smallHeapConfig(16 << 20));
  AllocatingObserver Observer;
  Observer.GC = &GC;
  // The first allocation runs the startup collection; attach the
  // observer after it so exactly one cycle reaches the callbacks.
  for (int I = 0; I != 200; ++I)
    ASSERT_NE(GC.allocate(64), nullptr);
  GcObserverId Id = GC.addObserver(&Observer);
  GC.collect("reentrancy");
  GC.removeObserver(Id);

  ASSERT_EQ(Observer.FromBegin.size(), 8u);
  ASSERT_EQ(Observer.FromEnd.size(), 8u);

  // Mid-collection allocations were pinned for the in-flight cycle:
  // the sweep must not have reclaimed them.  Churn some allocation to
  // surface any slot reuse, then verify every byte.
  for (int I = 0; I != 200; ++I)
    ASSERT_NE(GC.allocate(128), nullptr);
  for (char *Ptr : Observer.FromBegin)
    for (int I = 0; I != 128; ++I)
      ASSERT_EQ(Ptr[I], static_cast<char>('b' + I));
  for (char *Ptr : Observer.FromEnd)
    for (int I = 0; I != 128; ++I)
      ASSERT_EQ(Ptr[I], static_cast<char>('e' + I));
  EXPECT_EQ(GC.verifyHeapReport().Findings.size(), 0u);
}

TEST(Resilience, BeginObserverAllocationStormSurvivesTheSweep) {
  // More begin-callback allocations than the mid-cycle pin list's
  // pre-reserved capacity (Collector::MidCyclePinReserve): the list
  // must grow past the reservation — legal here, no mutator is
  // signal-suspended — and every pin must still be re-pinned after
  // Mark's bit reset so the sweep keeps all of them.
  struct StormObserver final : GcObserver {
    Collector *GC = nullptr;
    std::vector<char *> Storm;
    void onCollectionBegin(uint64_t, const char *) override {
      if (!Storm.empty())
        return; // only the first observed cycle storms
      for (int I = 0; I != 2000; ++I) {
        auto *Ptr = static_cast<char *>(GC->allocate(32));
        ASSERT_NE(Ptr, nullptr);
        std::memset(Ptr, I & 0xff, 32);
        Storm.push_back(Ptr);
      }
    }
  };

  Collector GC(smallHeapConfig(16 << 20));
  StormObserver Observer;
  Observer.GC = &GC;
  for (int I = 0; I != 200; ++I)
    ASSERT_NE(GC.allocate(64), nullptr);
  GcObserverId Id = GC.addObserver(&Observer);
  GC.collect("pin-storm");
  GC.removeObserver(Id);
  ASSERT_EQ(Observer.Storm.size(), 2000u);

  // Churn to surface any reclaimed-and-reused slot, then verify.
  for (int I = 0; I != 500; ++I)
    ASSERT_NE(GC.allocate(32), nullptr);
  for (size_t N = 0; N != Observer.Storm.size(); ++N)
    for (int I = 0; I != 32; ++I)
      ASSERT_EQ(Observer.Storm[N][I],
                static_cast<char>(N & 0xff))
          << "storm object " << N << " byte " << I;
  EXPECT_EQ(GC.verifyHeapReport().Findings.size(), 0u);
}

TEST(Resilience, WarnProcMayAllocateAndFree) {
  // Warnings fire with the heap lock held (it is recursive for exactly
  // this reason): a warn proc that calls back into the collector must
  // not self-deadlock.
  struct WarnState {
    Collector *GC = nullptr;
    unsigned Calls = 0;
  };
  Collector GC(smallHeapConfig(16 << 20));
  WarnState State;
  State.GC = &GC;
  GC.setWarnProc(
      [](const char *, uint64_t, void *Data) {
        auto *State = static_cast<WarnState *>(Data);
        ++State->Calls;
        void *Ptr = State->GC->allocate(96);
        EXPECT_NE(Ptr, nullptr);
        State->GC->deallocate(Ptr);
      },
      &State);

  // A bad free warns from inside deallocate (heap lock held).
  int Local = 0;
  GC.deallocate(&Local);
  EXPECT_GE(State.Calls, 1u);
  EXPECT_EQ(GC.verifyHeapReport().Findings.size(), 0u);
}

TEST(Resilience, ReentrantCollectIsRefusedGracefully) {
  struct CollectingObserver final : GcObserver {
    Collector *GC = nullptr;
    unsigned Attempts = 0;
    uint64_t NestedBytesLive = ~uint64_t(0);
    void onCollectionEnd(uint64_t, const CollectionStats &) override {
      if (Attempts++)
        return;
      // Both entry points must refuse instead of deadlocking or
      // corrupting the in-flight cycle; the refusal returns empty
      // stats.
      CollectionStats Nested = GC->collect("nested");
      NestedBytesLive = Nested.BytesLive;
      CollectionStats Measured = GC->measureLiveness();
      EXPECT_EQ(Measured.ObjectsMarked, 0u);
    }
  };
  struct WarnCount {
    unsigned Reentrant = 0;
  };

  Collector GC(smallHeapConfig(16 << 20));
  WarnCount Warns;
  GC.setWarnProc(
      [](const char *Message, uint64_t, void *Data) {
        if (std::strstr(Message, "re-entrant"))
          ++static_cast<WarnCount *>(Data)->Reentrant;
      },
      &Warns);

  CollectingObserver Observer;
  Observer.GC = &GC;
  GcObserverId Id = GC.addObserver(&Observer);
  for (int I = 0; I != 100; ++I)
    ASSERT_NE(GC.allocate(64), nullptr);
  uint64_t Before = GC.lifetimeStats().Collections;
  GC.collect("outer");
  GC.removeObserver(Id);

  EXPECT_EQ(Observer.NestedBytesLive, 0u) << "refusal returns empty stats";
  EXPECT_EQ(Warns.Reentrant, 2u) << "one warning per refused entry point";
  EXPECT_EQ(GC.lifetimeStats().Collections, Before + 1)
      << "only the outer collection ran";

  // The collector is fully functional afterwards.
  EXPECT_NE(GC.allocate(64), nullptr);
  GC.collect("after");
  EXPECT_EQ(GC.verifyHeapReport().Findings.size(), 0u);
}

} // namespace
