//===- tests/TestInvariants.cpp - Heap verifier and fuzzing ---------------===//
//
// Randomized workloads with the full heap verifier run at checkpoints:
// allocation of every kind and size, explicit frees, collections, typed
// layouts, and planted false references all interleaved.
//
//===----------------------------------------------------------------------===//

#include "core/Collector.h"
#include "structures/FalseRef.h"
#include "support/FaultInjection.h"
#include "support/Random.h"
#include <algorithm>
#include <gtest/gtest.h>
#include <thread>

using namespace cgc;

namespace {

GcConfig fuzzConfig(bool VerifyEvery = false, bool Guarded = false) {
  GcConfig Config;
  Config.MaxHeapBytes = 64 << 20;
  Config.GcAtStartup = true;
  Config.MinHeapBytesBeforeGc = 1 << 20;
  Config.CollectBeforeGrowthRatio = 0.5;
  Config.VerifyEveryCollection = VerifyEvery;
  Config.DebugGuards = Guarded;
  return Config;
}

void fuzzOnce(uint64_t Seed, bool VerifyEvery = false,
              bool Guarded = false) {
  Collector GC(fuzzConfig(VerifyEvery, Guarded));
  Rng R(Seed);
  LayoutId Layout = GC.registerObjectLayout(
      {true, false, true, false}, 4 * sizeof(uint64_t));

  // A rooted window of live objects plus an explicit-management pool.
  std::vector<uint64_t> Window(512, 0);
  GC.addRootRange(Window.data(), Window.data() + Window.size(),
                  RootEncoding::Native64, RootSource::Client, "window");
  std::vector<void *> Explicit;
  PlantedRef Stray(GC);

  for (int Step = 0; Step != 6000; ++Step) {
    switch (R.pickIndex(10)) {
    case 0:
    case 1:
    case 2: { // Rooted allocation.
      size_t Slot = R.pickIndex(Window.size());
      Window[Slot] = reinterpret_cast<uint64_t>(
          GC.allocate(R.nextInRange(8, 512)));
      break;
    }
    case 3: // Garbage allocation.
      GC.allocate(R.nextInRange(8, 3000));
      break;
    case 4: // Pointer-free allocation.
      GC.allocate(R.nextInRange(8, 256), ObjectKind::PointerFree);
      break;
    case 5: { // Typed allocation, linked into the window.
      auto *T = static_cast<uint64_t *>(GC.allocateTyped(Layout));
      T[0] = Window[R.pickIndex(Window.size())];
      Window[R.pickIndex(Window.size())] =
          reinterpret_cast<uint64_t>(T);
      break;
    }
    case 6: { // Explicit-management pool.
      if (Explicit.size() < 64 && R.nextBool(0.6)) {
        Explicit.push_back(GC.allocate(R.nextInRange(8, 128),
                                       ObjectKind::Uncollectable));
      } else if (!Explicit.empty()) {
        size_t Pick = R.pickIndex(Explicit.size());
        GC.deallocate(Explicit[Pick]);
        Explicit.erase(Explicit.begin() +
                       static_cast<ptrdiff_t>(Pick));
      }
      break;
    }
    case 7: // Drop some roots.
      Window[R.pickIndex(Window.size())] = 0;
      break;
    case 8: // Occasionally plant/clear a stray interior reference.
      if (R.nextBool(0.5)) {
        uint64_t Anchor = Window[R.pickIndex(Window.size())];
        if (Anchor)
          Stray.setPointer(reinterpret_cast<char *>(Anchor) +
                           R.nextBelow(64));
      } else {
        Stray.clear();
      }
      break;
    case 9: // Explicit collection.
      if (R.nextBool(0.2))
        GC.collect("fuzz");
      break;
    }
    if (Step % 1000 == 999)
      GC.verifyHeap();
  }
  GC.collect("final");
  GC.verifyHeap();
  for (void *P : Explicit)
    GC.deallocate(P);
  Stray.clear();
  for (uint64_t &Slot : Window)
    Slot = 0;
  GC.collect("drain");
  GC.verifyHeap();
  EXPECT_EQ(GC.allocatedBytes(), 0u)
      << "everything must drain once all roots are gone";
}

} // namespace

// Every seed runs the collector's one sweep (eager) and one block order
// (address-ordered).  The Lazy and Lifo test names record what their
// seeds ran under before the lazy sweep and the LIFO order were
// deleted; they are kept so test ids stay stable.
TEST(HeapInvariants, FuzzEagerAddressOrdered) { fuzzOnce(101); }
TEST(HeapInvariants, FuzzEagerLifo) { fuzzOnce(202); }
TEST(HeapInvariants, FuzzLazyAddressOrdered) { fuzzOnce(303); }
TEST(HeapInvariants, FuzzLazyLifo) { fuzzOnce(404); }
// The deep verifier lane: the same fuzz loop with
// GcConfig::VerifyEveryCollection on, so every phase of every
// collection re-verifies block table, page map, free lists, mark bits,
// and blacklist — failures abort at the phase that corrupted the heap.
TEST(HeapInvariants, FuzzEagerVerifyEveryCollection) {
  fuzzOnce(505, /*VerifyEvery=*/true);
}
TEST(HeapInvariants, FuzzLazyVerifyEveryCollection) {
  fuzzOnce(606, /*VerifyEvery=*/true);
}
// Guarded-heap lanes: the identical workloads under DebugGuards, so
// every explicit free climbs the validation ladder, every freed object
// rides through the quarantine, and every sweep and verifyHeap
// checkpoint re-checks headers and redzones.  A clean run proves the
// guard machinery itself never trips on a correct program.
TEST(HeapInvariants, FuzzGuardedEager) {
  fuzzOnce(711, /*VerifyEvery=*/false, /*Guarded=*/true);
}
TEST(HeapInvariants, FuzzGuardedVerifyEveryCollection) {
  fuzzOnce(808, /*VerifyEvery=*/true, /*Guarded=*/true);
}

// Guard metadata must be invisible to conservative marking: the canary
// words stay >= 2^63 (outside any heap window) and the redzone/poison
// fills keep every straddling word's top byte >= 0x80, so a guarded
// and an unguarded collector retain exactly the same objects on the
// same deterministic workload.
TEST(HeapInvariants, GuardsDoNotChangeRetainedSet) {
  auto runCensus = [](bool Guarded) {
    Collector GC(fuzzConfig(/*VerifyEvery=*/false, Guarded));
    Rng R(9090);
    std::vector<uint64_t> Window(256, 0);
    GC.addRootRange(Window.data(), Window.data() + Window.size(),
                    RootEncoding::Native64, RootSource::Client, "window");
    for (int Step = 0; Step != 4000; ++Step) {
      if (R.nextBool(0.6))
        Window[R.pickIndex(Window.size())] = reinterpret_cast<uint64_t>(
            GC.allocate(R.nextInRange(8, 512)));
      else
        GC.allocate(R.nextInRange(8, 1024)); // Garbage.
      if (Step % 512 == 511)
        Window[R.pickIndex(Window.size())] = 0;
    }
    return GC.collect("census");
  };
  CollectionStats Guarded = runCensus(true);
  CollectionStats Plain = runCensus(false);
  EXPECT_EQ(Guarded.ObjectsLive, Plain.ObjectsLive)
      << "guard headers/redzones must never be mistaken for references";
  EXPECT_EQ(Guarded.ObjectsMarked, Plain.ObjectsMarked);
}

// Sweep-counter coherence: an immediate re-sweep of the same marks
// must agree exactly with the collection's sweep — same live counts,
// same pins, and nothing newly freed.
TEST(HeapInvariants, SweepTotalsMatchResweep) {
  Collector GC(fuzzConfig());
  Rng R(777);
  std::vector<uint64_t> Window(256, 0);
  GC.addRootRange(Window.data(), Window.data() + Window.size(),
                  RootEncoding::Native64, RootSource::Client, "window");
  for (int Step = 0; Step != 3000; ++Step) {
    if (R.nextBool(0.7))
      Window[R.pickIndex(Window.size())] = reinterpret_cast<uint64_t>(
          GC.allocate(R.nextInRange(8, 512)));
    else
      GC.allocate(R.nextInRange(8, 1024)); // Garbage.
  }

  CollectionStats Cycle = GC.collect("sweep");
  GC.verifyHeap();

  // The marks the sweep ran against are still set.  Everything
  // unmarked is already gone, so a re-sweep frees nothing and sees the
  // identical live/pinned population.
  SweepResult Resweep = GC.objectHeap().sweep();
  EXPECT_EQ(Resweep.ObjectsSweptFree, 0u)
      << "the sweep must have freed everything unmarked";
  EXPECT_EQ(Resweep.BytesSweptFree, 0u);
  EXPECT_EQ(Resweep.ObjectsLive, Cycle.ObjectsLive);
  EXPECT_EQ(Resweep.BytesLive, Cycle.BytesLive);
  EXPECT_EQ(Resweep.SlotsPinned, Cycle.SlotsPinned);
  GC.verifyHeap();
}

namespace {

GcConfig smallWindowConfig() {
  GcConfig Config;
  Config.WindowBytes = uint64_t(256) << 20;
  Config.Placement = HeapPlacement::Custom;
  Config.CustomHeapBaseOffset = 16 << 20;
  Config.MaxHeapBytes = 64 << 20;
  Config.GcAtStartup = false;
  Config.MinHeapBytesBeforeGc = ~uint64_t(0);
  return Config;
}

} // namespace

// A rooted address of an explicitly freed slot marks the free slot,
// and the sweep pins it rather than handing it out again.
TEST(HeapInvariants, RootedAddressesOfFreedSlotsPin) {
  Collector GC(smallWindowConfig());
  void *Objects[64];
  for (auto &P : Objects) {
    P = GC.allocate(32);
    ASSERT_NE(P, nullptr);
  }
  static void *Rooted[8];
  for (unsigned I = 0; I != 8; ++I)
    Rooted[I] = Objects[I * 8];
  GC.addRootRange(Rooted, Rooted + 8, RootEncoding::Native64,
                  RootSource::StaticData, "rooted");
  // The 8 rooted objects stay live; the other 56 are freed.
  CollectionStats First = GC.collect("pin-setup");
  EXPECT_EQ(First.ObjectsLive, 8u);
  for (unsigned I = 0; I != 8; ++I)
    GC.deallocate(Rooted[I]);
  CollectionStats Second = GC.collect("pin");
  EXPECT_EQ(Second.SlotsPinned, 8u)
      << "rooted addresses of freed slots pin them";
  GC.verifyHeap();
}

namespace {

// Each mutator's window: random roots, then the objects it keeps until
// an explicit free.
constexpr size_t RandomRoots = 128;
constexpr size_t FreeableRoots = 16;

// One mutator's deterministic churn for the multi-mutator fuzz lane:
// rooted allocations into its own window, garbage, explicitly freed
// normal and Precise-layout objects, pointer-free and uncollectable
// objects, root drops, and occasional explicit collections — the
// single-thread fuzz diet, minus the planted stray (which is
// per-collector, not per-thread).
void mutatorChurn(Collector &GC, uint64_t Seed,
                  std::vector<uint64_t> &Window) {
  Rng R(Seed);
  std::vector<void *> Explicit;
  LayoutId Layout = GC.registerObjectLayout(
      {true, false, true, false}, 4 * sizeof(uint64_t));
  for (int Step = 0; Step != 1500; ++Step) {
    switch (R.pickIndex(9)) {
    case 0:
    case 1:
    case 2:
      Window[R.pickIndex(RandomRoots)] = reinterpret_cast<uint64_t>(
          GC.allocate(R.nextInRange(8, 512)));
      break;
    case 3: { // Garbage, or kept until a later explicit free.
      void *P = GC.allocate(R.nextInRange(8, 2000));
      uint64_t &Slot = Window[RandomRoots + R.pickIndex(FreeableRoots)];
      if (Slot != 0 && R.nextBool(0.5))
        GC.deallocate(reinterpret_cast<void *>(Slot));
      Slot = reinterpret_cast<uint64_t>(P);
      break;
    }
    case 4:
      GC.allocate(R.nextInRange(8, 256), ObjectKind::PointerFree);
      break;
    case 5:
      if (Explicit.size() < 32 && R.nextBool(0.6)) {
        Explicit.push_back(GC.allocate(R.nextInRange(8, 128),
                                       ObjectKind::Uncollectable));
      } else if (!Explicit.empty()) {
        size_t Pick = R.pickIndex(Explicit.size());
        GC.deallocate(Explicit[Pick]);
        Explicit.erase(Explicit.begin() + static_cast<ptrdiff_t>(Pick));
      }
      break;
    case 6: // Drop a root.
      Window[R.pickIndex(RandomRoots)] = 0;
      break;
    case 7:
      if (R.nextBool(0.05))
        GC.collect("mt-fuzz");
      else
        GC.safepoint();
      break;
    case 8: { // Typed: half kept until an explicit free, half garbage.
      auto *T = static_cast<uint64_t *>(GC.allocateTyped(Layout));
      for (int W = 0; W != 4; ++W)
        EXPECT_EQ(T[W], 0u) << "typed slots are handed out zeroed";
      T[1] = T[3] = 0xabababababababab;
      if (R.nextBool(0.5)) {
        uint64_t &Slot = Window[RandomRoots + R.pickIndex(FreeableRoots)];
        if (Slot != 0)
          GC.deallocate(reinterpret_cast<void *>(Slot));
        Slot = reinterpret_cast<uint64_t>(T);
      }
      break;
    }
    }
  }
  for (void *P : Explicit)
    GC.deallocate(P);
  for (size_t I = RandomRoots; I != Window.size(); ++I)
    if (Window[I] != 0) {
      GC.deallocate(reinterpret_cast<void *>(Window[I]));
      Window[I] = 0;
    }
}

/// Lifetime counts a run of mutator streams leaves in the heap.
struct StreamTotals {
  uint64_t Allocated = 0;
  uint64_t Freed = 0;
};

// Runs three mutatorChurn streams either as registered threads (any of
// which may trigger a handshake-collect at any moment) or sequentially
// on the same unthreaded collector, and returns the lifetime allocation
// and explicit-free counts after draining.  The streams are
// interleaving-independent, so the totals must agree exactly — and
// both heaps must empty.
StreamTotals runMutatorStreams(bool Threaded,
                               uint64_t HandshakeDeadlineMs = 0) {
  GcConfig Config = fuzzConfig();
  Config.HandshakeDeadlineMs = HandshakeDeadlineMs;
  Collector GC(Config);
  constexpr int NumMutators = 3;
  std::vector<std::vector<uint64_t>> Windows(
      NumMutators, std::vector<uint64_t>(RandomRoots + FreeableRoots, 0));
  for (auto &W : Windows)
    GC.addRootRange(W.data(), W.data() + W.size(), RootEncoding::Native64,
                    RootSource::Client, "mutator-window");
  if (Threaded) {
    std::vector<std::thread> Threads;
    for (int T = 0; T != NumMutators; ++T)
      Threads.emplace_back([&GC, &Windows, T] {
        GcThreadScope Scope(GC);
        ASSERT_TRUE(Scope.registered());
        mutatorChurn(GC, 1000 + uint64_t(T), Windows[size_t(T)]);
      });
    for (std::thread &Th : Threads)
      Th.join();
    EXPECT_EQ(GC.threadRegistry().registeredCount(), 0u);
  } else {
    for (int T = 0; T != NumMutators; ++T)
      mutatorChurn(GC, 1000 + uint64_t(T), Windows[size_t(T)]);
  }
  GC.collect("final");
  GC.verifyHeap();
  for (auto &W : Windows)
    std::fill(W.begin(), W.end(), 0);
  GC.collect("drain");
  GC.verifyHeap();
  EXPECT_EQ(GC.allocatedBytes(), 0u)
      << "everything must drain once every mutator has left";
  return {GC.heapStats().ObjectsAllocated, GC.heapStats().ExplicitFrees};
}

} // namespace

// The multi-mutator fuzz lane, cross-checked against the sequential
// collector: per-thread allocation streams are deterministic whatever
// the interleaving, so the lifetime object and explicit-free counts
// (folded from the owned blocks' private counters) match a
// single-threaded replay of the same streams.
TEST(HeapInvariants, FuzzMultiMutatorMatchesSequential) {
  StreamTotals Threaded = runMutatorStreams(true);
  StreamTotals Sequential = runMutatorStreams(false);
  EXPECT_EQ(Threaded.Allocated, Sequential.Allocated);
  EXPECT_EQ(Threaded.Freed, Sequential.Freed);
  EXPECT_GT(Threaded.Freed, 0u);
}

// The skipped-polls fuzz lane: the WedgedMutator fault randomly turns
// safepoint polls into no-ops (a seeded stream, so runs replay), and
// the armed watchdog's signal rung rescues any handshake that stalls
// on a thread mid-skip.  How a thread got stopped never changes what
// it allocated, so the lifetime totals still match the sequential
// replay of the same streams.
TEST(HeapInvariants, FuzzMultiMutatorRandomSkippedPolls) {
  if (!FaultInjectionCompiled)
    GTEST_SKIP() << "fault hooks compiled out";
  FaultInjector::instance().armRandom(FaultSite::WedgedMutator, 0.7, 77);
  StreamTotals Threaded =
      runMutatorStreams(true, /*HandshakeDeadlineMs=*/500);
  FaultInjector::instance().disarmAll();
  StreamTotals Sequential = runMutatorStreams(false);
  EXPECT_EQ(Threaded.Allocated, Sequential.Allocated);
  EXPECT_EQ(Threaded.Freed, Sequential.Freed);
}

TEST(HeapInvariants, VerifierPassesAfterEveryPhase) {
  Collector GC(fuzzConfig());
  GC.verifyHeap(); // Empty heap.
  void *A = GC.allocate(100);
  GC.verifyHeap(); // After allocation.
  GC.collect();
  GC.verifyHeap(); // After collection (A was garbage).
  (void)A;
  void *B = GC.allocate(5 * PageSize);
  GC.verifyHeap(); // Large object live.
  GC.deallocate(B);
  GC.verifyHeap(); // After explicit large free.
}

TEST(CollectorReport, PrintsWithoutCrashing) {
  Collector GC(fuzzConfig());
  for (int I = 0; I != 1000; ++I)
    GC.allocate(32);
  GC.collect();
  // Render the report into a memory stream and sanity-check content.
  char *Buffer = nullptr;
  size_t Size = 0;
  std::FILE *Stream = open_memstream(&Buffer, &Size);
  ASSERT_NE(Stream, nullptr);
  GC.printReport(Stream);
  std::fclose(Stream);
  std::string Text(Buffer, Size);
  free(Buffer);
  EXPECT_NE(Text.find("cgc collector report"), std::string::npos);
  EXPECT_NE(Text.find("collections"), std::string::npos);
  EXPECT_NE(Text.find("blacklist"), std::string::npos);
}
