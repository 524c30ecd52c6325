//===- tests/TestCollector.cpp - Collector end-to-end tests ---------------===//

#include "core/Collector.h"
#include "core/GcNew.h"
#include "structures/FalseRef.h"
#include <cstring>
#include <gtest/gtest.h>
#include <thread>

using namespace cgc;

namespace {

/// Small, deterministic configuration: no automatic collections, no
/// startup collection unless a test asks for them.
GcConfig testConfig() {
  GcConfig Config;
  Config.WindowBytes = uint64_t(256) << 20;
  Config.Placement = HeapPlacement::Custom;
  Config.CustomHeapBaseOffset = uint64_t(16) << 20;
  Config.MaxHeapBytes = uint64_t(64) << 20;
  Config.GcAtStartup = false;
  Config.MinHeapBytesBeforeGc = ~uint64_t(0); // Never auto-collect.
  return Config;
}

struct Node {
  Node *Next;
  uint64_t Value;
};

/// Builds a chain of \p N nodes, returning the head.
Node *buildChain(Collector &GC, int N) {
  Node *Head = nullptr;
  for (int I = 0; I != N; ++I) {
    auto *Cell = static_cast<Node *>(GC.allocate(sizeof(Node)));
    EXPECT_NE(Cell, nullptr);
    Cell->Next = Head;
    Cell->Value = I;
    Head = Cell;
  }
  return Head;
}

} // namespace

//===----------------------------------------------------------------------===//
// Reachability correctness
//===----------------------------------------------------------------------===//

TEST(Collector, NoRootsEverythingCollected) {
  Collector GC(testConfig());
  buildChain(GC, 100);
  CollectionStats Cycle = GC.collect();
  EXPECT_EQ(Cycle.ObjectsLive, 0u);
  EXPECT_EQ(Cycle.ObjectsSweptFree, 100u);
  EXPECT_EQ(GC.allocatedBytes(), 0u);
}

TEST(Collector, RootedChainFullyRetained) {
  Collector GC(testConfig());
  uint64_t Root = 0;
  GC.addRootRange(&Root, &Root + 1, RootEncoding::Native64,
                  RootSource::Client, "root");
  Node *Head = buildChain(GC, 1000);
  Root = reinterpret_cast<uint64_t>(Head);
  CollectionStats Cycle = GC.collect();
  EXPECT_EQ(Cycle.ObjectsLive, 1000u);
  EXPECT_EQ(Cycle.ObjectsSweptFree, 0u);
  // Every node survived with its contents intact.
  uint64_t Expected = 999;
  for (Node *N = Head; N; N = N->Next)
    EXPECT_EQ(N->Value, Expected--);
  // Dropping the root releases everything.
  Root = 0;
  Cycle = GC.collect();
  EXPECT_EQ(Cycle.ObjectsLive, 0u);
  EXPECT_EQ(Cycle.ObjectsSweptFree, 1000u);
}

TEST(Collector, PartialChainRetention) {
  Collector GC(testConfig());
  uint64_t Root = 0;
  GC.addRootRange(&Root, &Root + 1, RootEncoding::Native64,
                  RootSource::Client, "root");
  Node *Head = buildChain(GC, 100);
  // Root the 40th node: the 60 nodes it links to stay, 40 die.
  Node *Mid = Head;
  for (int I = 0; I != 40; ++I)
    Mid = Mid->Next;
  Root = reinterpret_cast<uint64_t>(Mid);
  CollectionStats Cycle = GC.collect();
  EXPECT_EQ(Cycle.ObjectsLive, 60u);
  EXPECT_EQ(Cycle.ObjectsSweptFree, 40u);
}

TEST(Collector, CyclesAreCollected) {
  Collector GC(testConfig());
  // Conservative mark-sweep reclaims cycles (unlike refcounting).
  Node *A = static_cast<Node *>(GC.allocate(sizeof(Node)));
  Node *B = static_cast<Node *>(GC.allocate(sizeof(Node)));
  A->Next = B;
  B->Next = A;
  A = B = nullptr;
  CollectionStats Cycle = GC.collect();
  EXPECT_EQ(Cycle.ObjectsLive, 0u);
  EXPECT_EQ(Cycle.ObjectsSweptFree, 2u);
}

TEST(Collector, PointerFreeObjectsNotScanned) {
  Collector GC(testConfig());
  uint64_t Root = 0;
  GC.addRootRange(&Root, &Root + 1, RootEncoding::Native64,
                  RootSource::Client, "root");
  // A pointer stored *inside* a pointer-free object must not retain.
  auto *Atomic = static_cast<uint64_t *>(
      GC.allocate(64, ObjectKind::PointerFree));
  Node *Hidden = buildChain(GC, 10);
  Atomic[0] = reinterpret_cast<uint64_t>(Hidden);
  Root = reinterpret_cast<uint64_t>(Atomic);
  CollectionStats Cycle = GC.collect();
  EXPECT_EQ(Cycle.ObjectsLive, 1u) << "only the atomic object survives";
  EXPECT_EQ(Cycle.ObjectsSweptFree, 10u);
}

TEST(Collector, UncollectableActsAsRoot) {
  Collector GC(testConfig());
  auto *Anchor = static_cast<Node *>(
      GC.allocate(sizeof(Node), ObjectKind::Uncollectable));
  Anchor->Next = buildChain(GC, 5);
  CollectionStats Cycle = GC.collect();
  // The uncollectable object and everything it references survive with
  // no registered roots at all.
  EXPECT_EQ(Cycle.ObjectsLive, 6u);
  Anchor->Next = nullptr;
  Cycle = GC.collect();
  EXPECT_EQ(Cycle.ObjectsLive, 1u);
  EXPECT_EQ(Cycle.ObjectsSweptFree, 5u);
  GC.deallocate(Anchor);
  Cycle = GC.collect();
  EXPECT_EQ(Cycle.ObjectsLive, 0u);
}

//===----------------------------------------------------------------------===//
// Interior pointers and scan encodings
//===----------------------------------------------------------------------===//

TEST(Collector, InteriorPointerPolicies) {
  for (InteriorPolicy Policy :
       {InteriorPolicy::All, InteriorPolicy::FirstPage,
        InteriorPolicy::BaseOnly}) {
    GcConfig Config = testConfig();
    Config.Interior = Policy;
    Collector GC(Config);
    uint64_t Root = 0;
    GC.addRootRange(&Root, &Root + 1, RootEncoding::Native64,
                    RootSource::Client, "root");
    auto *Obj = static_cast<char *>(GC.allocate(256));
    // Interior pointer 100 bytes in.
    Root = reinterpret_cast<uint64_t>(Obj + 100);
    CollectionStats Cycle = GC.collect();
    if (Policy == InteriorPolicy::BaseOnly)
      EXPECT_EQ(Cycle.ObjectsLive, 0u) << "BaseOnly must reject interior";
    else
      EXPECT_EQ(Cycle.ObjectsLive, 1u) << "interior pointer must retain";
  }
}

TEST(Collector, FirstPagePolicyOnLargeObjects) {
  GcConfig Config = testConfig();
  Config.Interior = InteriorPolicy::FirstPage;
  Collector GC(Config);
  uint64_t Root = 0;
  GC.addRootRange(&Root, &Root + 1, RootEncoding::Native64,
                  RootSource::Client, "root");
  auto *Big = static_cast<char *>(GC.allocate(8 * PageSize));
  // A pointer into the first page retains...
  Root = reinterpret_cast<uint64_t>(Big + 100);
  EXPECT_EQ(GC.collect().ObjectsLive, 1u);
  // ...but a pointer three pages in does not.
  Root = reinterpret_cast<uint64_t>(Big + 3 * PageSize);
  Big = nullptr;
  EXPECT_EQ(GC.collect().ObjectsLive, 0u);
}

TEST(Collector, Window32RootEncodings) {
  Collector GC(testConfig());
  Node *Obj = buildChain(GC, 3);
  uint32_t OffsetLE = static_cast<uint32_t>(GC.windowOffsetOf(Obj));
  uint32_t OffsetBE = __builtin_bswap32(OffsetLE);

  unsigned char BufLE[4], BufBE[4];
  std::memcpy(BufLE, &OffsetLE, 4);
  std::memcpy(BufBE, &OffsetBE, 4);
  RootId LE = GC.addRootRange(BufLE, BufLE + 4, RootEncoding::Window32LE,
                              RootSource::StaticData, "le");
  EXPECT_EQ(GC.collect().ObjectsLive, 3u);
  GC.removeRootRange(LE);
  RootId BE = GC.addRootRange(BufBE, BufBE + 4, RootEncoding::Window32BE,
                              RootSource::StaticData, "be");
  EXPECT_EQ(GC.collect().ObjectsLive, 3u);
  GC.removeRootRange(BE);
  EXPECT_EQ(GC.collect().ObjectsLive, 0u);
}

TEST(Collector, RootScanAlignmentFindsUnalignedPointers) {
  // A pointer stored at an odd offset is invisible at 8-byte stride but
  // found at byte stride — the paper's unaligned-pointer discussion.
  for (unsigned Alignment : {8u, 1u}) {
    GcConfig Config = testConfig();
    Config.RootScanAlignment = Alignment;
    Collector GC(Config);
    Node *Obj = buildChain(GC, 1);
    alignas(8) unsigned char Buffer[24] = {};
    uint64_t Word = reinterpret_cast<uint64_t>(Obj);
    std::memcpy(Buffer + 3, &Word, 8); // Misaligned by 3.
    GC.addRootRange(Buffer, Buffer + sizeof(Buffer),
                    RootEncoding::Native64, RootSource::Client, "buf");
    CollectionStats Cycle = GC.collect();
    if (Alignment == 8)
      EXPECT_EQ(Cycle.ObjectsLive, 0u);
    else
      EXPECT_EQ(Cycle.ObjectsLive, 1u);
  }
}

//===----------------------------------------------------------------------===//
// Queries
//===----------------------------------------------------------------------===//

TEST(Collector, ObjectQueries) {
  Collector GC(testConfig());
  auto *Obj = static_cast<char *>(GC.allocate(100));
  EXPECT_TRUE(GC.isHeapPointer(Obj));
  EXPECT_FALSE(GC.isHeapPointer(&GC));
  EXPECT_EQ(GC.objectBase(Obj), Obj);
  EXPECT_EQ(GC.objectBase(Obj + 50), Obj) << "interior resolves to base";
  EXPECT_EQ(GC.objectSizeOf(Obj), 104u) << "rounded to the size class";
  EXPECT_TRUE(GC.isAllocated(Obj));
  void *P = GC.pointerAtOffset(GC.windowOffsetOf(Obj));
  EXPECT_EQ(P, Obj);

  // A freed object has no base, with guards or without, also once a
  // collection has kept its block for a live neighbour.
  for (bool Guarded : {false, true}) {
    SCOPED_TRACE(Guarded ? "guarded" : "unguarded");
    GcConfig Config = testConfig();
    Config.DebugGuards = Guarded;
    Collector G(Config);
    auto *Live = static_cast<char *>(G.allocate(40));
    auto *Freed = static_cast<char *>(G.allocate(40));
    uint64_t Root = reinterpret_cast<uint64_t>(Live);
    G.addRootRange(&Root, &Root + 1, RootEncoding::Native64,
                   RootSource::Client, "live");
    G.deallocate(Freed);
    G.collect();
    EXPECT_EQ(G.objectBase(Live), Live);
    EXPECT_FALSE(G.isAllocated(Freed));
    EXPECT_EQ(G.objectBase(Freed), nullptr);
    EXPECT_EQ(G.objectBase(Freed + 8), nullptr);
  }
}

TEST(Collector, AllocationZeroed) {
  Collector GC(testConfig());
  auto *A = static_cast<unsigned char *>(GC.allocate(64));
  for (int I = 0; I != 64; ++I)
    EXPECT_EQ(A[I], 0);
  std::memset(A, 0xFF, 64);
  GC.deallocate(A);
  auto *B = static_cast<unsigned char *>(GC.allocate(64));
  EXPECT_EQ(B, static_cast<void *>(A));
  for (int I = 0; I != 64; ++I)
    EXPECT_EQ(B[I], 0) << "reused memory must be zeroed";
}

//===----------------------------------------------------------------------===//
// Finalization
//===----------------------------------------------------------------------===//

TEST(Collector, FinalizerRunsOnceWhenUnreachable) {
  Collector GC(testConfig());
  uint64_t Root = 0;
  GC.addRootRange(&Root, &Root + 1, RootEncoding::Native64,
                  RootSource::Client, "root");
  Node *Obj = buildChain(GC, 1);
  Root = reinterpret_cast<uint64_t>(Obj);
  int Finalized = 0;
  GC.registerFinalizer(Obj, [&](void *) { ++Finalized; });

  GC.collect();
  EXPECT_EQ(GC.runFinalizers(), 0u) << "reachable: no finalization";

  Root = 0;
  CollectionStats Cycle = GC.collect();
  EXPECT_EQ(Cycle.FinalizersQueued, 1u);
  EXPECT_EQ(Cycle.ObjectsLive, 1u) << "resurrected for the finalizer";
  EXPECT_EQ(GC.runFinalizers(), 1u);
  EXPECT_EQ(Finalized, 1);

  // Next collection reclaims it for real, without re-finalizing.
  Cycle = GC.collect();
  EXPECT_EQ(Cycle.ObjectsLive, 0u);
  EXPECT_EQ(GC.runFinalizers(), 0u);
  EXPECT_EQ(Finalized, 1);
}

TEST(Collector, FinalizerSeesValidContents) {
  Collector GC(testConfig());
  Node *Obj = static_cast<Node *>(GC.allocate(sizeof(Node)));
  Obj->Next = buildChain(GC, 3); // Subgraph must also survive.
  Obj->Value = 77;
  uint64_t SeenValue = 0;
  size_t SeenChain = 0;
  GC.registerFinalizer(Obj, [&](void *P) {
    auto *N = static_cast<Node *>(P);
    SeenValue = N->Value;
    for (Node *C = N->Next; C; C = C->Next)
      ++SeenChain;
  });
  GC.collect();
  EXPECT_EQ(GC.runFinalizers(), 1u);
  EXPECT_EQ(SeenValue, 77u);
  EXPECT_EQ(SeenChain, 3u);
}

TEST(Collector, UnregisterAndExplicitFreeCancelFinalization) {
  Collector GC(testConfig());
  int Finalized = 0;
  Node *A = static_cast<Node *>(GC.allocate(sizeof(Node)));
  GC.registerFinalizer(A, [&](void *) { ++Finalized; });
  EXPECT_TRUE(GC.unregisterFinalizer(A));
  Node *B = static_cast<Node *>(GC.allocate(sizeof(Node)));
  GC.registerFinalizer(B, [&](void *) { ++Finalized; });
  GC.deallocate(B); // Explicit free cancels the registration.
  GC.collect();
  EXPECT_EQ(GC.runFinalizers(), 0u);
  EXPECT_EQ(Finalized, 0);
}

//===----------------------------------------------------------------------===//
// Leak detection
//===----------------------------------------------------------------------===//

TEST(Collector, LeakCallbackReportsUnreachableAllocated) {
  Collector GC(testConfig());
  uint64_t Root = 0;
  GC.addRootRange(&Root, &Root + 1, RootEncoding::Native64,
                  RootSource::Client, "root");
  // Leak-detector use: the program manages Normal objects explicitly;
  // anything unreachable that it failed to free is a leak.  (An
  // Uncollectable object can never leak: it is a root by definition.)
  auto *Kept = static_cast<Node *>(GC.allocate(sizeof(Node)));
  auto *Leaked = static_cast<Node *>(GC.allocate(sizeof(Node)));
  auto *Freed = static_cast<Node *>(GC.allocate(sizeof(Node)));
  Root = reinterpret_cast<uint64_t>(Kept);
  GC.deallocate(Freed);
  (void)Leaked;

  std::vector<void *> Leaks;
  GC.setLeakCallback([&](void *P, size_t, ObjectKind) {
    Leaks.push_back(P);
  });
  GC.collect();
  ASSERT_EQ(Leaks.size(), 1u);
  EXPECT_EQ(Leaks[0], Leaked);
}

//===----------------------------------------------------------------------===//
// Typed helpers
//===----------------------------------------------------------------------===//

TEST(GcNew, TypedAllocationAndScope) {
  Collector GC(testConfig());
  uint64_t Root = 0;
  GC.addRootRange(&Root, &Root + 1, RootEncoding::Native64,
                  RootSource::Client, "root");

  struct Point {
    int X, Y;
  };
  Point *P = gcNew<Point>(GC, Point{3, 4});
  EXPECT_EQ(P->X, 3);
  EXPECT_EQ(P->Y, 4);

  auto *Raw = gcNewAtomic<double>(GC, 2.5);
  EXPECT_EQ(*Raw, 2.5);

  int *Arr = gcNewArray<int>(GC, 100);
  for (int I = 0; I != 100; ++I)
    EXPECT_EQ(Arr[I], 0);

  struct Widget : GcAllocated {
    uint64_t Payload = 11;
  };
  {
    GcScope Scope(GC);
    EXPECT_EQ(ambientCollector(), &GC);
    auto *W = new Widget();
    EXPECT_EQ(W->Payload, 11u);
    EXPECT_TRUE(GC.isAllocated(W));
    delete W; // No-op by design.
    EXPECT_TRUE(GC.isAllocated(W));
  }
  EXPECT_EQ(ambientCollector(), nullptr);
}

TEST(GcNew, FinalizedDestructorRuns) {
  Collector GC(testConfig());
  static int Destroyed;
  Destroyed = 0;
  struct Session {
    ~Session() { ++Destroyed; }
  };
  (void)gcNewFinalized<Session>(GC);
  GC.collect();
  EXPECT_EQ(GC.runFinalizers(), 1u);
  EXPECT_EQ(Destroyed, 1);
}

TEST(GcNew, StdAllocatorAdapter) {
  Collector GC(testConfig());
  GcAllocator<uint64_t> Alloc(GC);
  std::vector<uint64_t, GcAllocator<uint64_t>> V(Alloc);
  for (int I = 0; I != 1000; ++I)
    V.push_back(I);
  EXPECT_EQ(V[999], 999u);
  EXPECT_TRUE(GC.isHeapPointer(V.data()));
}

//===----------------------------------------------------------------------===//
// Policies and triggers
//===----------------------------------------------------------------------===//

TEST(Collector, StartupCollectionSeedsBlacklist) {
  GcConfig Config = testConfig();
  Config.GcAtStartup = true;
  Collector GC(Config);
  // A static root holding a near-miss: an address inside the heap arena
  // where no object lives.
  uint64_t FalseWord =
      GC.arena().base() + Config.CustomHeapBaseOffset + 5 * PageSize + 8;
  GC.addRootRange(&FalseWord, &FalseWord + 1, RootEncoding::Native64,
                  RootSource::StaticData, "static");
  // First allocation triggers the startup collection.
  void *P = GC.allocate(16);
  ASSERT_NE(P, nullptr);
  EXPECT_GE(GC.lifetimeStats().Collections, 1u);
  EXPECT_GE(GC.blacklistedPageCount(), 1u);
  // The allocation avoided the blacklisted page.
  PageIndex Bad = pageOfOffset(Config.CustomHeapBaseOffset + 5 * PageSize);
  EXPECT_NE(pageOfOffset(GC.windowOffsetOf(P)), Bad);
  EXPECT_TRUE(GC.blacklist().isBlacklisted(Bad));
}

TEST(Collector, AutomaticCollectionTriggers) {
  GcConfig Config = testConfig();
  Config.MinHeapBytesBeforeGc = 1 << 20;
  Collector GC(Config);
  // Allocate far more garbage than the threshold; automatic collections
  // must keep the heap bounded.
  for (int I = 0; I != 200000; ++I)
    GC.allocate(64);
  EXPECT_GE(GC.lifetimeStats().Collections, 2u);
  EXPECT_LT(GC.committedHeapBytes(), uint64_t(64) << 20)
      << "heap should stay bounded when everything is garbage";
}

TEST(Collector, OutOfMemoryReturnsNull) {
  GcConfig Config = testConfig();
  Config.MaxHeapBytes = 1 << 20; // 1 MiB arena.
  Collector GC(Config);
  uint64_t Root = 0;
  GC.addRootRange(&Root, &Root + 1, RootEncoding::Native64,
                  RootSource::Client, "root");
  // Keep everything live so collection cannot help.
  Node *Head = nullptr;
  void *P;
  size_t Allocated = 0;
  while ((P = GC.allocate(sizeof(Node))) != nullptr) {
    auto *N = static_cast<Node *>(P);
    N->Next = Head;
    Head = N;
    Root = reinterpret_cast<uint64_t>(Head);
    ++Allocated;
    ASSERT_LT(Allocated, 200000u) << "OOM never reported";
  }
  EXPECT_GT(Allocated, 1u << 15) << "should fit ~64K nodes in 1 MiB";
}

TEST(Collector, PreciseFreeSlotDetectionAblation) {
  // The collector cannot tell a free slot from an allocated one (the
  // paper's could not either), so a false reference to a *free* slot
  // pins it.
  Collector GC(testConfig());
  void *A = GC.allocate(8);
  void *B = GC.allocate(8);
  (void)B;
  GC.deallocate(A);
  PlantedRef Ref(GC);
  Ref.setPointer(A);
  CollectionStats Cycle = GC.collect();
  EXPECT_EQ(Cycle.SlotsPinned, 1u);
}

TEST(Collector, MachineStackScanningKeepsLocalsAlive) {
  Collector GC(testConfig());
  GC.enableMachineStackScanning();
  Node *Head = buildChain(GC, 50);
  // Prevent the compiler from proving Head dead before collect().
  __asm__ volatile("" ::"r"(Head) : "memory");
  CollectionStats Cycle = GC.collect();
  EXPECT_GE(Cycle.ObjectsLive, 50u);
  EXPECT_TRUE(GC.wasMarkedLive(Head));
}

TEST(Collector, MachineStackScanningKeepsLocalsAliveInACensus) {
  Collector GC(testConfig());
  GC.enableMachineStackScanning();
  Node *Head = buildChain(GC, 50);
  __asm__ volatile("" ::"r"(Head) : "memory");
  CollectionStats Census = GC.measureLiveness();
  EXPECT_GE(Census.ObjectsMarked, 50u);
  EXPECT_TRUE(GC.wasMarkedLive(Head));
}

TEST(Collector, MachineStackScanningKeepsLocalsAliveInAnAllocation) {
  GcConfig Config = testConfig();
  Config.MinHeapBytesBeforeGc = 0;
  Collector GC(Config);
  GC.enableMachineStackScanning();
  Node *Head = buildChain(GC, 50);
  __asm__ volatile("" ::"r"(Head) : "memory");
  // Garbage until an allocation collects before growing the heap.
  uint64_t Before = GC.lifetimeStats().Collections;
  while (GC.lifetimeStats().Collections == Before)
    ASSERT_NE(GC.allocate(64), nullptr);
  EXPECT_TRUE(GC.wasMarkedLive(Head));
  uint64_t Expected = 49;
  for (Node *N = Head; N; N = N->Next)
    EXPECT_EQ(N->Value, Expected--);
}

// Scanning covers the enabling thread's stack only: a collection from
// another unregistered thread must fail a named check, not scan from
// its own stack pointer up to the enabling thread's stack base.
TEST(MachineStackDeath, UnregisteredOtherThreadCollectingAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Collector GC(testConfig());
  GC.enableMachineStackScanning();
  EXPECT_DEATH(
      {
        std::thread Other([&] { GC.collect("other-thread"); });
        Other.join();
      },
      "registerMutatorThread");
}

TEST(Collector, StackClearHooksInvoked) {
  GcConfig Config = testConfig();
  Config.StackClearing = StackClearMode::Cheap;
  Config.StackClearEveryNAllocs = 10;
  Collector GC(Config);
  int Calls = 0;
  GC.addStackClearHook([&] { ++Calls; });
  for (int I = 0; I != 100; ++I)
    GC.allocate(16);
  EXPECT_EQ(Calls, 10);
}
