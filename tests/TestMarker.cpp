//===- tests/TestMarker.cpp - Marker and candidate-resolution tests -------===//

#include "core/Collector.h"
#include "structures/FalseRef.h"
#include "structures/Grid.h"
#include <cstring>
#include <gtest/gtest.h>
#include <vector>

using namespace cgc;

namespace {

GcConfig markerConfig() {
  GcConfig Config;
  Config.WindowBytes = uint64_t(256) << 20;
  Config.Placement = HeapPlacement::Custom;
  Config.CustomHeapBaseOffset = 16 << 20;
  Config.MaxHeapBytes = 32 << 20;
  Config.GcAtStartup = false;
  Config.MinHeapBytesBeforeGc = ~uint64_t(0);
  return Config;
}

} // namespace

//===----------------------------------------------------------------------===//
// resolveCandidate
//===----------------------------------------------------------------------===//

TEST(Marker, ResolveCandidateSmallObjects) {
  Collector GC(markerConfig());
  auto *A = static_cast<char *>(GC.allocate(32));
  WindowOffset Base = GC.windowOffsetOf(A);
  MarkContext &M = GC.marker();

  // Base and interior both resolve under the default All policy.
  EXPECT_TRUE(M.resolveCandidate(Base).valid());
  EXPECT_TRUE(M.resolveCandidate(Base + 31).valid());
  // One past the end belongs to the next slot (not yet allocated, but
  // still a "valid object address" in the collector's eyes — the
  // paper's collectors could not distinguish free slots).
  ObjectRef Next = M.resolveCandidate(Base + 32);
  EXPECT_TRUE(Next.valid());
  EXPECT_NE(Next.Slot, M.resolveCandidate(Base).Slot);
  // The page-header gap before the first slot resolves to nothing.
  WindowOffset PageStart = Base & ~WindowOffset(PageSize - 1);
  EXPECT_FALSE(M.resolveCandidate(PageStart).valid());
  // Untouched heap pages resolve to nothing.
  EXPECT_FALSE(M.resolveCandidate(Base + 64 * PageSize).valid());
}

TEST(Marker, NearMissCountingAndBlacklistFeed) {
  Collector GC(markerConfig());
  (void)GC.allocate(8); // Commit some heap.
  // Three candidates: valid, in-arena-invalid, outside-arena.
  uint64_t Roots[3];
  Roots[0] = reinterpret_cast<uint64_t>(GC.allocate(8));
  Roots[1] = GC.arena().base() + (16 << 20) + 100 * PageSize; // Unused.
  Roots[2] = GC.arena().base() + (200 << 20); // Outside the arena.
  GC.addRootRange(Roots, Roots + 3, RootEncoding::Native64,
                  RootSource::Client, "candidates");
  CollectionStats Cycle = GC.collect();
  EXPECT_EQ(Cycle.NearMisses, 1u)
      << "only the in-arena invalid candidate is a near miss";
  EXPECT_EQ(GC.blacklistStats().CandidatesNoted, 1u);
  EXPECT_TRUE(GC.blacklist().isBlacklisted(
      pageOfOffset((16 << 20) + 100 * PageSize)));
  EXPECT_FALSE(GC.blacklist().isBlacklisted(
      pageOfOffset(GC.windowOffsetOf(
          reinterpret_cast<void *>(Roots[0])))))
      << "valid pointers are never blacklisted (Figure 2)";
}

TEST(Marker, NearMissBatchesFlushIntoTheBlacklist) {
  // Every node carries three false pointers into distinct unused pages
  // of the potential heap: 3,840 near misses, many times the marker's
  // fixed near-miss batch, so the batch fills and flushes mid-drain.
  // Every buffered page must still reach the blacklist, once.
  GcConfig Config = markerConfig();
  Config.MaxHeapBytes = 64 << 20;
  Collector GC(Config);
  constexpr unsigned Lists = 32, Nodes = 40, FalsePerNode = 3;
  constexpr uint64_t Expected = uint64_t(Lists) * Nodes * FalsePerNode;
  std::vector<uint64_t> Window(Lists, 0);
  GC.addRootRange(Window.data(), Window.data() + Window.size(),
                  RootEncoding::Native64, RootSource::Client, "lists");
  // Unused pages far above anything these lists commit.
  WindowOffset FalseBase = (16 << 20) + (40 << 20);
  uint64_t NextFalsePage = 0;
  for (unsigned L = 0; L != Lists; ++L) {
    uint64_t *Prev = nullptr;
    for (unsigned N = 0; N != Nodes; ++N) {
      auto *Node = static_cast<uint64_t *>(
          GC.allocate((1 + FalsePerNode) * sizeof(uint64_t)));
      ASSERT_NE(Node, nullptr);
      Node[0] = reinterpret_cast<uint64_t>(Prev);
      for (unsigned F = 1; F <= FalsePerNode; ++F)
        Node[F] = reinterpret_cast<uint64_t>(
            GC.pointerAtOffset(FalseBase + NextFalsePage++ * PageSize));
      Prev = Node;
    }
    Window[L] = reinterpret_cast<uint64_t>(Prev);
  }
  CollectionStats Cycle = GC.collect("near-misses");
  EXPECT_EQ(Cycle.ObjectsLive, uint64_t(Lists) * Nodes);
  EXPECT_EQ(Cycle.NearMisses, Expected);
  EXPECT_EQ(Cycle.NearMissesByOrigin[static_cast<unsigned>(ScanOrigin::Heap)],
            Expected);
  EXPECT_EQ(GC.blacklistStats().CandidatesNoted, Expected);
  EXPECT_EQ(GC.blacklistedPageCount(), Expected);
  EXPECT_EQ(Cycle.BlacklistedPages, Expected);
  EXPECT_TRUE(GC.blacklist().isBlacklisted(pageOfOffset(FalseBase)));
  EXPECT_TRUE(GC.blacklist().isBlacklisted(
      pageOfOffset(FalseBase + (Expected - 1) * PageSize)));
}

TEST(Marker, MeasureLivenessMarksTheReachableQuadrant) {
  // measureLiveness marks without sweeping: from a planted reference
  // to (10, 20) the embedded links reach exactly {(r, c) : r >= 10,
  // c >= 20}, and those are the only vertices whose mark bit is set.
  constexpr unsigned Rows = 32, Cols = 32;
  Collector GC(markerConfig());
  EmbeddedGrid Grid(GC, Rows, Cols);
  uint64_t Planted = reinterpret_cast<uint64_t>(
      GC.pointerAtOffset(Grid.vertexOffset(10, 20)));
  GC.addRootRange(&Planted, &Planted + 1, RootEncoding::Native64,
                  RootSource::Client, "planted");
  Grid.dropRoots();
  CollectionStats Stats = GC.measureLiveness();
  EXPECT_EQ(Stats.ObjectsMarked, uint64_t(Rows - 10) * (Cols - 20));
  for (unsigned R = 0; R != Rows; ++R)
    for (unsigned C = 0; C != Cols; ++C)
      EXPECT_EQ(GC.wasMarkedLive(GC.pointerAtOffset(Grid.vertexOffset(R, C))),
                R >= 10 && C >= 20)
          << "vertex (" << R << ", " << C << ")";
}

TEST(Marker, DeepStructureDoesNotOverflowStack) {
  // A 200k-deep linked list must mark iteratively (explicit mark
  // stack), not by recursion.
  Collector GC(markerConfig());
  struct Node {
    Node *Next;
  };
  uint64_t Root = 0;
  GC.addRootRange(&Root, &Root + 1, RootEncoding::Native64,
                  RootSource::Client, "root");
  Node *Head = nullptr;
  for (int I = 0; I != 200000; ++I) {
    auto *N = static_cast<Node *>(GC.allocate(sizeof(Node)));
    N->Next = Head;
    Head = N;
  }
  Root = reinterpret_cast<uint64_t>(Head);
  EXPECT_EQ(GC.collect().ObjectsLive, 200000u);
}

TEST(Marker, WideFanoutMarksEverything) {
  Collector GC(markerConfig());
  // One array object pointing to 10k leaves.
  constexpr int Leaves = 10000;
  auto **Array = static_cast<void **>(
      GC.allocate(Leaves * sizeof(void *)));
  for (int I = 0; I != Leaves; ++I)
    Array[I] = GC.allocate(16);
  uint64_t Root = reinterpret_cast<uint64_t>(Array);
  GC.addRootRange(&Root, &Root + 1, RootEncoding::Native64,
                  RootSource::Client, "root");
  EXPECT_EQ(GC.collect().ObjectsLive, 1u + Leaves);
}

TEST(Marker, SharedSubgraphMarkedOnce) {
  Collector GC(markerConfig());
  struct Node {
    Node *A;
    Node *B;
  };
  auto *Shared = static_cast<Node *>(GC.allocate(sizeof(Node)));
  auto *Left = static_cast<Node *>(GC.allocate(sizeof(Node)));
  auto *Right = static_cast<Node *>(GC.allocate(sizeof(Node)));
  Left->A = Shared;
  Right->A = Shared;
  uint64_t Roots[2] = {reinterpret_cast<uint64_t>(Left),
                       reinterpret_cast<uint64_t>(Right)};
  GC.addRootRange(Roots, Roots + 2, RootEncoding::Native64,
                  RootSource::Client, "roots");
  CollectionStats Cycle = GC.collect();
  EXPECT_EQ(Cycle.ObjectsLive, 3u);
  EXPECT_EQ(Cycle.ObjectsMarked, 3u) << "no double counting";
}

TEST(Marker, UncollectableObjectsMarkedWholeEveryCycle) {
  // The root scan marks every allocated uncollectable slot, a bitmap
  // word at a time: 150 16-byte slots span three words, and explicit
  // frees leave holes that must stay unmarked.  With no collectable
  // object in the heap, the marked counts are exactly those slots.
  Collector GC(markerConfig());
  std::vector<void *> Objects;
  for (int I = 0; I != 150; ++I)
    Objects.push_back(GC.allocate(16, ObjectKind::Uncollectable));
  for (int I = 0; I != 150; I += 3)
    GC.deallocate(Objects[I]);
  for (int I = 0; I != 70; ++I)
    GC.allocate(32, ObjectKind::PointerFreeUncollectable);
  constexpr uint64_t Live = 100 + 70;
  constexpr uint64_t LiveBytes = 100 * 16 + 70 * 32;
  for (int Cycle = 0; Cycle != 2; ++Cycle) {
    CollectionStats Stats = GC.collect();
    EXPECT_EQ(Stats.ObjectsMarked, Live) << "cycle " << Cycle;
    EXPECT_EQ(Stats.BytesMarked, LiveBytes) << "cycle " << Cycle;
    EXPECT_EQ(Stats.ObjectsLive, Live) << "cycle " << Cycle;
  }
}

TEST(Marker, HeapScanAlignmentControlsInHeapPointers) {
  // Heap objects are scanned one 8-byte word at a time, so a pointer
  // stored at a non-word offset inside a heap object is not seen.
  Collector GC(markerConfig());
  auto *Holder = static_cast<char *>(GC.allocate(64));
  void *Target = GC.allocate(16);
  std::memcpy(Holder + 12, &Target, sizeof(Target)); // 4-aligned.
  uint64_t Root = reinterpret_cast<uint64_t>(Holder);
  GC.addRootRange(&Root, &Root + 1, RootEncoding::Native64,
                  RootSource::Client, "root");
  CollectionStats Cycle = GC.collect();
  EXPECT_EQ(Cycle.ObjectsLive, 1u)
      << "word-aligned scan misses the 4-aligned pointer";
}

TEST(Marker, PointerToLargeObjectInterior) {
  Collector GC(markerConfig());
  auto *Big = static_cast<char *>(GC.allocate(6 * PageSize));
  uint64_t Root = reinterpret_cast<uint64_t>(Big + 5 * PageSize + 123);
  GC.addRootRange(&Root, &Root + 1, RootEncoding::Native64,
                  RootSource::Client, "root");
  CollectionStats Cycle = GC.collect();
  EXPECT_EQ(Cycle.BytesLive, 6 * PageSize)
      << "All-interior policy retains the large object from any page";
}

TEST(Marker, MarkFromCandidateResurrects) {
  Collector GC(markerConfig());
  struct Node {
    Node *Next;
  };
  auto *A = static_cast<Node *>(GC.allocate(sizeof(Node)));
  A->Next = static_cast<Node *>(GC.allocate(sizeof(Node)));
  WindowOffset Offset = GC.windowOffsetOf(A);
  // Nothing roots A; a plain mark pass leaves it unmarked...
  CollectionStats Stats = GC.measureLiveness();
  EXPECT_EQ(Stats.ObjectsMarked, 0u);
  // ...but marking from the candidate marks it and its subgraph.
  CollectionStats More;
  GC.marker().markFromCandidate(Offset, More);
  EXPECT_EQ(More.ObjectsMarked, 2u);
  EXPECT_TRUE(GC.wasMarkedLive(A));
}

TEST(Marker, RootSourceStatsTracked) {
  Collector GC(markerConfig());
  uint64_t StaticWord = 0, StackWord = 0;
  GC.addRootRange(&StaticWord, &StaticWord + 1, RootEncoding::Native64,
                  RootSource::StaticData, "s");
  GC.addRootRange(&StackWord, &StackWord + 1, RootEncoding::Native64,
                  RootSource::Stack, "k");
  CollectionStats Cycle = GC.collect();
  EXPECT_EQ(Cycle.RootBytesScanned, 16u);
  EXPECT_EQ(Cycle.RootCandidatesExamined, 2u);
}
