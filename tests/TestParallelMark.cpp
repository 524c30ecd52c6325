//===- tests/TestParallelMark.cpp - Parallel marking determinism ----------===//
//
// MarkThreads must be a pure performance knob: for any worker count the
// collector retains exactly the same objects and reports exactly the
// same liveness counters, because the marked set is a transitive
// closure (order-independent) and every statistic is a sum over scanned
// words.  These tests run identical workloads under MarkThreads
// {1, 2, 4} and require bit-identical results.
//
//===----------------------------------------------------------------------===//

#include "core/Collector.h"
#include "structures/Grid.h"
#include "structures/ProgramT.h"
#include <algorithm>
#include <gtest/gtest.h>
#include <vector>

using namespace cgc;

namespace {

GcConfig parallelConfig(unsigned Threads) {
  GcConfig Config;
  Config.WindowBytes = uint64_t(256) << 20;
  Config.Placement = HeapPlacement::Custom;
  Config.CustomHeapBaseOffset = 16 << 20;
  Config.MaxHeapBytes = 64 << 20;
  Config.GcAtStartup = false;
  Config.MinHeapBytesBeforeGc = ~uint64_t(0);
  Config.MarkThreads = Threads;
  return Config;
}

/// Window offsets of every currently allocated object, in address
/// order.  After a (non-lazy) collection this is the retained set.
std::vector<WindowOffset> retainedSet(Collector &GC) {
  std::vector<WindowOffset> Offsets;
  GC.forEachObject([&](void *Ptr, size_t, ObjectKind) {
    Offsets.push_back(GC.windowOffsetOf(Ptr));
  });
  return Offsets;
}

/// The counters that must be bit-identical for any worker count.
void expectSameLiveness(const CollectionStats &A, const CollectionStats &B,
                        const char *What) {
  EXPECT_EQ(A.ObjectsMarked, B.ObjectsMarked) << What;
  EXPECT_EQ(A.BytesMarked, B.BytesMarked) << What;
  EXPECT_EQ(A.ObjectsLive, B.ObjectsLive) << What;
  EXPECT_EQ(A.BytesLive, B.BytesLive) << What;
  EXPECT_EQ(A.ObjectsSweptFree, B.ObjectsSweptFree) << What;
  EXPECT_EQ(A.BytesSweptFree, B.BytesSweptFree) << What;
  EXPECT_EQ(A.RootBytesScanned, B.RootBytesScanned) << What;
  EXPECT_EQ(A.RootCandidatesExamined, B.RootCandidatesExamined) << What;
  EXPECT_EQ(A.RootHits, B.RootHits) << What;
  EXPECT_EQ(A.NearMisses, B.NearMisses) << What;
  EXPECT_EQ(A.HeapWordsScanned, B.HeapWordsScanned) << What;
  for (unsigned I = 0; I != NumScanOrigins; ++I) {
    EXPECT_EQ(A.MarksByOrigin[I], B.MarksByOrigin[I]) << What;
    EXPECT_EQ(A.NearMissesByOrigin[I], B.NearMissesByOrigin[I]) << What;
  }
}

} // namespace

TEST(ParallelMark, ProgramTIdenticalAcrossThreadCounts) {
  // A scaled-down Program T: enough lists that parallel workers really
  // interleave, small enough to keep the suite fast.
  ProgramTConfig TConfig;
  TConfig.NumLists = 40;
  TConfig.CellsPerList = 1250; // 10 KB lists.
  TConfig.MeasureCollections = 2;

  ProgramTResult Reference;
  CollectionStats ReferenceCycle;
  std::vector<WindowOffset> ReferenceRetained;
  for (unsigned Threads : {1u, 2u, 4u}) {
    Collector GC(parallelConfig(Threads));
    ProgramT T(GC, /*Stack=*/nullptr, TConfig);
    ProgramTResult Result = T.run();
    ASSERT_FALSE(Result.OutOfMemory);
    CollectionStats Cycle = GC.lastCollection();
    EXPECT_EQ(Cycle.MarkWorkers, Threads);
    std::vector<WindowOffset> Retained = retainedSet(GC);
    if (Threads == 1) {
      Reference = Result;
      ReferenceCycle = Cycle;
      ReferenceRetained = std::move(Retained);
      continue;
    }
    EXPECT_EQ(Result.ListsRetained, Reference.ListsRetained)
        << "MarkThreads=" << Threads;
    EXPECT_EQ(Result.LiveBytesAtEnd, Reference.LiveBytesAtEnd)
        << "MarkThreads=" << Threads;
    expectSameLiveness(Cycle, ReferenceCycle, "program T");
    EXPECT_EQ(Retained, ReferenceRetained)
        << "retained-object sets differ at MarkThreads=" << Threads;
  }
}

TEST(ParallelMark, GridIdenticalAcrossThreadCounts) {
  // Figure-3 embedded grid with the headers dropped and a single
  // planted reference at an interior vertex: the retained set is the
  // lower-right quadrant reachable through Right/Down links — a shape
  // with heavy mark-sharing where racy double-marks would show up.
  constexpr unsigned Rows = 48, Cols = 48;
  constexpr unsigned PinRow = 24, PinCol = 24;

  CollectionStats ReferenceCycle;
  std::vector<WindowOffset> ReferenceRetained;
  for (unsigned Threads : {1u, 2u, 4u}) {
    Collector GC(parallelConfig(Threads));
    EmbeddedGrid Grid(GC, Rows, Cols);
    uint64_t Planted = reinterpret_cast<uint64_t>(
        GC.pointerAtOffset(Grid.vertexOffset(PinRow, PinCol)));
    RootId Pin = GC.addRootRange(&Planted, &Planted + 1,
                                 RootEncoding::Native64,
                                 RootSource::Client, "planted");
    Grid.dropRoots();
    CollectionStats Cycle = GC.collect("grid-quadrant");
    // From (r, c) the embedded links reach exactly {(i, j) : i >= r,
    // j >= c}.
    EXPECT_EQ(Cycle.ObjectsLive,
              uint64_t(Rows - PinRow) * (Cols - PinCol));
    std::vector<WindowOffset> Retained = retainedSet(GC);
    if (Threads == 1) {
      ReferenceCycle = Cycle;
      ReferenceRetained = std::move(Retained);
    } else {
      expectSameLiveness(Cycle, ReferenceCycle, "embedded grid");
      EXPECT_EQ(Retained, ReferenceRetained)
          << "retained-object sets differ at MarkThreads=" << Threads;
    }
    GC.removeRootRange(Pin);
  }
}

TEST(ParallelMark, FullGridLivenessIdentical) {
  // All headers live: every vertex retained, counters identical.
  constexpr unsigned Rows = 40, Cols = 40;
  CollectionStats ReferenceCycle;
  for (unsigned Threads : {1u, 2u, 4u}) {
    Collector GC(parallelConfig(Threads));
    EmbeddedGrid Grid(GC, Rows, Cols);
    CollectionStats Cycle = GC.collect("grid-full");
    EXPECT_EQ(Cycle.ObjectsLive, uint64_t(Rows) * Cols);
    if (Threads == 1)
      ReferenceCycle = Cycle;
    else
      expectSameLiveness(Cycle, ReferenceCycle, "full grid");
  }
}

TEST(ParallelMark, MeasureLivenessMatchesAcrossThreadCounts) {
  // measureLiveness (mark without sweep) goes through the same
  // pipeline; per-object mark bits must agree with the sequential run.
  constexpr unsigned Rows = 32, Cols = 32;
  std::vector<bool> ReferenceMarks;
  for (unsigned Threads : {1u, 4u}) {
    Collector GC(parallelConfig(Threads));
    EmbeddedGrid Grid(GC, Rows, Cols);
    uint64_t Planted = reinterpret_cast<uint64_t>(
        GC.pointerAtOffset(Grid.vertexOffset(10, 20)));
    GC.addRootRange(&Planted, &Planted + 1, RootEncoding::Native64,
                    RootSource::Client, "planted");
    Grid.dropRoots();
    CollectionStats Stats = GC.measureLiveness();
    EXPECT_EQ(Stats.ObjectsMarked, uint64_t(Rows - 10) * (Cols - 20));
    std::vector<bool> Marks;
    for (unsigned R = 0; R != Rows; ++R)
      for (unsigned C = 0; C != Cols; ++C)
        Marks.push_back(GC.wasMarkedLive(
            GC.pointerAtOffset(Grid.vertexOffset(R, C))));
    if (Threads == 1)
      ReferenceMarks = std::move(Marks);
    else
      EXPECT_EQ(Marks, ReferenceMarks);
  }
}

TEST(ParallelMark, NearMissBatchesIdenticalAcrossThreadCounts) {
  // Every node carries three false pointers into distinct unused pages
  // of the potential heap: thousands of near misses, many times each
  // worker's batch, so parallel workers flush batches into the
  // blacklist while others still mark.  The blacklist and every
  // near-miss counter must match the sequential marker's.
  constexpr unsigned Lists = 32, Nodes = 40, FalsePerNode = 3;
  CollectionStats ReferenceCycle;
  std::vector<WindowOffset> ReferenceRetained;
  uint64_t ReferencePages = 0, ReferenceNoted = 0;
  for (unsigned Threads : {1u, 4u}) {
    Collector GC(parallelConfig(Threads));
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
          Node[F] = reinterpret_cast<uint64_t>(GC.pointerAtOffset(
              FalseBase + NextFalsePage++ * PageSize));
        Prev = Node;
      }
      Window[L] = reinterpret_cast<uint64_t>(Prev);
    }
    CollectionStats Cycle = GC.collect("near-misses");
    EXPECT_EQ(Cycle.MarkWorkers, Threads);
    EXPECT_EQ(Cycle.NearMisses, uint64_t(Lists) * Nodes * FalsePerNode);
    std::vector<WindowOffset> Retained = retainedSet(GC);
    if (Threads == 1) {
      ReferenceCycle = Cycle;
      ReferenceRetained = std::move(Retained);
      ReferencePages = GC.blacklistedPageCount();
      ReferenceNoted = GC.blacklistStats().CandidatesNoted;
      EXPECT_EQ(ReferencePages, Cycle.NearMisses);
      continue;
    }
    expectSameLiveness(Cycle, ReferenceCycle, "near misses");
    EXPECT_EQ(Retained, ReferenceRetained);
    EXPECT_EQ(GC.blacklistedPageCount(), ReferencePages);
    EXPECT_EQ(GC.blacklistStats().CandidatesNoted, ReferenceNoted);
    EXPECT_EQ(Cycle.BlacklistedPages, ReferencePages);
  }
}

TEST(ParallelMark, ThreadCountClampsAndReports) {
  Collector GC(parallelConfig(1));
  EXPECT_EQ(GC.markThreads(), 1u);
  GC.setMarkThreads(0); // 0 means "default": the sequential marker.
  EXPECT_EQ(GC.markThreads(), 1u);
  GC.setMarkThreads(4);
  EXPECT_EQ(GC.markThreads(), 4u);
  (void)GC.allocate(64);
  CollectionStats Cycle = GC.collect("clamp");
  EXPECT_EQ(Cycle.MarkWorkers, 4u);
  // Absurd requests clamp to the context's ceiling rather than
  // spawning unbounded threads.
  GC.setMarkThreads(100000);
  Cycle = GC.collect("clamp-high");
  EXPECT_LE(Cycle.MarkWorkers, 64u);
  EXPECT_GE(Cycle.MarkWorkers, 1u);
}
