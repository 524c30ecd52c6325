//===- tests/TestStructures.cpp - §4 workload structure tests -------------===//

#include "structures/BinaryTree.h"
#include "structures/FalseRef.h"
#include "structures/Grid.h"
#include "structures/LazyList.h"
#include "structures/ListReversal.h"
#include "structures/ProgramT.h"
#include "structures/Queue.h"
#include "support/Random.h"
#include <gtest/gtest.h>

using namespace cgc;

namespace {

GcConfig testConfig() {
  GcConfig Config;
  Config.WindowBytes = uint64_t(512) << 20;
  Config.Placement = HeapPlacement::Custom;
  Config.CustomHeapBaseOffset = 16 << 20;
  Config.MaxHeapBytes = uint64_t(128) << 20;
  Config.GcAtStartup = false;
  Config.MinHeapBytesBeforeGc = ~uint64_t(0);
  return Config;
}

} // namespace

//===----------------------------------------------------------------------===//
// Queue (§4)
//===----------------------------------------------------------------------===//

TEST(GcQueue, FifoSemantics) {
  Collector GC(testConfig());
  GcQueue Q(GC, /*ClearLinkOnDequeue=*/true);
  EXPECT_TRUE(Q.empty());
  for (uint64_t I = 0; I != 100; ++I)
    Q.enqueue(I);
  EXPECT_EQ(Q.size(), 100u);
  for (uint64_t I = 0; I != 100; ++I)
    EXPECT_EQ(Q.dequeue(), I);
  EXPECT_TRUE(Q.empty());
}

TEST(GcQueue, SurvivesCollection) {
  Collector GC(testConfig());
  GcQueue Q(GC, true);
  for (uint64_t I = 0; I != 50; ++I)
    Q.enqueue(I * 7);
  GC.collect();
  for (uint64_t I = 0; I != 50; ++I)
    EXPECT_EQ(Q.dequeue(), I * 7);
}

TEST(GcQueue, PinnedNodeUnboundedGrowthWithoutLinkClearing) {
  // The paper's §4 hazard and its fix, measured head to head: one
  // false reference to a dequeued node, then steady-state churn.
  auto RunChurn = [](bool ClearLinks) {
    Collector GC(testConfig());
    GcQueue Q(GC, ClearLinks);
    // Fill the queue, pin the front node while it is still linked.
    for (uint64_t I = 0; I != 10; ++I)
      Q.enqueue(I);
    PlantedRef FalseRef(GC);
    FalseRef.setPointer(Q.head());
    // Steady state: size stays 10, but 2000 nodes flow through.  The
    // pinned node is dequeued in the first round; without clearing,
    // its link still chains into the live queue — and transitively to
    // every node enqueued afterwards.
    for (uint64_t I = 0; I != 2000; ++I) {
      Q.enqueue(I);
      Q.dequeue();
    }
    CollectionStats Cycle = GC.collect();
    return Cycle.ObjectsLive;
  };
  uint64_t WithClearing = RunChurn(true);
  uint64_t WithoutClearing = RunChurn(false);
  EXPECT_LE(WithClearing, 15u)
      << "cleared links: pinned node retains only itself";
  EXPECT_GE(WithoutClearing, 2000u)
      << "uncleared links: the pinned node chains to everything "
         "enqueued after it";
}

//===----------------------------------------------------------------------===//
// Lazy list (§4)
//===----------------------------------------------------------------------===//

TEST(LazyList, GeneratesOnDemand) {
  Collector GC(testConfig());
  LazyList Stream(GC, [](uint64_t I) { return I * I; });
  EXPECT_EQ(Stream.currentValue(), 0u);
  Stream.advance();
  EXPECT_EQ(Stream.currentValue(), 1u);
  for (int I = 0; I != 8; ++I)
    Stream.advance();
  EXPECT_EQ(Stream.currentValue(), 81u);
}

TEST(LazyList, OnlySuffixRetainedNormally) {
  Collector GC(testConfig());
  LazyList Stream(GC, [](uint64_t I) { return I; });
  for (int I = 0; I != 1000; ++I)
    Stream.advance();
  CollectionStats Cycle = GC.collect();
  EXPECT_LE(Cycle.ObjectsLive, 2u) << "consumed prefix must be collected";
}

TEST(LazyList, FalseRefToOldCellRetainsWholeSegment) {
  Collector GC(testConfig());
  LazyList Stream(GC, [](uint64_t I) { return I; });
  LazyCell *Old = Stream.cursor();
  PlantedRef FalseRef(GC);
  FalseRef.setPointer(Old);
  for (int I = 0; I != 1000; ++I)
    Stream.advance();
  CollectionStats Cycle = GC.collect();
  EXPECT_GE(Cycle.ObjectsLive, 1000u)
      << "a false reference to a consumed cell retains the chain from "
         "it to the cursor (unbounded growth in the limit)";
}

//===----------------------------------------------------------------------===//
// Balanced tree (§4)
//===----------------------------------------------------------------------===//

TEST(BalancedTree, GeometryAndReachability) {
  Collector GC(testConfig());
  BalancedTree Tree(GC, /*Height=*/6);
  EXPECT_EQ(Tree.nodeCount(), (1u << 7) - 1);
  EXPECT_EQ(BalancedTree::countReachable(Tree.root()), Tree.nodeCount());
  GC.collect();
  EXPECT_EQ(GC.lastCollection().ObjectsLive, Tree.nodeCount());
}

TEST(BalancedTree, FalseRefRetainsSubtreeOnly) {
  Collector GC(testConfig());
  BalancedTree Tree(GC, 10); // 2047 nodes.
  TreeNode *Mid = Tree.root()->Left->Right; // Height-8 subtree root.
  Tree.dropRoot();
  PlantedRef FalseRef(GC);
  FalseRef.setPointer(Mid);
  CollectionStats Cycle = GC.collect();
  EXPECT_EQ(Cycle.ObjectsLive, (1u << 9) - 1)
      << "exactly the subtree under the false reference survives";
}

TEST(BalancedTree, ExpectedRetentionApproxHeight) {
  // §4: "The expected number of vertices retained as a result of a
  // false reference to a balanced binary tree ... is approximately
  // equal to the height of the tree."
  Collector GC(testConfig());
  unsigned Height = 10;
  BalancedTree Tree(GC, Height); // 2047 nodes.
  Tree.dropRoot();
  PlantedRef FalseRef(GC);
  // Exact expectation: plant the false reference at every node once
  // (mark-only, so the tree survives all measurements).
  double TotalRetained = 0;
  for (size_t Node = 0; Node != Tree.nodeCount(); ++Node) {
    FalseRef.setOffset(Tree.nodeOffset(Node));
    TotalRetained +=
        static_cast<double>(GC.measureLiveness().ObjectsMarked);
  }
  double Mean = TotalRetained / static_cast<double>(Tree.nodeCount());
  // E[subtree size] = average node depth + 1 ~ the tree height.
  EXPECT_GT(Mean, Height - 2.0);
  EXPECT_LT(Mean, Height + 2.0)
      << "mean retention must be ~height, not ~node count";
}

//===----------------------------------------------------------------------===//
// Grids (figures 3 and 4)
//===----------------------------------------------------------------------===//

TEST(Grid, EmbeddedFalseRefRetainsLargeFraction) {
  Collector GC(testConfig());
  EmbeddedGrid Grid(GC, 40, 40);
  GC.collect();
  EXPECT_EQ(GC.lastCollection().ObjectsLive, 1600u);
  Grid.dropRoots();
  PlantedRef FalseRef(GC);
  // A false reference near the top-left corner retains almost all of
  // the grid through the embedded links.
  FalseRef.setOffset(Grid.vertexOffset(1, 1));
  CollectionStats Cycle = GC.collect();
  EXPECT_EQ(Cycle.ObjectsLive, 39u * 39u)
      << "everything right/down of (1,1) is reachable";
}

TEST(Grid, SeparateFalseRefRetainsSingleRow) {
  Collector GC(testConfig());
  SeparateGrid Grid(GC, 40, 40);
  Grid.dropRoots();
  PlantedRef FalseRef(GC);
  // False reference to a row-spine cell at (5, 10): the rest of row 5.
  FalseRef.setOffset(Grid.rowCellOffset(5, 10));
  CollectionStats Cycle = GC.collect();
  // 30 spine cells + 30 pointer-free vertices.
  EXPECT_EQ(Cycle.ObjectsLive, 60u)
      << "at most a single row is affected (paper, Figure 4)";
}

TEST(Grid, SeparateFalseRefToVertexRetainsOnlyIt) {
  Collector GC(testConfig());
  SeparateGrid Grid(GC, 20, 20);
  Grid.dropRoots();
  PlantedRef FalseRef(GC);
  FalseRef.setOffset(Grid.vertexOffset(7, 7));
  CollectionStats Cycle = GC.collect();
  EXPECT_EQ(Cycle.ObjectsLive, 1u)
      << "pointer-free vertices retain nothing but themselves";
}

TEST(Grid, RetentionRatioEmbeddedVsSeparate) {
  // The quantitative §4 claim: expected retention from a uniformly
  // random internal false reference is ~RC/4 embedded vs ~C/2 separate.
  Collector GC(testConfig());
  Rng R(31);
  const unsigned N = 24;

  EmbeddedGrid Embedded(GC, N, N);
  Embedded.dropRoots();
  double EmbeddedMean = 0;
  {
    PlantedRef FalseRef(GC);
    for (int I = 0; I != 50; ++I) {
      FalseRef.setOffset(Embedded.vertexOffset(R.pickIndex(N),
                                               R.pickIndex(N)));
      EmbeddedMean +=
          static_cast<double>(GC.measureLiveness().ObjectsMarked);
    }
    FalseRef.clear();
    GC.collect(); // Now actually reclaim the embedded grid.
  }
  EmbeddedMean /= 50;

  SeparateGrid Separate(GC, N, N);
  Separate.dropRoots();
  double SeparateMean = 0;
  {
    PlantedRef FalseRef(GC);
    for (int I = 0; I != 50; ++I) {
      FalseRef.setOffset(Separate.rowCellOffset(R.pickIndex(N),
                                                R.pickIndex(N)));
      SeparateMean +=
          static_cast<double>(GC.measureLiveness().ObjectsMarked);
    }
  }
  SeparateMean /= 50;

  EXPECT_GT(EmbeddedMean, N * N / 8.0);
  EXPECT_LT(SeparateMean, 3.0 * N);
  EXPECT_GT(EmbeddedMean, SeparateMean * 4)
      << "embedded links must retain far more than separate cons cells";
}

//===----------------------------------------------------------------------===//
// Program T invariants
//===----------------------------------------------------------------------===//

TEST(ProgramT, CleanEnvironmentRetainsNothing) {
  // With no pollution and no simulated stack, conservative collection
  // reclaims every list: misidentification needs a source.
  Collector GC(testConfig());
  ProgramTConfig Config;
  Config.NumLists = 20;
  Config.CellsPerList = 500;
  ProgramT T(GC, /*Stack=*/nullptr, Config);
  ProgramTResult R = T.run();
  EXPECT_EQ(R.ListsRetained, 0u);
  EXPECT_EQ(R.ListsBuilt, 20u);
}

TEST(ProgramT, PlantedRefsRetainExactlyThoseLists) {
  Collector GC(testConfig());
  ProgramTConfig Config;
  Config.NumLists = 20;
  Config.CellsPerList = 500;
  ProgramT T(GC, nullptr, Config);
  T.buildLists();
  PlantedRef Ref3(GC), Ref7(GC);
  Ref3.setOffset(T.representativeOf(3));
  Ref7.setOffset(T.representativeOf(7));
  T.dropReferences();
  ProgramTResult R = T.measure();
  EXPECT_EQ(R.ListsRetained, 2u);
  // Each pinned cycle keeps all its cells.
  EXPECT_EQ(GC.lastCollection().ObjectsLive, 1000u);
}

TEST(ProgramT, FinalizerCountMatchesMarkCount) {
  Collector GC(testConfig());
  ProgramTConfig Config;
  Config.NumLists = 16;
  Config.CellsPerList = 200;
  Config.UseFinalizers = true;
  ProgramT T(GC, nullptr, Config);
  T.buildLists();
  PlantedRef Ref(GC);
  Ref.setOffset(T.representativeOf(5));
  T.dropReferences();
  ProgramTResult R = T.measure();
  EXPECT_EQ(R.ListsRetained, 1u);
  EXPECT_EQ(R.ListsFinalized, 15u)
      << "PCR methodology: finalized + retained = built";
}

//===----------------------------------------------------------------------===//
// §3.1 list reversal
//===----------------------------------------------------------------------===//

TEST(ListReversal, ApparentLiveOrdering) {
  // Small-scale version of the §3.1 experiment; the full-size run is
  // bench_stackclear.  The orderings the paper reports must hold:
  //   recursive/no-clearing >> recursive/clearing > loop.
  auto Run = [](bool Recursive, StackClearMode Clearing) {
    GcConfig Config = testConfig();
    Config.StackClearing = Clearing;
    Config.StackClearEveryNAllocs = 16;
    Collector GC(Config);
    sim::SimStack Stack(1 << 16);
    Stack.attachTo(GC);
    GC.addStackClearHook([&Stack] { Stack.clearBeyondTop(256); });
    ReversalConfig RConfig;
    RConfig.ListLength = 200;
    RConfig.Iterations = 60;
    RConfig.Recursive = Recursive;
    RConfig.ConsPerGc = 400;
    return runListReversal(GC, Stack, RConfig);
  };

  ReversalResult NoClear = Run(true, StackClearMode::Off);
  ReversalResult Cleared = Run(true, StackClearMode::Cheap);
  ReversalResult Loop = Run(false, StackClearMode::Off);

  EXPECT_GT(NoClear.MaxApparentLiveCells, 3 * 400u)
      << "lazy recursion frames must inflate apparent liveness well "
         "beyond the true live set (~400 cells)";
  EXPECT_LT(Cleared.MaxApparentLiveCells, NoClear.MaxApparentLiveCells)
      << "cheap stack clearing must reduce the maximum";
  EXPECT_LE(Loop.MaxApparentLiveCells, 450u)
      << "the loop version's apparent live set is the true live set";
}
