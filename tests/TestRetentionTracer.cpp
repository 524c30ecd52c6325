//===- tests/TestRetentionTracer.cpp - Retention tracing tests ------------===//

#include "core/RetentionTracer.h"
#include "structures/FalseRef.h"
#include "support/FaultInjection.h"
#include "support/Random.h"
#include <cstring>
#include <gtest/gtest.h>

using namespace cgc;

namespace {

GcConfig tracerConfig() {
  GcConfig Config;
  Config.WindowBytes = uint64_t(256) << 20;
  Config.Placement = HeapPlacement::Custom;
  Config.CustomHeapBaseOffset = 16 << 20;
  Config.MaxHeapBytes = 32 << 20;
  Config.GcAtStartup = false;
  Config.MinHeapBytesBeforeGc = ~uint64_t(0);
  return Config;
}

struct Node {
  Node *Next;
  uint64_t Pad;
};

} // namespace

TEST(RetentionTracer, DirectRootReference) {
  Collector GC(tracerConfig());
  Node *Obj = static_cast<Node *>(GC.allocate(sizeof(Node)));
  uint64_t Root = reinterpret_cast<uint64_t>(Obj);
  GC.addRootRange(&Root, &Root + 1, RootEncoding::Native64,
                  RootSource::StaticData, "my-global");
  RetentionTracer Tracer(GC);
  RetentionTrace Trace = Tracer.explain(Obj);
  ASSERT_TRUE(Trace.Reached);
  EXPECT_EQ(Trace.RootLabel, "my-global");
  EXPECT_EQ(Trace.Source, RootSource::StaticData);
  EXPECT_EQ(Trace.RootWord, &Root);
  ASSERT_EQ(Trace.Chain.size(), 1u);
  EXPECT_EQ(Trace.Chain[0].ObjectBase, GC.windowOffsetOf(Obj));
}

TEST(RetentionTracer, ChainThroughHeap) {
  Collector GC(tracerConfig());
  Node *C = static_cast<Node *>(GC.allocate(sizeof(Node)));
  Node *B = static_cast<Node *>(GC.allocate(sizeof(Node)));
  Node *A = static_cast<Node *>(GC.allocate(sizeof(Node)));
  A->Next = B;
  B->Next = C;
  uint64_t Root = reinterpret_cast<uint64_t>(A);
  GC.addRootRange(&Root, &Root + 1, RootEncoding::Native64,
                  RootSource::Client, "head");
  RetentionTracer Tracer(GC);
  RetentionTrace Trace = Tracer.explain(C);
  ASSERT_TRUE(Trace.Reached);
  ASSERT_EQ(Trace.Chain.size(), 3u) << Trace.describe();
  EXPECT_EQ(Trace.Chain[0].ObjectBase, GC.windowOffsetOf(A));
  EXPECT_EQ(Trace.Chain[1].ObjectBase, GC.windowOffsetOf(B));
  EXPECT_EQ(Trace.Chain[2].ObjectBase, GC.windowOffsetOf(C));
}

TEST(RetentionTracer, ShortestChainReported) {
  Collector GC(tracerConfig());
  // Two paths to Target: direct root, and via a long chain.  BFS must
  // report the one-hop path.
  Node *Target = static_cast<Node *>(GC.allocate(sizeof(Node)));
  Node *Chain = Target;
  for (int I = 0; I != 10; ++I) {
    Node *N = static_cast<Node *>(GC.allocate(sizeof(Node)));
    N->Next = Chain;
    Chain = N;
  }
  uint64_t Roots[2] = {reinterpret_cast<uint64_t>(Chain),
                       reinterpret_cast<uint64_t>(Target)};
  GC.addRootRange(Roots, Roots + 2, RootEncoding::Native64,
                  RootSource::Client, "roots");
  RetentionTracer Tracer(GC);
  RetentionTrace Trace = Tracer.explain(Target);
  ASSERT_TRUE(Trace.Reached);
  EXPECT_EQ(Trace.Chain.size(), 1u);
}

TEST(RetentionTracer, UnreachableReportsNotReached) {
  Collector GC(tracerConfig());
  Node *Obj = static_cast<Node *>(GC.allocate(sizeof(Node)));
  RetentionTracer Tracer(GC);
  RetentionTrace Trace = Tracer.explain(Obj);
  EXPECT_FALSE(Trace.Reached);
  EXPECT_EQ(Trace.describe(), "(not reachable from the current roots)");
}

TEST(RetentionTracer, IdentifiesFalseReferenceSource) {
  // The paper's debugging scenario: a list is mysteriously retained;
  // the tracer points at the static integer table.
  Collector GC(tracerConfig());
  Node *Head = nullptr;
  for (int I = 0; I != 50; ++I) {
    Node *N = static_cast<Node *>(GC.allocate(sizeof(Node)));
    N->Next = Head;
    Head = N;
  }
  // An "integer" in static data that happens to alias a middle node.
  Node *Middle = Head;
  for (int I = 0; I != 25; ++I)
    Middle = Middle->Next;
  uint64_t FakeInteger = reinterpret_cast<uint64_t>(Middle);
  GC.addRootRange(&FakeInteger, &FakeInteger + 1, RootEncoding::Native64,
                  RootSource::StaticData, "base-conversion-tables");
  RetentionTracer Tracer(GC);
  // The last node of the list is retained only through the fake int.
  Node *Tail = Middle;
  while (Tail->Next)
    Tail = Tail->Next;
  RetentionTrace Trace = Tracer.explain(Tail);
  ASSERT_TRUE(Trace.Reached);
  EXPECT_EQ(Trace.RootLabel, "base-conversion-tables");
  EXPECT_EQ(Trace.Source, RootSource::StaticData);
  // Middle is 25 hops in; Middle..Tail inclusive is 25 nodes.
  EXPECT_EQ(Trace.Chain.size(), 25u);
  // The head half of the list is NOT reachable.
  EXPECT_FALSE(Tracer.explain(Head).Reached);
}

TEST(RetentionTracer, UncollectableRootChain) {
  Collector GC(tracerConfig());
  auto *Anchor = static_cast<Node *>(
      GC.allocate(sizeof(Node), ObjectKind::Uncollectable));
  Node *Child = static_cast<Node *>(GC.allocate(sizeof(Node)));
  Anchor->Next = Child;
  RetentionTracer Tracer(GC);
  RetentionTrace Trace = Tracer.explain(Child);
  ASSERT_TRUE(Trace.Reached);
  EXPECT_EQ(Trace.RootLabel, "(uncollectable object)");
  EXPECT_EQ(Trace.Chain.size(), 2u);
  GC.deallocate(Anchor);
}

TEST(RetentionTracer, RespectsTypedLayouts) {
  Collector GC(tracerConfig());
  LayoutId Layout = GC.registerObjectLayout(
      {true, false}, 2 * sizeof(uint64_t));
  auto *Holder = static_cast<uint64_t *>(GC.allocateTyped(Layout));
  Node *InPointerWord = static_cast<Node *>(GC.allocate(sizeof(Node)));
  Node *InDataWord = static_cast<Node *>(GC.allocate(sizeof(Node)));
  Holder[0] = reinterpret_cast<uint64_t>(InPointerWord);
  Holder[1] = reinterpret_cast<uint64_t>(InDataWord);
  uint64_t Root = reinterpret_cast<uint64_t>(Holder);
  GC.addRootRange(&Root, &Root + 1, RootEncoding::Native64,
                  RootSource::Client, "typed-root");
  RetentionTracer Tracer(GC);
  EXPECT_TRUE(Tracer.explain(InPointerWord).Reached);
  EXPECT_FALSE(Tracer.explain(InDataWord).Reached)
      << "tracer must honor the layout, like the marker";
}

TEST(RetentionTracer, DoesNotDisturbMarkBits) {
  Collector GC(tracerConfig());
  Node *Obj = static_cast<Node *>(GC.allocate(sizeof(Node)));
  uint64_t Root = reinterpret_cast<uint64_t>(Obj);
  GC.addRootRange(&Root, &Root + 1, RootEncoding::Native64,
                  RootSource::Client, "root");
  GC.collect();
  EXPECT_TRUE(GC.wasMarkedLive(Obj));
  RetentionTracer Tracer(GC);
  (void)Tracer.explain(Obj);
  EXPECT_TRUE(GC.wasMarkedLive(Obj)) << "tracing must not clear marks";
}

namespace {

/// A freed slot whose dead bytes, which the free leaves in place, hold
/// the only pointer to X, and a root range that falsely references the
/// slot beside a live rooted object.
struct FreedSlotScene {
  Collector GC{tracerConfig()};
  Node *X = nullptr;
  Node *Slot = nullptr;
  Node *Live = nullptr;
  uint64_t Roots[2] = {};

  FreedSlotScene() {
    X = static_cast<Node *>(GC.allocate(sizeof(Node)));
    Slot = static_cast<Node *>(GC.allocate(sizeof(Node)));
    Live = static_cast<Node *>(GC.allocate(sizeof(Node)));
    Slot->Next = X;
    GC.deallocate(Slot);
    Roots[0] = reinterpret_cast<uint64_t>(Slot);
    Roots[1] = reinterpret_cast<uint64_t>(Live);
    GC.addRootRange(Roots, Roots + 2, RootEncoding::Native64,
                    RootSource::Client, "false-ref");
  }

  /// Collects and checks that the free slot was marked, and so pinned,
  /// but that nothing was traced through it.
  void collectAndCheck(bool ExpectOverflow) {
    ASSERT_EQ(Slot->Next, X) << "a free leaves the slot's bytes";
    CollectionStats Stats = GC.collect("freed-slot");
    EXPECT_EQ(Stats.MarkStackOverflows > 0, ExpectOverflow);
    EXPECT_TRUE(GC.wasMarkedLive(Slot));
    EXPECT_FALSE(GC.isAllocated(Slot));
    EXPECT_EQ(Stats.SlotsPinned, 1u) << "the false reference pins the slot";
    EXPECT_TRUE(GC.isAllocated(Live));
    EXPECT_FALSE(GC.wasMarkedLive(X));
    EXPECT_FALSE(GC.isAllocated(X)) << "retained through a free slot's bytes";
  }
};

} // namespace

TEST(FreeSlotRetention, MarkerNeverScansAFreeSlot) {
  FreedSlotScene Scene;
  Scene.collectAndCheck(/*ExpectOverflow=*/false);
}

TEST(FreeSlotRetention, OverflowRecoveryNeverScansAFreeSlot) {
  if (!FaultInjectionCompiled)
    GTEST_SKIP() << "built without CGC_FAULT_INJECTION";
  FaultInjector::instance().disarmAll();
  FreedSlotScene Scene;
  // Every push drops its item, so Live's push sets the overflow flag and
  // recovery rebuilds the closure from the mark table, which holds the
  // free slot's mark too.
  FaultInjector::instance().arm(FaultSite::MarkStackOverflow, 0, UINT64_MAX);
  Scene.collectAndCheck(/*ExpectOverflow=*/true);
  FaultInjector::instance().disarmAll();
}

TEST(FreeSlotRetention, TracerNeverTracesThroughAFreeSlot) {
  FreedSlotScene Scene;
  RetentionTracer Tracer(Scene.GC);
  EXPECT_TRUE(Tracer.explain(Scene.Slot).Reached)
      << "the false reference reaches the free slot, as the marker does";
  EXPECT_FALSE(Tracer.explain(Scene.X).Reached) << Tracer.explain(Scene.X)
                                                       .describe();
}

// The tracer reads the marker's own candidate scans, so it must call
// reachable exactly the objects a mark marks: over random heaps of
// conservative, interior-referenced, typed, uncollectable, pointer-free
// and large objects, some explicitly freed, reached from Native64 and
// Window32 roots, under every interior policy and root scan alignment.
TEST(RetentionTracer, AgreesWithTheMarker) {
  constexpr InteriorPolicy Policies[] = {
      InteriorPolicy::All, InteriorPolicy::BaseOnly, InteriorPolicy::FirstPage};
  size_t Checked = 0, Live = 0;
  for (uint64_t Seed = 1; Seed <= 40; ++Seed) {
    Rng R(Seed);
    GcConfig Config = tracerConfig();
    Config.Interior = Policies[Seed % 3];
    Config.RootScanAlignment = 1u << R.nextBelow(4);
    SCOPED_TRACE("seed " + std::to_string(Seed));
    Collector GC(Config);
    LayoutId Layout =
        GC.registerObjectLayout({true, false, true, false}, 4 * 8);

    std::vector<char *> Objs;
    for (int I = 0; I != 800; ++I) {
      uint64_t Pick = R.nextBelow(20);
      void *P;
      if (Pick < 12)
        P = GC.allocate(8 + 8 * R.nextBelow(16));
      else if (Pick < 14)
        P = GC.allocate(8 + 8 * R.nextBelow(8), ObjectKind::PointerFree);
      else if (Pick == 14)
        P = GC.allocate(24, R.nextBool(0.5)
                                ? ObjectKind::Uncollectable
                                : ObjectKind::PointerFreeUncollectable);
      else if (Pick < 19)
        P = GC.allocateTyped(Layout);
      else if (R.nextBool(0.5))
        P = GC.allocate(3 * PageSize + 8 * R.nextBelow(64));
      else
        P = GC.allocateIgnoreOffPage(3 * PageSize);
      ASSERT_NE(P, nullptr);
      Objs.push_back(static_cast<char *>(P));
    }
    // A base or interior address of a random object.
    auto RandomRef = [&] {
      char *Obj = Objs[R.nextBelow(Objs.size())];
      size_t Displacement =
          R.nextBool(0.5) ? 0 : R.nextBelow(GC.objectSizeOf(Obj));
      return reinterpret_cast<uint64_t>(Obj + Displacement);
    };
    // Sparse edges, one in four at an unaligned offset, which the
    // word-at-a-time heap scan does not see.
    for (char *Obj : Objs) {
      size_t Bytes = GC.objectSizeOf(Obj);
      for (size_t Off = 0; Off + 8 <= Bytes; Off += 8) {
        if (!R.nextBool(0.08))
          continue;
        uint64_t Word = RandomRef();
        size_t At = R.nextBool(0.25)
                        ? std::min(Off + 1 + R.nextBelow(7), Bytes - 8)
                        : Off;
        std::memcpy(Obj + At, &Word, sizeof(Word));
      }
    }
    // Explicit frees leave their pointers in the dead bytes.
    std::vector<bool> Freed(Objs.size());
    for (size_t I = 0; I != Objs.size(); ++I)
      if (R.nextBool(0.1)) {
        GC.deallocate(Objs[I]);
        Freed[I] = true;
      }

    std::vector<uint64_t> Native(12);
    for (uint64_t &Word : Native)
      Word = R.nextBool(0.7) ? RandomRef() : R.next64();
    GC.addRootRange(Native.data(), Native.data() + Native.size(),
                    RootEncoding::Native64, RootSource::StaticData, "native");
    // The last native word is excluded from scanning.
    GC.addRootExclusion(&Native.back(), Native.data() + Native.size());
    unsigned char Window[2][48] = {};
    for (int Big = 0; Big != 2; ++Big) {
      for (int I = 0; I != 4; ++I) {
        uint32_t Offset = static_cast<uint32_t>(
            GC.windowOffsetOf(reinterpret_cast<void *>(RandomRef())));
        if (Big)
          Offset = __builtin_bswap32(Offset);
        std::memcpy(Window[Big] + R.nextBelow(sizeof(Window[Big]) - 4),
                    &Offset, sizeof(Offset));
      }
      GC.addRootRange(Window[Big], Window[Big] + sizeof(Window[Big]),
                      Big ? RootEncoding::Window32BE : RootEncoding::Window32LE,
                      RootSource::Client, Big ? "window-be" : "window-le");
    }

    GC.measureLiveness();
    RetentionTracer Tracer(GC);
    for (size_t I = 0; I != Objs.size(); ++I) {
      if (Freed[I])
        continue;
      bool Marked = GC.wasMarkedLive(Objs[I]);
      EXPECT_EQ(Tracer.explain(Objs[I]).Reached, Marked) << "object " << I;
      ++Checked;
      Live += Marked;
    }
  }
  // Both answers occur often enough for the comparison to mean something.
  EXPECT_GT(Live, Checked / 5) << Live << " of " << Checked << " marked";
  EXPECT_LT(Live, Checked - Checked / 5) << Live << " of " << Checked;
}
