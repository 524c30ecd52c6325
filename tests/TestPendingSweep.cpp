//===- tests/TestPendingSweep.cpp - Sweep when allocation takes a block ---===//
//
// A collection's sweep pass leaves a partly marked block pending: its
// counts are the swept ones, but its bitmaps are swept only when a
// mutator first takes a slot from it, checks it out or frees into it,
// or when the next mark begins.  These tests hold the lazy heap to the
// eager one: the same addresses handed out, the same collection counts,
// the same bitmaps once the pending blocks are swept, and the same
// answers from every reader in between.
//
//===----------------------------------------------------------------------===//

#include "core/Collector.h"
#include "core/RetentionTracer.h"
#include "support/Random.h"
#include <atomic>
#include <cstring>
#include <gtest/gtest.h>
#include <map>
#include <thread>
#include <vector>

using namespace cgc;

namespace {

GcConfig pendingConfig() {
  GcConfig Config;
  Config.WindowBytes = uint64_t(256) << 20;
  Config.Placement = HeapPlacement::Custom;
  Config.CustomHeapBaseOffset = uint64_t(16) << 20;
  Config.MaxHeapBytes = uint64_t(32) << 20;
  Config.GcAtStartup = false;
  Config.MinHeapBytesBeforeGc = ~uint64_t(0); // Collections are explicit.
  return Config;
}

//===----------------------------------------------------------------------===//
// Lazy against eager: a per-slot model of the eager heap, driven through
// a real collector by random allocations, frees and collections.
//===----------------------------------------------------------------------===//

/// One block as the eager heap would hold it.
struct ModelBlock {
  BlockId Id = InvalidBlockId;
  ObjectKind Kind = ObjectKind::Normal;
  uint32_t SlotBytes = 0;
  bool Large = false;
  uint32_t NumPages = 1;
  std::vector<bool> Alloc, Pinned;
};

class EagerModel {
public:
  explicit EagerModel(Collector &GC) : GC(GC) {}

  /// The address the eager heap hands out for a small \p Kind object of
  /// \p Class-sized slots: the lowest usable slot of the lowest block
  /// with one; nullptr when it would take a fresh block.
  void *predict(ObjectKind Kind, uint32_t SlotBytes) const {
    for (const auto &[Page, B] : Blocks) {
      if (B.Large || B.Kind != Kind || B.SlotBytes != SlotBytes)
        continue;
      for (uint32_t Slot = 0; Slot != B.Alloc.size(); ++Slot)
        if (!B.Alloc[Slot] && !B.Pinned[Slot])
          return slotPointer(B, Slot);
    }
    return nullptr;
  }

  /// Records that \p P was handed out; a block the model does not know
  /// yet is adopted from the heap's descriptor, empty.
  void allocated(void *P) {
    ObjectRef Ref = refFor(P);
    ASSERT_TRUE(Ref.valid());
    const BlockDescriptor &D = GC.objectHeap().blockTable().get(Ref.Block);
    auto [It, Fresh] = Blocks.try_emplace(D.StartPage);
    ModelBlock &B = It->second;
    if (Fresh) {
      B.Id = Ref.Block;
      B.Kind = D.Kind;
      B.SlotBytes = D.ObjectSize;
      B.Large = D.IsLarge;
      B.NumPages = D.NumPages;
      B.Alloc.assign(D.ObjectCount, false);
      B.Pinned.assign(D.ObjectCount, false);
    }
    ASSERT_FALSE(B.Alloc[Ref.Slot]);
    ASSERT_FALSE(B.Pinned[Ref.Slot]);
    B.Alloc[Ref.Slot] = true;
  }

  void freed(void *P) {
    ObjectRef Ref = refFor(P);
    ModelBlock &B = Blocks.at(GC.objectHeap().blockTable().get(Ref.Block)
                                  .StartPage);
    ASSERT_TRUE(B.Alloc[Ref.Slot]);
    B.Alloc[Ref.Slot] = false;
    if (B.Large)
      Blocks.erase(GC.objectHeap().blockTable().get(Ref.Block).StartPage);
  }

  /// The eager collection: every slot whose base a root word holds is
  /// marked, unmarked objects are freed, marked free slots pinned, and
  /// empty blocks released.  \returns the counts it expects.
  CollectionStats collect(const std::vector<uint64_t> &Roots) {
    CollectionStats Want;
    for (auto It = Blocks.begin(); It != Blocks.end();) {
      ModelBlock &B = It->second;
      bool Any = false;
      for (uint32_t Slot = 0; Slot != B.Alloc.size(); ++Slot) {
        uint64_t Base = reinterpret_cast<uint64_t>(slotPointer(B, Slot));
        bool Marked = false;
        for (uint64_t R : Roots)
          Marked = Marked || R == Base;
        if (B.Alloc[Slot] && !Marked) {
          ++Want.ObjectsSweptFree;
          Want.BytesSweptFree += B.SlotBytes;
          B.Alloc[Slot] = false;
        }
        B.Pinned[Slot] = !B.Alloc[Slot] && Marked;
        if (B.Alloc[Slot]) {
          ++Want.ObjectsLive;
          Want.BytesLive += B.SlotBytes;
        }
        Want.SlotsPinned += B.Pinned[Slot];
        Any = Any || B.Alloc[Slot] || B.Pinned[Slot];
      }
      if (Any) {
        ++It;
        continue;
      }
      Want.PagesReleased += B.NumPages;
      It = Blocks.erase(It);
    }
    return Want;
  }

  /// Every allocated object, in address order.
  std::vector<void *> objects() const {
    std::vector<void *> All;
    for (const auto &[Page, B] : Blocks)
      for (uint32_t Slot = 0; Slot != B.Alloc.size(); ++Slot)
        if (B.Alloc[Slot])
          All.push_back(slotPointer(B, Slot));
    return All;
  }

  /// Checks each slot's state as the collector's readers see it and,
  /// with \p Bitmaps, as the block's bitmaps hold it.
  void check(bool Bitmaps) const {
    ObjectHeap &Heap = GC.objectHeap();
    for (const auto &[Page, B] : Blocks) {
      ASSERT_TRUE(Heap.blockTable().isLive(B.Id));
      const BlockDescriptor &D = Heap.blockTable().get(B.Id);
      ASSERT_EQ(D.StartPage, Page);
      for (uint32_t Slot = 0; Slot != B.Alloc.size(); ++Slot) {
        void *P = slotPointer(B, Slot);
        EXPECT_EQ(GC.isAllocated(P), B.Alloc[Slot]) << P;
        if (!Bitmaps)
          continue;
        EXPECT_EQ(D.AllocBits.test(Slot), B.Alloc[Slot]) << P;
        EXPECT_EQ(D.PinnedBits.test(Slot), B.Pinned[Slot]) << P;
      }
    }
  }

  size_t blockCount() const { return Blocks.size(); }

private:
  ObjectRef refFor(void *P) const {
    return GC.objectHeap().refForBase(GC.windowOffsetOf(P));
  }

  void *slotPointer(const ModelBlock &B, uint32_t Slot) const {
    return GC.pointerAtOffset(
        GC.objectHeap().blockTable().get(B.Id).slotOffset(Slot));
  }

  Collector &GC;
  std::map<PageIndex, ModelBlock> Blocks;
};

void expectCounts(const CollectionStats &Got, const CollectionStats &Want) {
  EXPECT_EQ(Got.ObjectsLive, Want.ObjectsLive);
  EXPECT_EQ(Got.BytesLive, Want.BytesLive);
  EXPECT_EQ(Got.ObjectsSweptFree, Want.ObjectsSweptFree);
  EXPECT_EQ(Got.BytesSweptFree, Want.BytesSweptFree);
  EXPECT_EQ(Got.SlotsPinned, Want.SlotsPinned);
  EXPECT_EQ(Got.PagesReleased, Want.PagesReleased);
}

} // namespace

TEST(PendingSweep, LazySweepMatchesEagerModel) {
  const ObjectKind Kinds[] = {ObjectKind::Normal, ObjectKind::PointerFree};
  const size_t Sizes[] = {16, 48, 256, 1024};
  for (uint64_t Seed : {1u, 2u, 3u}) {
    SCOPED_TRACE(testing::Message() << "seed " << Seed);
    GcConfig Config = pendingConfig();
    // A stale root word may point into a slot of a block that reused
    // its page; only exact bases mark, as the model assumes.
    Config.Interior = InteriorPolicy::BaseOnly;
    Collector GC(Config);
    EagerModel Model(GC);
    Rng R(Seed);
    // Root words hold live objects, stale pointers to freed slots (the
    // false references that pin), or nothing.
    std::vector<uint64_t> Roots(96, 0);
    GC.addRootRange(Roots.data(), Roots.data() + Roots.size(),
                    RootEncoding::Native64, RootSource::Client, "roots");
    unsigned Collections = 0;
    for (int Step = 0; Step != 4000 && !HasFatalFailure(); ++Step) {
      double Pick = R.nextDouble();
      if (Pick < 0.55) {
        ObjectKind Kind = Kinds[R.pickIndex(2)];
        bool Large = R.nextBool(0.01);
        size_t Bytes = Large ? 3 * 4096 : Sizes[R.pickIndex(4)];
        void *Want = nullptr;
        if (!Large)
          Want = Model.predict(
              Kind, static_cast<uint32_t>(GC.objectHeap().sizeClassBytes(
                        GC.objectHeap().sizeClassFor(Bytes))));
        void *P = GC.allocate(Bytes, Kind);
        ASSERT_NE(P, nullptr);
        if (Want) {
          ASSERT_EQ(P, Want) << "step " << Step;
        }
        Model.allocated(P);
        if (R.nextBool(0.6))
          Roots[R.pickIndex(Roots.size())] = reinterpret_cast<uint64_t>(P);
      } else if (Pick < 0.75) {
        std::vector<void *> Live = Model.objects();
        if (Live.empty())
          continue;
        void *P = Live[R.pickIndex(Live.size())];
        Model.freed(P);
        GC.deallocate(P);
      } else if (Pick < 0.95) {
        Roots[R.pickIndex(Roots.size())] = 0;
      } else {
        CollectionStats Want = Model.collect(Roots);
        CollectionStats Got = GC.collect("differential");
        ++Collections;
        expectCounts(Got, Want);
        Model.check(/*Bitmaps=*/false);
        EXPECT_TRUE(GC.verifyHeapReport().clean())
            << GC.verifyHeapReport().str();
        if (R.nextBool(0.3)) {
          GC.objectHeap().finishPendingSweeps();
          EXPECT_EQ(GC.objectHeap().pendingBlockCount(), 0u);
          Model.check(/*Bitmaps=*/true);
        }
      }
    }
    EXPECT_GT(Collections, 100u);
    EXPECT_GT(Model.blockCount(), 4u);
    // Every pending block is swept once, either way.
    const ObjectHeapStats &S = GC.heapStats();
    EXPECT_GT(S.HandOutSweeps, 0u);
    EXPECT_GT(S.CycleStartSweeps, 0u);
    GC.objectHeap().finishPendingSweeps();
    Model.check(/*Bitmaps=*/true);
  }
}

// A free into a pending block sweeps it first.  Were the slot's alloc
// bit cleared with the block still pending, its sweep would find the
// slot marked and free, and pin it.
TEST(PendingSweep, ExplicitFreeIntoPendingBlockPinsNothing) {
  Collector GC(pendingConfig());
  void *Objs[4];
  for (void *&P : Objs)
    P = GC.allocate(48);
  uint64_t Roots[2] = {reinterpret_cast<uint64_t>(Objs[0]),
                       reinterpret_cast<uint64_t>(Objs[1])};
  GC.addRootRange(Roots, Roots + 2, RootEncoding::Native64,
                  RootSource::Client, "roots");
  CollectionStats Cycle = GC.collect("pend");
  EXPECT_EQ(Cycle.ObjectsSweptFree, 2u);
  ObjectHeap &Heap = GC.objectHeap();
  ObjectRef Ref = Heap.refForBase(GC.windowOffsetOf(Objs[0]));
  const BlockDescriptor &Block = Heap.blockTable().get(Ref.Block);
  ASSERT_TRUE(Block.Pending);
  // The dead objects are gone to every reader, and freeing one is a
  // double free, exactly as after an eager sweep.
  EXPECT_EQ(Heap.classifyExplicitFree(Objs[2]),
            ObjectHeap::FreeClass::NotAllocated);
  EXPECT_FALSE(GC.isAllocated(Objs[3]));
  EXPECT_EQ(Heap.classifyExplicitFree(Objs[0]), ObjectHeap::FreeClass::Ok);

  Roots[0] = 0; // No false reference keeps the freed slot marked.
  GC.deallocate(Objs[0]);
  EXPECT_FALSE(Block.Pending) << "the free swept the block first";
  EXPECT_EQ(Block.PinnedCount, 0u);
  EXPECT_EQ(GC.heapStats().HandOutSweeps, 1u);
  EXPECT_EQ(GC.allocate(48), Objs[0]) << "the freed slot is usable at once";
  EXPECT_TRUE(GC.verifyHeapReport().clean()) << GC.verifyHeapReport().str();
}

// Each reader answers over a pending block as it does once the block is
// swept: the eager state stays observable.
TEST(PendingSweep, ReadersSeeTheSweptHeap) {
  Collector GC(pendingConfig());
  struct Node {
    Node *Next;
    uint64_t Pad[5];
  };
  std::vector<Node *> Objs;
  for (int I = 0; I != 40; ++I)
    Objs.push_back(static_cast<Node *>(GC.allocate(sizeof(Node))));
  std::vector<uint64_t> Roots(Objs.size() / 2, 0);
  for (size_t I = 0; I != Roots.size(); ++I)
    Roots[I] = reinterpret_cast<uint64_t>(Objs[2 * I]);
  // Two dead objects, the first pointing at the second.
  Node *Dead = Objs[1], *Target = Objs[3];
  Dead->Next = Target;
  GC.addRootRange(Roots.data(), Roots.data() + Roots.size(),
                  RootEncoding::Native64, RootSource::Client, "roots");
  GC.collect("pend");
  ASSERT_GT(GC.objectHeap().pendingBlockCount(), 0u);
  // A dangling root word to the dead object: a freed slot is reached
  // but never traced through.
  uint64_t Dangling = reinterpret_cast<uint64_t>(Dead);
  GC.addRootRange(&Dangling, &Dangling + 1, RootEncoding::Native64,
                  RootSource::Client, "dangling");

  struct View {
    std::vector<void *> Objects;
    std::vector<bool> Allocated;
    bool TargetReached = false;
    size_t LiveChain = 0;
    void *DeadBase = nullptr;
    bool operator==(const View &) const = default;
  };
  auto Read = [&] {
    View V;
    GC.forEachObject([&](void *P, size_t, ObjectKind) {
      V.Objects.push_back(P);
    });
    for (Node *P : Objs)
      V.Allocated.push_back(GC.isAllocated(P));
    RetentionTracer Tracer(GC);
    V.TargetReached = Tracer.explain(Target).Reached;
    V.LiveChain = Tracer.explain(Objs[4]).Chain.size();
    V.DeadBase = GC.objectBase(Dead);
    return V;
  };
  View Lazy = Read();
  GC.objectHeap().finishPendingSweeps();
  View Eager = Read();
  EXPECT_TRUE(Lazy == Eager);
  EXPECT_EQ(Lazy.Objects.size(), Roots.size());
  EXPECT_FALSE(Lazy.TargetReached);
  EXPECT_EQ(Lazy.LiveChain, 1u);
  EXPECT_EQ(Lazy.DeadBase, nullptr);
}

// findLeaks marks without sweeping; the marks it overwrites must not be
// the ones a pending block still needs.
TEST(PendingSweep, FindLeaksOverPendingBlocks) {
  GcConfig Config = pendingConfig();
  Config.DebugGuards = true;
  Collector GC(Config);
  std::vector<void *> Objs;
  for (int I = 0; I != 40; ++I)
    Objs.push_back(GC.allocateTagged(40, "leak-site"));
  std::vector<uint64_t> Roots;
  for (size_t I = 0; I < Objs.size(); I += 2)
    Roots.push_back(reinterpret_cast<uint64_t>(Objs[I]));
  GC.addRootRange(Roots.data(), Roots.data() + Roots.size(),
                  RootEncoding::Native64, RootSource::Client, "roots");
  GC.collect("pend");
  ASSERT_GT(GC.objectHeap().pendingBlockCount(), 0u);
  EXPECT_EQ(GC.findLeaks().TotalObjects, 0u)
      << "the collection already reclaimed every unreachable object";
  Roots[0] = 0;
  GcLeakReport Report = GC.findLeaks();
  EXPECT_EQ(Report.TotalObjects, 1u);
  EXPECT_EQ(Report.TotalBytes, 40u);
}

TEST(PendingSweep, MeasureLivenessLeavesNothingPending) {
  Collector GC(pendingConfig());
  std::vector<uint64_t> Roots;
  for (int I = 0; I != 300; ++I) {
    void *P = GC.allocate(16 + 16 * (I % 4));
    if (I % 3 == 0)
      Roots.push_back(reinterpret_cast<uint64_t>(P));
  }
  GC.addRootRange(Roots.data(), Roots.data() + Roots.size(),
                  RootEncoding::Native64, RootSource::Client, "roots");
  CollectionStats Cycle = GC.collect("pend");
  size_t Pending = GC.objectHeap().pendingBlockCount();
  ASSERT_GT(Pending, 0u);
  uint64_t Before = GC.heapStats().CycleStartSweeps;
  CollectionStats Census = GC.measureLiveness();
  EXPECT_EQ(GC.objectHeap().pendingBlockCount(), 0u);
  EXPECT_EQ(GC.heapStats().CycleStartSweeps, Before + Pending);
  EXPECT_EQ(Census.ObjectsMarked, Cycle.ObjectsLive);
  GC.objectHeap().forEachBlock([](BlockId, BlockDescriptor &Block) {
    EXPECT_FALSE(Block.Pending);
  });
  // The census's marks stay readable until the next collection clears
  // them, which then sweeps nothing that was left pending.
  EXPECT_TRUE(GC.wasMarkedLive(reinterpret_cast<void *>(Roots[0])));
  EXPECT_TRUE(GC.verifyHeapReport().clean()) << GC.verifyHeapReport().str();
  std::string Report;
  {
    char *Buffer = nullptr;
    size_t Size = 0;
    std::FILE *Out = open_memstream(&Buffer, &Size);
    GC.printReport(Out);
    std::fclose(Out);
    Report.assign(Buffer, Size);
    std::free(Buffer);
  }
  EXPECT_NE(Report.find("blocks swept at hand-out 0"), std::string::npos)
      << Report;
  EXPECT_NE(Report.find("at cycle start " + std::to_string(Pending)),
            std::string::npos)
      << Report;
}

// Mutator threads refill from pending blocks, sweeping them under the
// heap lock, while other threads take slots lock-free from the blocks
// they own and the main thread collects.
TEST(PendingSweep, RefillsSweepPendingBlocksBesideLockFreeTakes) {
  Collector GC(pendingConfig());
  constexpr unsigned Threads = 3;
  std::atomic<bool> Stop{false};
  std::atomic<unsigned> Ready{0};
  std::vector<std::thread> Workers;
  for (unsigned T = 0; T != Threads; ++T)
    Workers.emplace_back([&, T] {
      GcThreadScope Scope(GC);
      ASSERT_TRUE(Scope.registered());
      void *Keep[32] = {};
      Ready.fetch_add(1);
      for (uint64_t I = 0; !Stop.load(std::memory_order_relaxed); ++I) {
        void *P = GC.allocate(16 + 16 * ((I + T) % 3));
        ASSERT_NE(P, nullptr);
        std::memset(P, 0x5a, 16);
        void *&Slot = Keep[I % 32];
        if (Slot && I % 2 == 0)
          GC.deallocate(Slot);
        Slot = P;
      }
    });
  while (Ready.load() != Threads)
    std::this_thread::yield();
  for (int I = 0; I != 40; ++I) {
    GC.collect("churn");
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  Stop.store(true);
  for (std::thread &W : Workers)
    W.join();
  GC.collect("final");
  EXPECT_GT(GC.heapStats().HandOutSweeps, 0u);
  EXPECT_TRUE(GC.verifyHeapReport().clean()) << GC.verifyHeapReport().str();
}
